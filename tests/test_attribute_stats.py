from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from conftest import dataset_of
from veracity.attribute_stats import (
    AttrCounts,
    AttributeKind,
    AttributeStatsTable,
    AttrProbVector,
    build_table,
    build_tables,
    cond_prob,
    load_table,
    save_table,
    tweet_attr_vector,
)
from veracity.corpus import Label, NewsItem
from veracity.errors import UnlabeledItem, ZeroSupport
from veracity.preprocess import extract_attributes


def test_cond_prob_pure_attributes():
    assert cond_prob(AttrCounts(274, 0)) == (1.0, 0.0)
    assert cond_prob(AttrCounts(0, 253)) == (0.0, 1.0)


def test_cond_prob_mixed_attribute():
    p_real, p_fake = cond_prob(AttrCounts(102, 1))
    assert round(p_real, 4) == 0.9903
    assert round(p_fake, 4) == 0.0097


def test_cond_prob_zero_support():
    with pytest.raises(ZeroSupport):
        cond_prob(AttrCounts(0, 0))


def test_build_table_counts_per_occurrence():
    rows = [(i, "read https://theguardian.com/x", "fake") for i in range(5)]
    rows.append((5, "see https://theguardian.com/y", "real"))
    table = build_table(dataset_of(*rows), AttributeKind.DOMAIN)
    counts = table.entries["theguardian.com"]
    assert (counts.real_count, counts.fake_count) == (1, 5)
    p_real, p_fake = cond_prob(counts)
    assert round(p_real, 3) == 0.167
    assert round(p_fake, 3) == 0.833


def test_build_table_all_real_domain():
    rows = [(i, f"https://news.sky/{i}", "real") for i in range(274)]
    table = build_table(dataset_of(*rows), AttributeKind.DOMAIN)
    assert cond_prob(table.entries["news.sky"]) == (1.0, 0.0)
    assert table.entries["news.sky"].total == 274


def test_build_empty_dataset():
    table = build_table((), AttributeKind.USERNAME)
    assert len(table) == 0


def test_build_table_requires_labels():
    with pytest.raises(UnlabeledItem) as exc_info:
        build_table(dataset_of((3, "@x hello", None)), AttributeKind.USERNAME)
    assert exc_info.value.item_id == 3


def test_double_mention_counts_twice_by_default():
    dataset = dataset_of((1, "@who and @who again", "fake"))
    table = build_table(dataset, AttributeKind.USERNAME)
    assert table.entries["who"].fake_count == 2


def test_build_table_permutation_invariant():
    rows = [
        (1, "@a and https://x.com/1", "real"),
        (2, "@a only", "fake"),
        (3, "@b plus https://x.com/2", "fake"),
        (4, "@b @a", "real"),
    ]
    table_fwd = build_table(dataset_of(*rows), AttributeKind.USERNAME)
    table_rev = build_table(dataset_of(*reversed(rows)), AttributeKind.USERNAME)
    assert table_fwd.entries == table_rev.entries


@given(st.integers(0, 500), st.integers(0, 500))
def test_cond_prob_sums_to_one(real_count, fake_count):
    if real_count + fake_count == 0:
        return
    p_real, p_fake = cond_prob(AttrCounts(real_count, fake_count))
    assert abs(p_real + p_fake - 1.0) <= 1e-12


def _random_corpus(seed: int) -> tuple[NewsItem, ...]:
    rng = random.Random(seed)
    handles = ["a", "b", "c", "d"]
    items = []
    for i in range(rng.randrange(1, 40)):
        mentions = " ".join(f"@{rng.choice(handles)}" for _ in range(rng.randrange(0, 4)))
        label = Label.REAL if rng.random() < 0.5 else Label.FAKE
        items.append(NewsItem(i, mentions or "plain", label))
    return tuple(items)


@pytest.mark.parametrize("seed", range(8))
def test_real_count_conservation(seed):
    # Total of real_count over the table equals a brute-force recount of
    # username occurrences within real-labeled items.
    dataset = _random_corpus(seed)
    table = build_table(dataset, AttributeKind.USERNAME)
    expected = sum(
        len(extract_attributes(item.text).usernames)
        for item in dataset
        if item.label is Label.REAL
    )
    assert sum(c.real_count for c in table.entries.values()) == expected
    assert build_tables(dataset) == {kind: build_table(dataset, kind) for kind in AttributeKind}


TABLE_ONE_LIKE = AttributeStatsTable(
    AttributeKind.DOMAIN,
    {
        "news.sky": AttrCounts(274, 0),
        "thespoof.com": AttrCounts(0, 253),
        "theguardian.com": AttrCounts(1, 5),
    },
)


def test_vector_single_known_attribute_equals_cond_prob():
    vector = tweet_attr_vector(["news.sky"], TABLE_ONE_LIKE)
    assert vector == AttrProbVector(1.0, 0.0, 274, True)


def test_vector_averages_across_attributes():
    vector = tweet_attr_vector(["news.sky", "thespoof.com"], TABLE_ONE_LIKE)
    assert vector.p_real == 0.5
    assert vector.p_fake == 0.5
    assert vector.support == 274 + 253
    assert vector.present


def test_vector_unknown_attribute_absent():
    vector = tweet_attr_vector(["never_seen_handle"], TABLE_ONE_LIKE)
    assert not vector.present
    assert vector.support == 0


def test_vector_skips_unknown_keeps_known():
    vector = tweet_attr_vector(["nope", "theguardian.com"], TABLE_ONE_LIKE)
    assert vector.present
    assert round(vector.p_real, 3) == 0.167
    assert vector.support == 6


def test_vector_duplicates_enter_mean_per_occurrence():
    vector = tweet_attr_vector(["news.sky", "news.sky", "thespoof.com"], TABLE_ONE_LIKE)
    assert abs(vector.p_real - 2 / 3) <= 1e-12


def test_table_round_trip(tmp_path):
    path = tmp_path / "table.tsv"
    save_table(TABLE_ONE_LIKE, path, header_comment="config: test")
    loaded = load_table(path, AttributeKind.DOMAIN)
    assert loaded.entries == TABLE_ONE_LIKE.entries
    assert loaded.kind is AttributeKind.DOMAIN
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# config: test\nattribute\treal_count\tfake_count\n")
    # sorted rows: deterministic bytes
    assert text.index("news.sky") < text.index("theguardian.com") < text.index("thespoof.com")
