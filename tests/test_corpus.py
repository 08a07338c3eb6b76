from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conftest import dataset_of, write_dataset_tsv
from veracity.corpus import Label, NewsItem, load_dataset, sniff_has_labels, summarize
from veracity.errors import BadLabel, BadRecord, DuplicateId, EmptyText
from veracity.preprocess import UrlExpansionCache


def test_load_two_rows(tiny_labeled):
    dataset = load_dataset(tiny_labeled, has_labels=True)
    assert len(dataset) == 2
    assert [item.label for item in dataset] == [Label.REAL, Label.FAKE]
    assert [item.id for item in dataset] == [1, 2]


def test_byte_order_mark_is_skipped(tmp_path):
    path = tmp_path / "excel.tsv"
    path.write_text("\ufeffid\ttweet\tlabel\n1\thello\treal\n", encoding="utf-8")
    assert sniff_has_labels(path)
    dataset = load_dataset(path, has_labels=True)
    assert [item.id for item in dataset] == [1]
    assert dataset[0].label is Label.REAL


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "dup.tsv"
    write_dataset_tsv(path, [(1, "a", "real"), (1, "b", "fake")])
    with pytest.raises(DuplicateId) as exc_info:
        load_dataset(path, has_labels=True)
    assert exc_info.value.item_id == 1


def test_bad_label_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    write_dataset_tsv(path, [(1, "a", "maybe")])
    with pytest.raises(BadLabel):
        load_dataset(path, has_labels=True)


def test_labels_parse_case_insensitively(tmp_path):
    path = tmp_path / "case.tsv"
    write_dataset_tsv(path, [(1, "a", "REAL"), (2, "b", "Fake")])
    dataset = load_dataset(path, has_labels=True)
    assert [item.label for item in dataset] == [Label.REAL, Label.FAKE]


def test_empty_text_reports_id(tmp_path):
    path = tmp_path / "empty.tsv"
    write_dataset_tsv(path, [(1, "ok", "real"), (7, "   ", "fake")])
    with pytest.raises(EmptyText) as exc_info:
        load_dataset(path, has_labels=True)
    assert exc_info.value.item_id == 7


def test_unlabeled_file_shape(tmp_path):
    path = tmp_path / "unlabeled.tsv"
    write_dataset_tsv(path, [(3, "x"), (4, "y")], labeled=False)
    assert sniff_has_labels(path) is False
    dataset = load_dataset(path, has_labels=False)
    assert all(item.label is None for item in dataset)


def test_header_mismatch_rejected(tmp_path):
    path = tmp_path / "h.tsv"
    path.write_text("id\tbody\tlabel\n1\ta\treal\n", encoding="utf-8")
    with pytest.raises(BadRecord):
        load_dataset(path, has_labels=True)


def test_negative_or_non_integer_id_rejected(tmp_path):
    path = tmp_path / "neg.tsv"
    write_dataset_tsv(path, [(-1, "a", "real")])
    with pytest.raises(BadRecord):
        load_dataset(path, has_labels=True)
    path2 = tmp_path / "alpha.tsv"
    write_dataset_tsv(path2, [("x1", "a", "real")])
    with pytest.raises(BadRecord):
        load_dataset(path2, has_labels=True)


def test_csv_variant(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('id,tweet,label\n1,"hello, there",real\n', encoding="utf-8")
    dataset = load_dataset(path, has_labels=True)
    assert dataset[0].text == "hello, there"


def test_order_preserved(tmp_path):
    path = tmp_path / "order.tsv"
    write_dataset_tsv(path, [(5, "e", "real"), (2, "b", "fake"), (9, "j", "real")])
    dataset = load_dataset(path, has_labels=True)
    assert [item.id for item in dataset] == [5, 2, 9]


def test_quoted_fields_load_as_written(tmp_path):
    original = dataset_of(
        (1, "plain text", "real"),
        (2, "tab\there and, comma", "fake"),
        (3, "line\nbreak", "real"),
        (4, "quote \" inside", "fake"),
    )
    path = tmp_path / "round.tsv"
    write_dataset_tsv(path, original)
    loaded = load_dataset(path, has_labels=True)
    assert [(i.id, i.text, i.label) for i in loaded] == [
        (i.id, i.text, i.label) for i in original
    ]


def test_nfc_normalization_applied(tmp_path):
    # e + combining acute composes to a single code point at load.
    decomposed = "café"
    path = tmp_path / "nfc.tsv"
    write_dataset_tsv(path, [(1, decomposed, "real")])
    dataset = load_dataset(path, has_labels=True)
    assert dataset[0].text == "café"


def test_summarize_trivial():
    summary = summarize(dataset_of((1, "yes", "real"), (2, "no", "fake")))
    assert summary.item_count == 2
    assert summary.real_fraction == 0.5
    assert summary.fake_fraction == 0.5
    assert summary.unique_usernames == 0
    assert summary.unique_domains == 0


def test_summarize_distinct_attributes():
    cache = UrlExpansionCache({"http://x.com/y": "http://x.com/y"})
    dataset = dataset_of(
        (1, "@a sees http://x.com/y", "real"),
        (2, "@a again http://x.com/y", "fake"),
        (3, "@a more http://x.com/y", "real"),
    )
    summary = summarize(dataset, cache)
    assert summary.item_count == 3
    assert summary.unique_usernames == 1
    assert summary.unique_domains == 1


def test_summarize_unlabeled_fractions_absent():
    summary = summarize(dataset_of((1, "a", None), (2, "b", "real")))
    assert summary.real_fraction is None
    assert summary.fake_fraction is None


@given(st.lists(st.sampled_from([Label.REAL, Label.FAKE]), min_size=1, max_size=60))
def test_fractions_sum_to_one(labels):
    dataset = tuple(NewsItem(i, "t", label) for i, label in enumerate(labels))
    summary = summarize(dataset)
    assert abs(summary.real_fraction + summary.fake_fraction - 1.0) <= 1e-12
