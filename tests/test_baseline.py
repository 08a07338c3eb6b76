from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import dataset_of
from veracity import baseline
from veracity.baseline import (
    count_text,
    load_model,
    predict,
    predict_dataset,
    save_model,
    tokenize,
    train,
    write_predictions,
)
from veracity.corpus import LABELS, Label, NewsItem
from veracity.errors import DegenerateTraining
from veracity.preprocess import CleanPolicy, clean_text


def posterior_oracle(corpus, text, alpha=1):
    """Direct enumeration of the smoothed-count formula, in exact
    arithmetic. corpus: list of (token-list, Label)."""
    classes = [Label.REAL, Label.FAKE]
    alpha = Fraction(alpha)
    vocabulary = sorted({t for tokens, _ in corpus for t in tokens})
    doc_counts = {c: sum(1 for _, label in corpus if label is c) for c in classes}
    total_docs = sum(doc_counts.values())
    weights = {}
    for c in classes:
        token_counts = {}
        for tokens, label in corpus:
            if label is c:
                for t in tokens:
                    token_counts[t] = token_counts.get(t, 0) + 1
        denominator = sum(token_counts.values()) + alpha * len(vocabulary)
        weight = Fraction(doc_counts[c], total_docs)
        for t in text:
            if t in vocabulary:
                weight *= (token_counts.get(t, 0) + alpha) / denominator
        weights[c] = weight
    z = weights[Label.REAL] + weights[Label.FAKE]
    return weights[Label.REAL] / z, weights[Label.FAKE] / z


TWO_ITEM = dataset_of((1, "good vaccine", "real"), (2, "hoax cure", "fake"))


def test_two_item_posterior_matches_hand_computation():
    model = train(TWO_ITEM, alpha=1.0)
    vector = predict(model, "good vaccine")
    expected_real, _ = posterior_oracle(
        [(["good", "vaccine"], Label.REAL), (["hoax", "cure"], Label.FAKE)],
        ["good", "vaccine"],
    )
    assert expected_real == Fraction(4, 5)  # verified by hand
    assert abs(vector.p_real - 0.8) <= 1e-12
    assert vector.p_real > 0.5


def test_training_sentences_favor_their_own_class():
    model = train(TWO_ITEM)
    assert predict(model, "good vaccine").p_real > 0.5
    assert predict(model, "hoax cure").p_fake > 0.5


def test_empty_dataset_degenerate():
    with pytest.raises(DegenerateTraining):
        train(())


def test_single_class_degenerate():
    with pytest.raises(DegenerateTraining):
        train(dataset_of((1, "a", "real"), (2, "b", "real")))


def test_empty_string_returns_priors():
    dataset = dataset_of((1, "x", "real"), (2, "y", "real"), (3, "z", "fake"))
    model = train(dataset)
    vector = predict(model, "")
    assert abs(vector.p_real - 2 / 3) <= 1e-12


def test_oov_only_text_returns_priors():
    dataset = dataset_of((1, "x", "real"), (2, "y", "real"), (3, "z", "fake"))
    model = train(dataset)
    vector = predict(model, "completely unseen words")
    assert abs(vector.p_real - 2 / 3) <= 1e-12


def test_posterior_invariant_to_token_order():
    model = train(TWO_ITEM)
    forward = predict(model, "good vaccine hoax")
    backward = predict(model, "hoax vaccine good")
    assert forward.p_real == backward.p_real


@given(st.text(max_size=30))
def test_prediction_normalized(text):
    model = train(TWO_ITEM)
    vector = predict(model, text)
    assert abs(vector.p_real + vector.p_fake - 1.0) <= 1e-9
    assert 0.0 <= vector.p_real <= 1.0


def test_likelihoods_normalize_over_vocabulary():
    import math

    model = train(TWO_ITEM)
    for likelihoods in zip(*model.pairs.values()):  # one column per class
        total = sum(math.exp(v) for v in likelihoods)
        assert abs(total - 1.0) <= 1e-9


WORDS = ["up", "down", "left", "right", "mid"]


@pytest.mark.parametrize("seed", range(12))
def test_brute_force_oracle_small_corpora(seed):
    # vocabulary <= 5, corpus <= 6 items: enumeration of the smoothed
    # count formula must match the log-space implementation to 1e-9.
    rng = random.Random(seed)
    corpus = []
    n_items = rng.randrange(2, 7)
    for i in range(n_items):
        label = Label.REAL if i == 0 else Label.FAKE if i == 1 else (
            Label.REAL if rng.random() < 0.5 else Label.FAKE
        )
        tokens = [rng.choice(WORDS) for _ in range(rng.randrange(1, 5))]
        corpus.append((tokens, label))
    dataset = tuple(NewsItem(i, " ".join(t), label) for i, (t, label) in enumerate(corpus))
    alpha = rng.choice([0.5, 1.0, 2.0])
    model = train(dataset, alpha=alpha)
    for _ in range(5):
        query = [rng.choice(WORDS) for _ in range(rng.randrange(0, 6))]
        expected_real, expected_fake = posterior_oracle(corpus, query, alpha)
        got = predict(model, " ".join(query))
        assert abs(got.p_real - float(expected_real)) <= 1e-9
        assert abs(got.p_fake - float(expected_fake)) <= 1e-9


def test_duplicated_corpus_identical_posteriors_with_scaled_alpha():
    # Doubling every item doubles every count; the smoothed ratios are
    # unchanged exactly when alpha doubles with them.
    doubled = dataset_of(
        (1, "good vaccine", "real"), (2, "hoax cure", "fake"),
        (3, "good vaccine", "real"), (4, "hoax cure", "fake"),
    )
    base_model = train(TWO_ITEM, alpha=1.0)
    doubled_model = train(doubled, alpha=2.0)
    for text in ("good vaccine", "hoax", "good cure", ""):
        assert abs(predict(base_model, text).p_real
                   - predict(doubled_model, text).p_real) <= 1e-12


def test_duplicated_corpus_fixed_alpha_keeps_labels():
    # With alpha held fixed the smoothing weight halves relative to the
    # counts, so posteriors sharpen; the argmax labels stay put.
    doubled = dataset_of(
        (1, "good vaccine", "real"), (2, "hoax cure", "fake"),
        (3, "good vaccine", "real"), (4, "hoax cure", "fake"),
    )
    base_model = train(TWO_ITEM, alpha=1.0)
    doubled_model = train(doubled, alpha=1.0)
    for text in ("good vaccine", "hoax cure", "good", "cure"):
        base = predict(base_model, text)
        second = predict(doubled_model, text)
        assert (base.p_real > base.p_fake) == (second.p_real > second.p_fake)


def test_save_load_round_trip(tmp_path):
    dataset = dataset_of(
        (1, "good vaccine news", "real"),
        (2, "hoax cure exposed", "fake"),
        (3, "vaccine update", "real"),
    )
    model = train(dataset, alpha=0.7, model_name="bow-test")
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.model_name == "bow-test"
    assert loaded.smoothing_alpha == 0.7
    for text in ("vaccine", "hoax exposed", "nothing known"):
        assert predict(loaded, text) == predict(model, text, item_id=-1)


def test_predict_dataset_carries_item_ids():
    model = train(TWO_ITEM)
    vectors = predict_dataset(model, TWO_ITEM)
    assert [v.item_id for v in vectors] == [1, 2]
    assert all(v.model_name == model.model_name for v in vectors)


def test_cleaning_policy_applied_before_tokenizing():
    # Mentions and URLs never reach the vocabulary under the default policy.
    dataset = dataset_of(
        (1, "good @handle https://x.com/a", "real"), (2, "bad stuff", "fake")
    )
    model = train(dataset)
    assert "handle" not in model.vocabulary
    assert "x" not in model.vocabulary
    assert tokenize(clean_text("good @handle", CleanPolicy())) == ["good"]


# --------------------------------------------------------------------------
# Bit identity: the model as first written, with one token -> likelihood
# dict per class and a vocabulary set, scored class by class. One paired
# lookup per token must reproduce its floats exactly, not approximately.
# --------------------------------------------------------------------------

def oracle_fit(dataset, policy, alpha):
    class_doc_counts = {c: 0 for c in LABELS}
    token_counts = {c: {} for c in LABELS}
    for item in dataset:
        class_doc_counts[item.label] += 1
        bucket = token_counts[item.label]
        for token in tokenize(clean_text(item.text, policy)):
            bucket[token] = bucket.get(token, 0) + 1
    total_docs = sum(class_doc_counts.values())
    vocabulary = frozenset(token for c in LABELS for token in token_counts[c])
    log_priors = {c: math.log(class_doc_counts[c] / total_docs) for c in LABELS}
    likelihoods = {}
    for c in LABELS:
        counts = token_counts[c]
        denominator = sum(counts.values()) + alpha * len(vocabulary)
        likelihoods[c] = {
            token: math.log((counts.get(token, 0) + alpha) / denominator) for token in vocabulary
        }
    return class_doc_counts, token_counts, vocabulary, log_priors, likelihoods


def oracle_predict(fit, policy, text):
    _, _, vocabulary, log_priors, likelihoods = fit
    tokens = [t for t in tokenize(clean_text(text, policy)) if t in vocabulary]
    log_scores = {}
    for c in LABELS:
        score = log_priors[c]
        for token in tokens:
            score += likelihoods[c][token]
        log_scores[c] = score
    peak = max(log_scores.values())
    unnormalized = {c: math.exp(score - peak) for c, score in log_scores.items()}
    z = sum(unnormalized.values())
    return unnormalized[Label.REAL] / z, unnormalized[Label.FAKE] / z


def oracle_model_text(fit, policy, alpha, model_name):
    class_doc_counts, token_counts = fit[:2]
    document = {
        "model_name": model_name,
        "smoothing_alpha": alpha,
        "clean_policy": {
            "remove_urls": policy.remove_urls,
            "remove_mentions": policy.remove_mentions,
            "remove_emoji": policy.remove_emoji,
            "remove_hashmark_only": policy.remove_hashmark_only,
        },
        "class_doc_counts": {c.value: class_doc_counts[c] for c in LABELS},
        "token_counts": {c.value: dict(sorted(token_counts[c].items())) for c in LABELS},
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


BIT_WORDS = ["up", "Down", "left", "right", "mid", "@user", "#tag", "https://x.com/a", "\U0001F600", "é"]
BIT_TEXTS = st.lists(st.sampled_from(BIT_WORDS), max_size=12).map(" ".join)
BIT_CORPORA = st.lists(st.tuples(BIT_TEXTS, st.sampled_from(LABELS)), max_size=12).map(
    # both classes always present, as training requires
    lambda rows: [("seed real", Label.REAL), ("seed fake", Label.FAKE)] + rows
)
CLEAN_POLICIES = st.sampled_from(
    [CleanPolicy(*flags) for flags in itertools.product((False, True), repeat=4)]
)


@settings(max_examples=200, deadline=None)
@given(
    BIT_CORPORA, CLEAN_POLICIES, st.sampled_from([0.01, 0.5, 1.0, 2.0, 3.7]),
    st.lists(st.one_of(BIT_TEXTS, st.text(max_size=20)), max_size=6),
)
def test_paired_scoring_is_bit_identical(tmp_path_factory, rows, policy, alpha, queries):
    dataset = tuple(NewsItem(i, text, label) for i, (text, label) in enumerate(rows))
    model = train(dataset, policy, alpha)
    fit = oracle_fit(dataset, policy, alpha)
    assert model.token_counts == fit[1]
    assert model.vocabulary == fit[2]
    assert model.pairs == {token: tuple(fit[4][c][token] for c in LABELS) for token in fit[2]}
    for text in queries:
        got = predict(model, text)
        assert (got.p_real, got.p_fake) == oracle_predict(fit, policy, text)
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    assert path.read_text(encoding="utf-8") == oracle_model_text(fit, policy, alpha, model.model_name)


#: 11 posts, not a multiple of the chunk size 4 the examples use.
SHARED_ROWS = [("seed real", Label.REAL), ("seed fake", Label.FAKE)] + [
    (f"{BIT_WORDS[i % len(BIT_WORDS)]} {BIT_WORDS[i * 7 % len(BIT_WORDS)]}", LABELS[i % 3 % 2])
    for i in range(9)
]


@settings(max_examples=100, deadline=None)
@given(BIT_CORPORA, CLEAN_POLICIES, st.integers(1, 4), st.lists(st.booleans(), min_size=1, max_size=6))
@example(rows=SHARED_ROWS, policy=CleanPolicy(), chunk=4, sides=[True])  # every chunk on this side
@example(rows=SHARED_ROWS, policy=CleanPolicy(), chunk=4, sides=[False])  # every chunk on the other
@example(rows=SHARED_ROWS, policy=CleanPolicy(), chunk=4, sides=[False, True])
def test_sharing_the_text_work_does_not_change_the_model(tmp_path_factory, rows, policy, chunk, sides):
    """However the chunks are shared between two counting sides, the
    merged model writes the bytes of one trained alone. Chunk k is this
    side's when sides[k % len(sides)] is true, the other's otherwise."""
    dataset = tuple(NewsItem(i, text, label) for i, (text, label) in enumerate(rows))
    other: dict[Label, Counter] = {c: Counter() for c in LABELS}
    with mock.patch.object(baseline, "CHUNK_POSTS", chunk):
        for _ in count_text(dataset, policy, other, lambda k: not sides[k % len(sides)]):
            pass
        shared = train(dataset, policy, claim=lambda k: sides[k % len(sides)], rest=lambda: other)
    out = tmp_path_factory.mktemp("shared")
    written = []
    for name, model in (("alone", train(dataset, policy)), ("shared", shared)):
        save_model(model, out / f"{name}.json")
        write_predictions(predict_dataset(model, dataset), out / f"{name}.tsv", "config: x")
        written.append([(out / f"{name}{suffix}").read_bytes() for suffix in (".json", ".tsv")])
    assert written[1] == written[0]
