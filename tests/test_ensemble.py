from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from veracity.baseline import PredictionVector
from veracity.corpus import Label
from veracity.ensemble import (
    PredictionMatrix,
    VotingScheme,
    hard_vote,
    load_predictions,
    matrix_from_vectors,
    soft_vote,
    vote_all,
    write_ensemble_tsv,
)
from veracity.errors import (
    BadProbabilities,
    BadRecord,
    DuplicateId,
    IdSetMismatch,
    NoModels,
)


def pv(p_real, item_id=0, name="m"):
    return PredictionVector(item_id, p_real, 1.0 - p_real, name)


def test_soft_vote_mean():
    result = soft_vote([pv(0.6), pv(0.8)])
    assert abs(result.p_real - 0.7) <= 1e-12
    assert result.label is Label.REAL
    assert result.scheme is VotingScheme.SOFT


def test_soft_vote_exact_tie_goes_real():
    assert soft_vote([pv(0.5)]).label is Label.REAL


def test_soft_vote_tie_label_configurable():
    assert soft_vote([pv(0.5)], tie_label=Label.FAKE).label is Label.FAKE


def test_soft_vote_three_models():
    result = soft_vote([pv(0.9), pv(0.2), pv(0.2)])
    assert abs(result.p_real - (0.9 + 0.2 + 0.2) / 3) <= 1e-12
    assert result.label is Label.FAKE


def test_hard_vote_majority():
    result = hard_vote([pv(0.6), pv(0.4), pv(0.7)])
    assert (result.votes_real, result.votes_fake) == (2, 1)
    assert result.label is Label.REAL


def test_hard_vote_per_model_tie_votes_real():
    result = hard_vote([pv(0.5)])
    assert result.votes_real == 1
    assert result.label is Label.REAL


def test_hard_vote_overall_tie_goes_real():
    result = hard_vote([pv(0.9), pv(0.4)])
    assert (result.votes_real, result.votes_fake) == (1, 1)
    assert result.label is Label.REAL


def test_empty_row_rejected():
    with pytest.raises(NoModels):
        soft_vote([])
    with pytest.raises(NoModels):
        hard_vote([])


def test_mixed_item_ids_rejected():
    with pytest.raises(ValueError):
        soft_vote([pv(0.5, item_id=1), pv(0.5, item_id=2)])


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6), st.randoms())
def test_votes_sum_to_model_count_and_permutation_invariance(p_reals, rng):
    row = [pv(p) for p in p_reals]
    shuffled = list(row)
    rng.shuffle(shuffled)
    for scheme_vote in (soft_vote, hard_vote):
        first = scheme_vote(row)
        second = scheme_vote(shuffled)
        assert first.votes_real + first.votes_fake == len(row)
        assert first.label is second.label
        assert abs(first.p_real - second.p_real) <= 1e-9
        assert (first.votes_real, first.votes_fake) == (second.votes_real, second.votes_fake)


@given(st.floats(0.0, 1.0), st.integers(1, 5))
def test_soft_vote_idempotent_on_identical_vectors(p_real, n):
    result = soft_vote([pv(p_real)] * n)
    assert abs(result.p_real - p_real) <= 1e-9
    assert abs(result.p_fake - (1.0 - p_real)) <= 1e-9


@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    st.integers(0, 4),
    st.floats(0.0, 1.0),
)
def test_soft_label_monotone_in_any_single_model(p_reals, index, bumped):
    row = [pv(p) for p in p_reals]
    index %= len(row)
    before = soft_vote(row)
    if bumped < p_reals[index]:
        return
    row[index] = pv(bumped)
    after = soft_vote(row)
    if before.label is Label.REAL:
        assert after.label is Label.REAL


def test_hard_equals_soft_when_all_models_agree():
    grid = [k / 10 for k in range(11)]
    for n in (1, 2, 3):
        for combo in itertools.product(grid, repeat=n):
            argmaxes = {p >= 0.5 for p in combo}
            if len(argmaxes) != 1 or any(p == 0.5 for p in combo):
                continue
            row = [pv(p) for p in combo]
            assert hard_vote(row).label is soft_vote(row).label


def _write_predictions(path, rows, header="id\tp_real\tp_fake"):
    lines = [header] + [f"{i}\t{r}\t{f}" for i, r, f in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_predictions_two_files(tmp_path):
    a, b = tmp_path / "model_a.tsv", tmp_path / "model_b.tsv"
    _write_predictions(a, [(1, 0.6, 0.4), (2, 0.3, 0.7)])
    _write_predictions(b, [(2, 0.2, 0.8), (1, 0.9, 0.1)])
    matrix = load_predictions([a, b])
    assert matrix.model_names == ("model_a", "model_b")
    assert matrix.ids() == (1, 2)
    assert matrix.rows[1][1].p_real == 0.9
    results = vote_all(matrix, VotingScheme.SOFT)
    assert [r.item_id for r in results] == [1, 2]
    assert abs(results[0].p_real - 0.75) <= 1e-12


def test_load_predictions_id_mismatch(tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    _write_predictions(a, [(1, 0.6, 0.4), (2, 0.3, 0.7)])
    _write_predictions(b, [(1, 0.6, 0.4), (3, 0.3, 0.7)])
    with pytest.raises(IdSetMismatch) as exc_info:
        load_predictions([a, b])
    assert "a.tsv" in str(exc_info.value) and "b.tsv" in str(exc_info.value)


def test_load_predictions_renormalizes_within_window(tmp_path):
    path = tmp_path / "m.tsv"
    _write_predictions(path, [(1, 0.7, 0.31), (2, 0.495, 0.495)])
    matrix = load_predictions([path])
    vector = matrix.rows[1][0]
    assert abs(vector.p_real + vector.p_fake - 1.0) <= 1e-12
    assert abs(vector.p_real - 0.7 / 1.01) <= 1e-12
    assert matrix.rows[2][0].p_real == 0.5


def test_load_predictions_rejects_bad_sums_and_negatives(tmp_path):
    path = tmp_path / "m.tsv"
    _write_predictions(path, [(1, 0.7, 0.2)])
    with pytest.raises(BadProbabilities):
        load_predictions([path])
    _write_predictions(path, [(1, 1.2, -0.2)])
    with pytest.raises(BadProbabilities):
        load_predictions([path])


def test_load_predictions_window_boundaries_inclusive(tmp_path):
    path = tmp_path / "m.tsv"
    _write_predictions(path, [(1, 0.99, 0.0), (2, 1.01, 0.0)])
    matrix = load_predictions([path])
    assert matrix.rows[1][0].p_real == 1.0
    assert matrix.rows[2][0].p_real == 1.0


def test_load_predictions_duplicate_id(tmp_path):
    path = tmp_path / "m.tsv"
    _write_predictions(path, [(1, 0.6, 0.4), (1, 0.6, 0.4)])
    with pytest.raises(DuplicateId):
        load_predictions([path])


def test_load_predictions_header_required(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("1\t0.6\t0.4\n", encoding="utf-8")
    with pytest.raises(BadRecord):
        load_predictions([path])


def test_load_predictions_skips_comments(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("# config: abc\nid\tp_real\tp_fake\n1\t0.6\t0.4\n", encoding="utf-8")
    assert load_predictions([path]).ids() == (1,)


def test_load_predictions_explicit_names(tmp_path):
    path = tmp_path / "whatever.tsv"
    _write_predictions(path, [(1, 0.6, 0.4)])
    matrix = load_predictions([path], ["fancy"])
    assert matrix.model_names == ("fancy",)
    assert matrix.rows[1][0].model_name == "fancy"


def test_matrix_from_vectors_alignment():
    vectors_a = [pv(0.6, item_id=1, name="a"), pv(0.2, item_id=2, name="a")]
    vectors_b = [pv(0.8, item_id=2, name="b"), pv(0.4, item_id=1, name="b")]
    matrix = matrix_from_vectors({"a": vectors_a, "b": vectors_b})
    assert matrix.rows[2][0].p_real == 0.2
    assert matrix.rows[2][1].p_real == 0.8
    with pytest.raises(IdSetMismatch):
        matrix_from_vectors({"a": vectors_a, "b": vectors_b[:1]})


def test_same_stem_in_two_directories_gives_two_columns(tmp_path):
    (tmp_path / "x").mkdir()
    (tmp_path / "y").mkdir()
    a, b = tmp_path / "x" / "model.tsv", tmp_path / "y" / "model.tsv"
    _write_predictions(a, [(1, 0.6, 0.4), (2, 0.3, 0.7)])
    _write_predictions(b, [(2, 0.2, 0.8), (1, 0.9, 0.1)])
    matrix = load_predictions([a, b])
    assert matrix.model_names == ("model", "model")
    assert [vector.p_real for vector in matrix.rows[1]] == [0.6, 0.9]
    assert [vector.p_real for vector in matrix.rows[2]] == [0.3, 0.2]


def test_matrix_from_vectors_mismatch_names_ids():
    vectors_a = [pv(0.5, item_id=i, name="a") for i in (1, 2, 3, 4)]
    vectors_b = [pv(0.5, item_id=i, name="b") for i in (3, 4, 7, 8)]
    with pytest.raises(IdSetMismatch) as exc_info:
        matrix_from_vectors({"a": vectors_a, "b": vectors_b})
    message = str(exc_info.value)
    assert "'a'" in message and "'b'" in message
    assert "missing e.g. [1, 2]" in message and "unexpected e.g. [7, 8]" in message


def test_matrix_row_width_validated():
    with pytest.raises(IdSetMismatch):
        PredictionMatrix(("a", "b"), {1: (pv(0.5, item_id=1),)})


def test_ensemble_tsv_round_trips_through_loader(tmp_path):
    results = vote_all(
        matrix_from_vectors({"m": [pv(0.61, item_id=3), pv(0.25, item_id=1)]})
    )
    out = tmp_path / "ens.tsv"
    write_ensemble_tsv(results, out, header_comment="config: xyz")
    text = out.read_text(encoding="utf-8").splitlines()
    assert text[0] == "# config: xyz"
    assert text[1] == "id\tp_real\tp_fake\tlabel"
    assert text[2].startswith("1\t") and text[3].startswith("3\t")
    assert text[2].endswith("fake") and text[3].endswith("real")


@pytest.mark.parametrize("seed", range(4))
def test_vote_all_sorted_by_id(seed):
    rng = random.Random(seed)
    ids = rng.sample(range(100), 10)
    matrix = matrix_from_vectors({"m": [pv(rng.random(), item_id=i) for i in ids]})
    results = vote_all(matrix, VotingScheme.HARD)
    assert [r.item_id for r in results] == sorted(ids)
