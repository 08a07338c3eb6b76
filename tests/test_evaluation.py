from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from veracity.attribute_stats import AttrProbVector
from veracity.corpus import Label
from veracity.ensemble import EnsembleResult, VotingScheme
from veracity.errors import LengthMismatch, UnlabeledItem
from veracity.evaluation import (
    DEFAULT_THRESHOLD_GRID,
    ablation_to_json,
    describe_priority,
    evaluate,
    format_ablation_text,
    run_ablation,
    tune_threshold,
)
from veracity.heuristic import DecisionInput, HeuristicConfig, decide_inputs
from veracity.attribute_stats import AttributeKind

R, F = Label.REAL, Label.FAKE


def brute_force_metrics(gold, pred):
    """Independent recount: per-class tallies straight from the pairs."""
    n = len(gold)
    accuracy = sum(1 for g, p in zip(gold, pred) if g is p) / n
    per_class = {}
    for c in (R, F):
        tp = sum(1 for g, p in zip(gold, pred) if g is c and p is c)
        fp = sum(1 for g, p in zip(gold, pred) if g is not c and p is c)
        fn = sum(1 for g, p in zip(gold, pred) if g is c and p is not c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        weight = (tp + fn) / n
        per_class[c] = (precision, recall, f1, weight)
    precision = sum(p * w for p, _, _, w in per_class.values())
    recall = sum(r * w for _, r, _, w in per_class.values())
    f1 = sum(f * w for _, _, f, w in per_class.values())
    return accuracy, precision, recall, f1


def test_perfect_predictions():
    report = evaluate([R, F], [R, F])
    assert (report.accuracy, report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0, 1.0)
    assert report.confusion == ((1, 0), (0, 1))


def test_worked_example():
    report = evaluate([R, R, F, F], [R, F, F, F])
    assert report.accuracy == 0.75
    assert abs(report.f1 - (0.5 * (2 / 3) + 0.5 * (4 / 5))) <= 1e-12
    assert report.confusion == ((1, 1), (0, 2))
    assert report.n_items == 4


def test_single_item_miss():
    report = evaluate([R], [F])
    assert report.accuracy == 0.0
    assert report.f1 == 0.0


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        evaluate([R, F], [R])
    with pytest.raises(LengthMismatch):
        evaluate([], [])
    with pytest.raises(LengthMismatch):
        tune_threshold([])


def test_sweeps_need_every_gold_label():
    inputs = _perfect_attr_context()
    inputs[2] = replace(inputs[2], gold=None)
    with pytest.raises(UnlabeledItem) as exc_info:
        tune_threshold(inputs)
    assert exc_info.value.item_id == 2
    with pytest.raises(UnlabeledItem):
        run_ablation(_perfect_attr_context(), inputs, [(AttributeKind.DOMAIN,)])


LABEL_LISTS = st.lists(st.sampled_from([R, F]), min_size=1, max_size=50)


@given(LABEL_LISTS, st.randoms())
def test_metric_identities(gold, rng):
    pred = [g if rng.random() < 0.7 else g.other() for g in gold]
    report = evaluate(gold, pred)
    accuracy, precision, recall, f1 = brute_force_metrics(gold, pred)
    assert abs(report.accuracy - report.recall) <= 1e-12  # weighted recall == accuracy
    assert abs(report.accuracy - accuracy) <= 1e-12
    assert abs(report.precision - precision) <= 1e-12
    assert abs(report.recall - recall) <= 1e-12
    assert abs(report.f1 - f1) <= 1e-12
    assert sum(report.confusion[0]) + sum(report.confusion[1]) == report.n_items


@given(LABEL_LISTS, st.randoms())
def test_relabeling_symmetry(gold, rng):
    pred = [g if rng.random() < 0.6 else g.other() for g in gold]
    straight = evaluate(gold, pred)
    swapped = evaluate([g.other() for g in gold], [p.other() for p in pred])
    assert abs(straight.accuracy - swapped.accuracy) <= 1e-12
    assert abs(straight.f1 - swapped.f1) <= 1e-12


def _input(item_id, ens_p_real, gold, user=None, domain=None):
    label = R if ens_p_real >= 0.5 else F
    return DecisionInput(
        ensemble=EnsembleResult(
            item_id, ens_p_real, 1.0 - ens_p_real, 0, 0, label, VotingScheme.SOFT
        ),
        username_vec=user if user is not None else AttrProbVector.absent(),
        domain_vec=domain if domain is not None else AttrProbVector.absent(),
        gold=gold,
    )


def _perfect_attr_context():
    """Attribute stats perfectly informative, ensemble wrong on two items."""
    strong_real = AttrProbVector(1.0, 0.0, 20, True)
    strong_fake = AttrProbVector(0.0, 1.0, 20, True)
    return [
        _input(0, 0.2, R, domain=strong_real),  # ensemble wrong, rule can fix
        _input(1, 0.9, F, user=strong_fake),    # ensemble wrong, rule can fix
        _input(2, 0.8, R),                      # ensemble right
        _input(3, 0.1, F),                      # ensemble right
    ]


def test_tune_threshold_prefers_larger_among_optima():
    inputs = _perfect_attr_context()
    assert tune_threshold(inputs, [0.5, 0.88, 1.0]) == 0.88


def test_tune_threshold_single_option():
    inputs = _perfect_attr_context()
    assert tune_threshold(inputs, [1.0]) == 1.0
    assert tune_threshold(inputs, [0.88]) == 0.88


def test_tune_threshold_default_grid():
    inputs = _perfect_attr_context()
    best = tune_threshold(inputs, DEFAULT_THRESHOLD_GRID)
    assert best == 0.95  # all thresholds < 1.0 tie at perfect; largest wins
    with pytest.raises(ValueError):
        tune_threshold(inputs, [])
    with pytest.raises(ValueError, match="threshold must be in"):
        tune_threshold(inputs, [0.5, 1.5])


def test_run_ablation_grid_shape():
    inputs = _perfect_attr_context()
    orderings = [
        (AttributeKind.USERNAME,),
        (AttributeKind.DOMAIN,),
        (AttributeKind.DOMAIN, AttributeKind.USERNAME),
        (AttributeKind.USERNAME, AttributeKind.DOMAIN),
    ]
    rows = run_ablation(inputs, inputs, orderings)
    assert len(rows) == 4
    assert rows[0]["priority"] == "username, ensemble"
    assert rows[3]["priority"] == "username, domain, ensemble"
    for row in rows:
        assert set(row) == {"priority", "with_threshold", "without_threshold"}
        for mode in ("with_threshold", "without_threshold"):
            assert set(row[mode]) == {"validation_f1", "test_f1"}
            assert all(0.0 <= cell <= 1.0 for cell in row[mode].values())
    # both attributes together fix both mistakes; single-attribute rows fix one
    assert rows[3]["with_threshold"]["validation_f1"] == 1.0
    assert rows[0]["with_threshold"]["validation_f1"] < 1.0
    assert rows[1]["with_threshold"]["validation_f1"] < 1.0


def test_run_ablation_empty_orderings():
    inputs = _perfect_attr_context()
    assert run_ablation(inputs, inputs, []) == []


def test_domain_only_signal_favors_domain_rows():
    rng = random.Random(9)
    strong_real = AttrProbVector(1.0, 0.0, 50, True)
    strong_fake = AttrProbVector(0.0, 1.0, 50, True)
    inputs = []
    for i in range(60):
        g = R if rng.random() < 0.5 else F
        wrong = rng.random() < 0.4
        p = (0.2 if g is R else 0.8) if wrong else (0.8 if g is R else 0.2)
        domain = strong_real if g is R else strong_fake
        inputs.append(_input(i, p, g, domain=domain))  # no username signal anywhere
    rows = run_ablation(inputs, inputs, [(AttributeKind.USERNAME,), (AttributeKind.DOMAIN,)])
    username_row, domain_row = rows
    for split in ("validation_f1", "test_f1"):
        assert domain_row["with_threshold"][split] > username_row["with_threshold"][split]


def test_ablation_rendering():
    def row(priority, with_val, with_test, without_val, without_test):
        return {
            "priority": priority,
            "with_threshold": {"validation_f1": with_val, "test_f1": with_test},
            "without_threshold": {"validation_f1": without_val, "test_f1": without_test},
        }

    rows = [
        row("domain, ensemble", 0.9917, 0.9878, 0.9635, 0.9523),
        row("username, domain, ensemble", 0.9906, 0.9883, 0.9645, 0.9528),
    ]
    text = format_ablation_text(rows)
    assert "domain, ensemble" in text and "0.9883" in text
    assert format_ablation_text([]) == "(no ablation rows)\n"
    payload = ablation_to_json(rows, {"threshold": 0.88})
    assert '"threshold": 0.88' in payload
    assert describe_priority((AttributeKind.DOMAIN,)) == "domain, ensemble"


# Probabilities on the grids, on the threshold (22/25 == 0.88) and at an
# exact tie (0.5), besides arbitrary ones.
_PROBS = st.one_of(
    st.sampled_from([k / 25 for k in range(26)] + [k / 20 for k in range(21)]),
    st.floats(0.0, 1.0),
)
_VECTORS = st.one_of(
    st.just(AttrProbVector.absent()),
    _PROBS.map(lambda p: AttrProbVector(p, p, 3, True)),
    _PROBS.map(lambda p: AttrProbVector(p, 1.0 - p, 3, True)),
)
_SPLITS = st.lists(
    st.tuples(_PROBS, _VECTORS, _VECTORS, st.sampled_from([R, F])), min_size=1, max_size=30
).map(
    lambda rows: [_input(i, p, g, user, domain) for i, (p, user, domain, g) in enumerate(rows)]
)
_GRID_VALUES = st.one_of(
    st.sampled_from(DEFAULT_THRESHOLD_GRID + (0.0, 22 / 25, 0.88, 1.0)), st.floats(0.0, 1.0)
)


def _brute_force_report(inputs, cfg):
    gold = [entry.gold for entry in inputs]
    return evaluate(gold, [d.label for d in decide_inputs(inputs, cfg)])


@settings(max_examples=200, deadline=None)
@given(
    val=_SPLITS,
    test=_SPLITS,
    priority=st.lists(st.sampled_from(list(AttributeKind)), unique=True, max_size=2),
    grid=st.lists(_GRID_VALUES, min_size=1, max_size=8),
)
def test_sweep_matches_deciding_every_threshold(val, test, priority, grid):
    """Tuning and the ablation grid score exactly what deciding each item
    at each threshold and evaluating the labels scores."""
    cfg = HeuristicConfig(priority=tuple(priority))
    scores = {
        t: _brute_force_report(val, replace(cfg, threshold=t)).accuracy
        for t in grid
    }
    expected = max(grid, key=lambda t: (scores[t], t))  # ties go to the larger threshold
    assert tune_threshold(val, grid, cfg) == expected

    (row,) = run_ablation(val, test, [priority], expected)
    for use, split_inputs, cell in (
        (True, val, row["with_threshold"]["validation_f1"]),
        (True, test, row["with_threshold"]["test_f1"]),
        (False, val, row["without_threshold"]["validation_f1"]),
        (False, test, row["without_threshold"]["test_f1"]),
    ):
        cell_cfg = HeuristicConfig(expected if use else 0.0, tuple(priority))
        assert cell == _brute_force_report(split_inputs, cell_cfg).f1
