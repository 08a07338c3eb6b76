"""Classification metrics, threshold tuning and the ablation grid.

Precision, recall and F1 are computed per class and then averaged with
weights proportional to gold class support ("weighted" averaging). That
scheme makes accuracy equal weighted recall by construction, which is
why near-balanced binary result tables often show all four headline
numbers agreeing to several decimals.

Threshold tuning and the ablation grid do not re-decide items per
threshold: each item's label is a step function of the threshold, so
one sweep over a split gives the confusion matrix at every threshold
of a grid, exactly, and each is scored by the arithmetic evaluate()
uses.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Sequence

from .corpus import Label, LABELS
from .errors import LengthMismatch, UnlabeledItem
from .heuristic import DEFAULT_THRESHOLD, DecisionInput, HeuristicConfig, reachable_rules

#: Default threshold sweep for tuning on validation data.
DEFAULT_THRESHOLD_GRID = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


@dataclass(frozen=True)
class EvalReport:
    """Headline metrics plus the 2x2 confusion matrix (rows = gold,
    columns = predicted, class order real/fake)."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: tuple[tuple[int, int], tuple[int, int]]
    n_items: int

    def format_text(self, title: str = "") -> str:
        head = f"{title}\n" if title else ""
        (rr, rf), (fr, ff) = self.confusion
        return (
            f"{head}"
            f"  accuracy  {self.accuracy:.4f}\n"
            f"  precision {self.precision:.4f}\n"
            f"  recall    {self.recall:.4f}\n"
            f"  f1        {self.f1:.4f}\n"
            f"  confusion [gold real: {rr} -> real, {rf} -> fake]"
            f" [gold fake: {fr} -> real, {ff} -> fake]\n"
        )


def confusion_matrix(
    gold: Sequence[Label], pred: Sequence[Label]
) -> tuple[tuple[int, int], tuple[int, int]]:
    counts = [[0, 0], [0, 0]]
    index = {Label.REAL: 0, Label.FAKE: 1}
    for g, p in zip(gold, pred):
        counts[index[g]][index[p]] += 1
    return (counts[0][0], counts[0][1]), (counts[1][0], counts[1][1])


def evaluate(gold: Sequence[Label], pred: Sequence[Label]) -> EvalReport:
    """Score predictions against gold labels, with support-weighted
    per-class metrics. Raises LengthMismatch on unequal or empty inputs.
    """
    if len(gold) != len(pred) or len(gold) == 0:
        raise LengthMismatch(len(gold), len(pred))
    return _report_from_confusion(confusion_matrix(gold, pred))


def _report_from_confusion(confusion: tuple[tuple[int, int], tuple[int, int]]) -> EvalReport:
    n = sum(confusion[0]) + sum(confusion[1])
    accuracy = (confusion[0][0] + confusion[1][1]) / n

    per_class: dict[Label, tuple[float, float, float, int]] = {}
    for class_index, label in enumerate(LABELS):
        tp = confusion[class_index][class_index]
        support = sum(confusion[class_index])
        predicted = sum(confusion[row][class_index] for row in range(2))
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[label] = (precision, recall, f1, support)

    weights = {label: per_class[label][3] / n for label in LABELS}
    precision = sum(per_class[label][0] * weights[label] for label in LABELS)
    recall = sum(per_class[label][1] * weights[label] for label in LABELS)
    f1 = sum(per_class[label][2] * weights[label] for label in LABELS)
    return EvalReport(accuracy, precision, recall, f1, confusion, n)


def _sweep(
    inputs: Sequence[DecisionInput],
    cfgs: Sequence[HeuristicConfig],
) -> list[EvalReport]:
    """evaluate(each input's gold, decide_inputs(inputs, cfg) labels) for
    each cfg, from one pass over the inputs, which must all be labeled.
    The cfgs share a priority order.

    Each rule from reachable_rules decides the thresholds t with
    w_before <= t < w, w_before being the previous rule's w, so each
    item adds one to its gold x predicted cell over a run of the sorted
    thresholds; a difference array per cell and prefix sums count them.
    """
    if not inputs:
        raise LengthMismatch(0, 0)
    priority = cfgs[0].priority
    points = sorted({cfg.threshold for cfg in cfgs})
    diffs = [[0] * (len(points) + 1) for _ in range(4)]  # gold x predicted, real first
    for entry in inputs:
        if entry.gold is None:
            raise UnlabeledItem(entry.ensemble.item_id)
        row = 2 if entry.gold is Label.FAKE else 0
        start = 0
        for w, predicted, _ in reachable_rules(
            entry.ensemble, entry.username_vec, entry.domain_vec, priority
        ):
            end = bisect_left(points, w)
            if start < end:
                diff = diffs[row + (predicted is Label.FAKE)]
                diff[start] += 1
                diff[end] -= 1
            start = end
    counts = [accumulate(diff) for diff in diffs]
    reports = {
        point: _report_from_confusion(((rr, rf), (fr, ff)))
        for point, rr, rf, fr, ff in zip(points, *counts)
    }
    return [reports[cfg.threshold] for cfg in cfgs]


def tune_threshold(
    inputs: Sequence[DecisionInput],
    grid: Sequence[float] = DEFAULT_THRESHOLD_GRID,
    cfg: HeuristicConfig | None = None,
) -> float:
    """Pick the grid threshold maximizing accuracy on validation data.

    Ties break toward the larger threshold (the more conservative
    override). cfg supplies the priority ordering; its own threshold
    value is ignored.
    """
    if not grid:
        raise ValueError("threshold grid must be non-empty")
    if cfg is None:
        cfg = HeuristicConfig()
    reports = _sweep(inputs, [replace(cfg, threshold=threshold) for threshold in grid])
    return max(zip((report.accuracy for report in reports), grid))[1]


#: An ablation row's two threshold modes, and format_ablation_text's cell columns.
_MODES = ("with_threshold", "without_threshold")
_COLUMNS = ("with_thr_val", "with_thr_test", "no_thr_val", "no_thr_test")


def describe_priority(priority: Sequence) -> str:
    names = [kind.value for kind in priority]
    return ", ".join(names + ["ensemble"])


def run_ablation(
    val_inputs: Sequence[DecisionInput],
    test_inputs: Sequence[DecisionInput],
    orderings: Sequence[Sequence],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[dict]:
    """Evaluate every priority ordering with and without the threshold;
    without it is threshold 0.0, where only the majority comparison is left.

    Returns one row per ordering, in input order, as ablation.json holds
    it: the ordering's "priority" description, and under "with_threshold"
    and "without_threshold" the weighted F1 on each split, as
    "validation_f1" and "test_f1".
    """
    rows = []
    for ordering in orderings:
        priority = tuple(ordering)
        cfgs = [HeuristicConfig(threshold=t, priority=priority) for t in (threshold, 0.0)]
        cells = zip(_MODES, _sweep(val_inputs, cfgs), _sweep(test_inputs, cfgs))
        row = {mode: {"validation_f1": val.f1, "test_f1": test.f1} for mode, val, test in cells}
        rows.append({"priority": describe_priority(priority), **row})
    return rows


def format_ablation_text(rows: Sequence[dict]) -> str:
    """The rows as a table: one column per cell, as wide as its name."""
    if not rows:
        return "(no ablation rows)\n"
    name_width = max(len(row["priority"]) for row in rows)
    lines = [f"{'priority':<{name_width}}" + "".join(f"  {column}" for column in _COLUMNS)]
    for row in rows:
        cells = (row[mode][split] for mode in _MODES for split in ("validation_f1", "test_f1"))
        lines.append(f"{row['priority']:<{name_width}}"
                     + "".join(f"  {cell:>{len(column)}.4f}" for column, cell in zip(_COLUMNS, cells)))
    return "\n".join(lines) + "\n"


def ablation_to_json(rows: Sequence[dict], extra: dict) -> str:
    """ablation.json: the rows, beside extra's keys."""
    return json.dumps({"rows": list(rows), **extra}, indent=2, sort_keys=True) + "\n"
