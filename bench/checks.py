"""Artifact checks: every file a workload writes, parsed and compared with
the reference, plus one mutation per artifact that the check must reject.

Probabilities from the built-in baseline are compared within 1e-9 and
everything derived from counts or from the external models' values
within 1e-12; labels, rule provenance, counts and confusion matrices
must match exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import reference as ref
from gen import FAKE, REAL, Corpus

BASELINE_TOL = 1e-9
EXACT_TOL = 1e-12


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Artifact:
    """A file a workload writes, its check, and a one-value mutation of it."""

    path: str  # relative to the workload's output directory
    check: Callable[[str], None]
    mutate: Callable[[str], str]


def _fail(what: str) -> None:
    raise CheckFailed(what)


def _close(got: float, want: float, tol: float, what: str) -> None:
    if not abs(got - want) <= tol:
        _fail(f"{what}: {got!r} differs from reference {want!r} by more than {tol}")


def _rows(text: str, header: str) -> list[list[str]]:
    lines = [line for line in text.split("\n") if line and not line.startswith("#")]
    if not lines or lines[0] != header:
        _fail(f"expected header {header!r}")
    return [line.split("\t") for line in lines[1:]]


def _ids(rows: list[list[str]], want: list[int], what: str) -> None:
    got = [int(row[0]) for row in rows]
    if got != want:
        _fail(f"{what}: ids differ from the reference's (or are out of order)")


# --- checks -----------------------------------------------------------------

TABLE_HEADER = "attribute\treal_count\tfake_count"


def check_table(text: str, want: dict[str, tuple[int, int]]) -> None:
    rows = _rows(text, TABLE_HEADER)
    if [row[0] for row in rows] != sorted(want):
        _fail("attribute set or order differs from the reference tally")
    for attr, real, fake in rows:
        if (int(real), int(fake)) != want[attr]:
            _fail(f"counts of {attr!r}: {real}/{fake}, reference {want[attr]}")


def check_model(text: str, nb: ref.NaiveBayes) -> None:
    doc = json.loads(text)
    if doc["class_doc_counts"] != nb.docs:
        _fail(f"class_doc_counts {doc['class_doc_counts']} != reference {nb.docs}")
    for label in (REAL, FAKE):
        if doc["token_counts"][label] != dict(nb.counts[label]):
            _fail(f"token_counts[{label}] differ from the reference counts")
    if doc["smoothing_alpha"] != 1.0:
        _fail("smoothing_alpha is not 1.0")


def check_predictions(text: str, votes: dict[int, ref.Vote]) -> None:
    rows = _rows(text, "id\tp_real\tp_fake")
    _ids(rows, sorted(votes), "predictions")
    for item_id, p_real, p_fake in rows:
        vote = votes[int(item_id)]
        _close(float(p_real), vote.p_real, BASELINE_TOL, f"p_real of item {item_id}")
        _close(float(p_fake), vote.p_fake, BASELINE_TOL, f"p_fake of item {item_id}")


def check_ensemble(text: str, votes: dict[int, ref.Vote], scheme: str, tol: float) -> None:
    rows = _rows(text, "id\tp_real\tp_fake\tlabel")
    _ids(rows, sorted(votes), "ensemble")
    for item_id, p_real, p_fake, label in rows:
        vote = votes[int(item_id)]
        _close(float(p_real), vote.p_real, tol, f"mean p_real of item {item_id}")
        _close(float(p_fake), vote.p_fake, tol, f"mean p_fake of item {item_id}")
        want = vote.soft_label if scheme == "soft" else vote.hard_label
        if label != want:
            _fail(f"{scheme} label of item {item_id}: {label}, reference {want}")


def check_decisions(text: str, items: list[ref.Item], decisions: list[tuple[str, str]], tol: float) -> None:
    rows = _rows(text, "id\tlabel\tdecided_by\tp_real_ens\tp_real_user\tp_real_domain")
    _ids(rows, [item.id for item in items], "decisions")
    for row, item, (label, by) in zip(rows, items, decisions):
        if (row[1], row[2]) != (label, by):
            _fail(f"item {item.id} decided {row[1]} by {row[2]}, reference {label} by {by}")
        _close(float(row[3]), item.ensemble.p_real, tol, f"p_real_ens of item {item.id}")
        for cell, kind in ((row[4], "username"), (row[5], "domain")):
            vector = item.vectors[kind]
            if vector is None:
                if cell != "-":
                    _fail(f"item {item.id} has a {kind} vector the reference lacks")
            elif cell == "-":
                _fail(f"item {item.id} lacks the reference's {kind} vector")
            else:
                _close(float(cell), vector[0], EXACT_TOL, f"{kind} p_real of item {item.id}")


def check_scores(got: dict, want: ref.Scores, what: str) -> None:
    if got["confusion"] != [list(row) for row in want.confusion] or got["n_items"] != want.n_items:
        _fail(f"{what}: confusion {got['confusion']} (n={got['n_items']}), reference {want.confusion}")
    for key in ("accuracy", "precision", "recall", "f1"):
        _close(got[key], getattr(want, key), EXACT_TOL, f"{what} {key}")


def _decided_by_counts(decisions: list[tuple[str, str]]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for _, by in decisions:
        counts[by] = counts.get(by, 0) + 1
    return counts


def check_report_json(text: str, items: list[ref.Item], decisions: list[tuple[str, str]]) -> None:
    doc = json.loads(text)
    gold = [item.gold for item in items]
    if doc["n_items"] != len(items) or doc["decided_by"] != _decided_by_counts(decisions):
        _fail(f"report n_items/decided_by {doc['n_items']}/{doc['decided_by']} differ from the reference")
    if (doc["threshold"], doc["priority"], doc["use_threshold"], doc["scheme"]) != (
        ref.DEFAULT_THRESHOLD, list(ref.DEFAULT_PRIORITY), True, "soft"
    ):
        _fail("report rule settings are not the defaults")
    check_scores(doc["ensemble_only"], ref.scores(gold, [i.ensemble.soft_label for i in items]), "ensemble_only")
    check_scores(doc["post_processed"], ref.scores(gold, [label for label, _ in decisions]), "post_processed")


def check_report_txt(text: str, items: list[ref.Item], decisions: list[tuple[str, str]]) -> None:
    counts = _decided_by_counts(decisions)
    want = [
        f"items: {len(items)}",
        "decided_by: " + " ".join(f"{k}={counts.get(k, 0)}" for k in ("username_rule", "domain_rule", "ensemble")),
    ]
    lines = text.split("\n")
    for line in want:
        if line not in lines:
            _fail(f"report.txt lacks the line {line!r}")


def check_summary(text: str, train: list, tables: dict) -> None:
    doc = json.loads(text)
    n_real = sum(1 for post in train if post.label == REAL)
    want = {"item_count": len(train), "unique_usernames": len(tables["username"]),
            "unique_domains": len(tables["domain"])}
    if {key: doc[key] for key in want} != want:
        _fail(f"summary {doc} differs from the reference {want}")
    _close(doc["real_fraction"], n_real / len(train), EXACT_TOL, "real_fraction")
    _close(doc["fake_fraction"], (len(train) - n_real) / len(train), EXACT_TOL, "fake_fraction")


def check_ablation_json(text: str, tuned: float, rows: list[dict]) -> None:
    doc = json.loads(text)
    if doc["tuned_threshold"] != tuned:
        _fail(f"tuned threshold {doc['tuned_threshold']}, reference {tuned}")
    if doc["tuning_grid"] != list(ref.THRESHOLD_GRID) or doc["threshold"] != ref.DEFAULT_THRESHOLD:
        _fail("tuning grid or configured threshold differ")
    if [row["priority"] for row in doc["rows"]] != [row["priority"] for row in rows]:
        _fail("ablation orderings differ")
    for got, want in zip(doc["rows"], rows):
        for mode in ("with_threshold", "without_threshold"):
            for cell in ("validation_f1", "test_f1"):
                _close(got[mode][cell], want[mode][cell], EXACT_TOL, f"{want['priority']} {mode} {cell}")


def check_ablation_txt(text: str, tuned: float, rows: list[dict]) -> None:
    lines = text.split("\n")
    if f"# threshold: {tuned!r}" not in lines:
        _fail(f"ablation.txt does not name the tuned threshold {tuned!r}")
    body = [line for line in lines if line and not line.startswith("#")][1:]
    if len(body) != len(rows):
        _fail("ablation.txt row count differs")
    for line, want in zip(body, rows):
        parts = line.split()
        if " ".join(parts[:-4]) != want["priority"]:
            _fail(f"ablation.txt row {line!r} is not {want['priority']!r}")
        cells = [want[m][c] for m in ("with_threshold", "without_threshold") for c in ("validation_f1", "test_f1")]
        for got, cell in zip(parts[-4:], cells):
            _close(float(got), cell, 5e-5 + EXACT_TOL, f"ablation.txt {want['priority']}")


# --- mutations ----------------------------------------------------------------


def _edit_first_row(text: str, edit: Callable[[list[str]], bool]) -> str:
    """Apply edit to the first data row it changes (it returns True)."""
    lines = text.split("\n")
    seen_header = False
    for index, line in enumerate(lines):
        if not line or line.startswith("#"):
            continue
        if not seen_header:
            seen_header = True
            continue
        cells = line.split("\t")
        if edit(cells):
            lines[index] = "\t".join(cells)
            return "\n".join(lines)
    raise ValueError("no data row to mutate")


def flip_label(column: int) -> Callable[[str], str]:
    def edit(cells: list[str]) -> bool:
        cells[column] = FAKE if cells[column] == REAL else REAL
        return True
    return lambda text: _edit_first_row(text, edit)


def bump_count(text: str) -> str:
    def edit(cells: list[str]) -> bool:
        cells[1] = str(int(cells[1]) + 1)
        return True
    return _edit_first_row(text, edit)


def swap_probs(text: str) -> str:
    def edit(cells: list[str]) -> bool:
        if cells[1] == cells[2]:
            return False
        cells[1], cells[2] = cells[2], cells[1]
        return True
    return _edit_first_row(text, edit)


def _json_edit(edit: Callable[[dict], None]) -> Callable[[str], str]:
    def mutate(text: str) -> str:
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return mutate


def _bump_confusion(section: str | None) -> Callable[[str], str]:
    def edit(doc: dict) -> None:
        (doc[section] if section else doc)["confusion"][1][1] += 1
    return _json_edit(edit)


def _bump_line_number(prefix: str) -> Callable[[str], str]:
    def mutate(text: str) -> str:
        lines = text.split("\n")
        for index, line in enumerate(lines):
            if line.startswith(prefix):
                lines[index] = prefix + str(int(line[len(prefix):]) + 1)
                return "\n".join(lines)
        raise ValueError(f"no {prefix!r} line to mutate")
    return mutate


def _next_threshold(value: float) -> float:
    grid = ref.THRESHOLD_GRID
    return grid[(grid.index(value) + 1) % len(grid)]


def _shift_threshold_line(text: str) -> str:
    lines = text.split("\n")
    for index, line in enumerate(lines):
        if line.startswith("# threshold: "):
            lines[index] = f"# threshold: {_next_threshold(float(line.split()[-1]))!r}"
    return "\n".join(lines)


def _bump_doc_count(doc: dict) -> None:
    doc["class_doc_counts"][REAL] += 1


def _bump_users(doc: dict) -> None:
    doc["unique_usernames"] += 1


def _shift_tuned(doc: dict) -> None:
    doc["tuned_threshold"] = _next_threshold(doc["tuned_threshold"])


# --- per-workload expectations --------------------------------------------------


@dataclass
class Expectation:
    artifacts: list[Artifact]
    facts: dict  # what the inputs exercise, for the run record
    problems: list[str] = field(default_factory=list)  # inputs that cannot tell right from wrong


def _facts(items: list[ref.Item], decisions: list[tuple[str, str]]) -> dict:
    margins = [abs(i.ensemble.p_real - i.ensemble.p_fake) for i in items]
    return {
        "decided_by": _decided_by_counts(decisions),
        "rules": ref.rule_effects(items, decisions),
        "exact_soft_ties": sum(1 for m in margins if m == 0.0),
        "smallest_nonzero_soft_margin": min((m for m in margins if m), default=None),
    }


def pipeline_expectation(corpus: Corpus) -> Expectation:
    train, test = corpus.splits["train"], corpus.splits["test"]
    tables = ref.attribute_tables(train)
    nb = ref.NaiveBayes(train)
    votes = ref.baseline_votes(nb, test)
    items = ref.items_for(test, votes, tables)
    decisions = ref.decide_all(items)
    return Expectation(
        [
            Artifact("username_stats.tsv", lambda t: check_table(t, tables["username"]), bump_count),
            Artifact("domain_stats.tsv", lambda t: check_table(t, tables["domain"]), bump_count),
            Artifact("baseline_model.json", lambda t: check_model(t, nb), _json_edit(_bump_doc_count)),
            Artifact("baseline_predictions.tsv", lambda t: check_predictions(t, votes), swap_probs),
            Artifact("ensemble.tsv", lambda t: check_ensemble(t, votes, "soft", BASELINE_TOL), flip_label(3)),
            Artifact("decisions.tsv", lambda t: check_decisions(t, items, decisions, BASELINE_TOL), flip_label(1)),
            Artifact("report.json", lambda t: check_report_json(t, items, decisions), _bump_confusion("post_processed")),
            Artifact("report.txt", lambda t: check_report_txt(t, items, decisions), _bump_line_number("items: ")),
        ],
        _facts(items, decisions),
    )


def ablate_expectation(corpus: Corpus) -> Expectation:
    train = corpus.splits["train"]
    tables = ref.attribute_tables(train)
    nb = ref.NaiveBayes(train)
    val, test = (
        ref.items_for(corpus.splits[s], ref.baseline_votes(nb, corpus.splits[s]), tables)
        for s in ("validation", "test")
    )
    tuned = ref.tune(val)
    rows = ref.ablation(val, test, tuned)
    facts = _facts(test, ref.decide_all(test, threshold=tuned))
    facts["tuned_threshold"] = tuned
    problems = []
    if tuned in (ref.THRESHOLD_GRID[0], ref.THRESHOLD_GRID[-1]):
        # a tuner that returns an end of the grid would pass unnoticed
        problems.append(f"the reference's tuned threshold {tuned} is an end of the grid")
    return Expectation(
        [
            Artifact("ablation.json", lambda t: check_ablation_json(t, tuned, rows), _json_edit(_shift_tuned)),
            Artifact("ablation.txt", lambda t: check_ablation_txt(t, tuned, rows), _shift_threshold_line),
        ],
        facts,
        problems,
    )


def staged_expectation(corpus: Corpus) -> Expectation:
    train, test = corpus.splits["train"], corpus.splits["test"]
    tables = ref.attribute_tables(train)
    votes = ref.external_votes(corpus)
    items = ref.items_for(test, votes, tables)
    decisions = ref.decide_all(items)
    gold = [item.gold for item in items]
    facts = _facts(items, decisions)
    facts["hard_label_real_on_tie"] = sum(
        1 for i in items if i.ensemble.p_real == i.ensemble.p_fake and i.ensemble.hard_label == REAL
    )
    return Expectation(
        [
            Artifact("username_stats.tsv", lambda t: check_table(t, tables["username"]), bump_count),
            Artifact("domain_stats.tsv", lambda t: check_table(t, tables["domain"]), bump_count),
            Artifact("summary.json", lambda t: check_summary(t, train, tables), _json_edit(_bump_users)),
            Artifact("ensemble.tsv", lambda t: check_ensemble(t, votes, "hard", EXACT_TOL), flip_label(3)),
            Artifact("decisions.tsv", lambda t: check_decisions(t, items, decisions, EXACT_TOL), flip_label(1)),
            Artifact(
                "evaluate.json",
                lambda t: check_scores(json.loads(t), ref.scores(gold, [label for label, _ in decisions]), "evaluate"),
                _bump_confusion(None),
            ),
        ],
        facts,
    )
