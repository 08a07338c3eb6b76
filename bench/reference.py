"""Reference computations the benchmark checks the program against.

Written from the specification in the repository README, apart from
`src/veracity`, and fed from the generator's records (tokens, handles,
domains) rather than from the text. `self_check` runs hand-worked cases
that pin the reference itself, including the tie and boundary rules.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from gen import FAKE, REAL, Corpus, Post

DEFAULT_THRESHOLD = 0.88
THRESHOLD_GRID = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
DEFAULT_PRIORITY = ("username", "domain")
ABLATION_ORDERINGS = (("username",), ("domain",), ("domain", "username"), ("username", "domain"))


def tally(posts: list[Post], field: str) -> dict[str, tuple[int, int]]:
    """attribute -> (real count, fake count), one count per occurrence."""
    counts: dict[str, list[int]] = {}
    for post in posts:
        slot = 0 if post.label == REAL else 1
        for value in getattr(post, field):
            counts.setdefault(value, [0, 0])[slot] += 1
    return {value: (pair[0], pair[1]) for value, pair in counts.items()}


def attr_vector(values: list[str], table: dict[str, tuple[int, int]]) -> tuple[float, float] | None:
    """Mean of the known attributes' (p_real, p_fake); None when none is known."""
    known = [table[value] for value in values if value in table]
    if not known:
        return None
    p_real = p_fake = 0.0
    for real, fake in known:
        p_real += real / (real + fake)
        p_fake += fake / (real + fake)
    return p_real / len(known), p_fake / len(known)


class NaiveBayes:
    """Multinomial naive Bayes with additive smoothing over token lists."""

    def __init__(self, posts: list[Post], alpha: float = 1.0):
        self.docs = {REAL: 0, FAKE: 0}
        self.counts = {REAL: Counter(), FAKE: Counter()}
        for post in posts:
            self.docs[post.label] += 1
            self.counts[post.label].update(post.tokens)
        vocabulary = set(self.counts[REAL]) | set(self.counts[FAKE])
        n_docs = self.docs[REAL] + self.docs[FAKE]
        self.log_prior = {c: math.log(self.docs[c] / n_docs) for c in (REAL, FAKE)}
        self.log_lik = {}
        for c in (REAL, FAKE):
            denominator = sum(self.counts[c].values()) + alpha * len(vocabulary)
            self.log_lik[c] = {t: math.log((self.counts[c][t] + alpha) / denominator) for t in vocabulary}

    def posterior(self, tokens: list[str]) -> tuple[float, float]:
        known = [t for t in tokens if t in self.log_lik[REAL]]
        scores = {}
        for c in (REAL, FAKE):
            score = self.log_prior[c]
            table = self.log_lik[c]
            for token in known:
                score += table[token]
            scores[c] = score
        peak = max(scores.values())
        e_real, e_fake = math.exp(scores[REAL] - peak), math.exp(scores[FAKE] - peak)
        return e_real / (e_real + e_fake), e_fake / (e_real + e_fake)


def normalized(p_real: float, p_fake: float) -> tuple[float, float]:
    total = p_real + p_fake
    return p_real / total, p_fake / total


@dataclass(frozen=True)
class Vote:
    p_real: float
    p_fake: float
    soft_label: str
    hard_label: str


def vote(rows: list[tuple[float, float]]) -> Vote:
    """Soft and hard vote over per-model (p_real, p_fake); ties go to real.

    A model whose two probabilities are equal votes real.
    """
    n = len(rows)
    p_real = sum(r for r, _ in rows) / n
    p_fake = sum(f for _, f in rows) / n
    soft = FAKE if p_fake > p_real else REAL
    votes_real = sum(1 for r, f in rows if r >= f)
    hard = FAKE if n - votes_real > votes_real else REAL
    return Vote(p_real, p_fake, soft, hard)


def decide(
    ensemble: tuple[float, float],
    vectors: dict[str, tuple[float, float] | None],
    threshold: float = DEFAULT_THRESHOLD,
    priority: tuple[str, ...] = DEFAULT_PRIORITY,
    use_threshold: bool = True,
) -> tuple[str, str]:
    """(label, decided_by): the first present vector whose winning class is
    strictly ahead and strictly above the threshold decides; otherwise
    the ensemble, real only when its mean real probability is strictly
    higher."""
    for kind in priority:
        vector = vectors[kind]
        if vector is None:
            continue
        p_real, p_fake = vector
        if p_real > p_fake and (not use_threshold or p_real > threshold):
            return REAL, f"{kind}_rule"
        if p_fake > p_real and (not use_threshold or p_fake > threshold):
            return FAKE, f"{kind}_rule"
    return (REAL if ensemble[0] > ensemble[1] else FAKE), "ensemble"


@dataclass(frozen=True)
class Scores:
    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: tuple[tuple[int, int], tuple[int, int]]
    n_items: int


def scores(gold: list[str], pred: list[str]) -> Scores:
    """Accuracy and support-weighted precision, recall and F1."""
    index = {REAL: 0, FAKE: 1}
    confusion = [[0, 0], [0, 0]]
    for g, p in zip(gold, pred, strict=True):
        confusion[index[g]][index[p]] += 1
    n = len(gold)
    precision = recall = f1 = 0.0
    for c in (0, 1):
        tp = confusion[c][c]
        support = confusion[c][0] + confusion[c][1]
        predicted = confusion[0][c] + confusion[1][c]
        p = tp / predicted if predicted else 0.0
        r = tp / support if support else 0.0
        weight = support / n
        precision += p * weight
        recall += r * weight
        f1 += (2 * p * r / (p + r) if p + r else 0.0) * weight
    matrix = ((confusion[0][0], confusion[0][1]), (confusion[1][0], confusion[1][1]))
    return Scores((confusion[0][0] + confusion[1][1]) / n, precision, recall, f1, matrix, n)


@dataclass(frozen=True)
class Item:
    """What the heuristic sees for one item, in id order."""

    id: int
    gold: str
    ensemble: Vote
    vectors: dict[str, tuple[float, float] | None]


def items_for(posts: list[Post], votes: dict[int, Vote], tables: dict[str, dict]) -> list[Item]:
    return [
        Item(
            post.id,
            post.label,
            votes[post.id],
            {
                "username": attr_vector(post.usernames, tables["username"]),
                "domain": attr_vector(post.domains, tables["domain"]),
            },
        )
        for post in sorted(posts, key=lambda p: p.id)
    ]


def decide_all(items: list[Item], **rule) -> list[tuple[str, str]]:
    return [decide((i.ensemble.p_real, i.ensemble.p_fake), i.vectors, **rule) for i in items]


def tune(items: list[Item]) -> float:
    """Grid threshold with the best accuracy; ties go to the larger one."""
    gold = [i.gold for i in items]
    best = None
    for threshold in THRESHOLD_GRID:
        accuracy = scores(gold, [label for label, _ in decide_all(items, threshold=threshold)]).accuracy
        if best is None or accuracy >= best[0]:
            best = (accuracy, threshold)
    return best[1]


def ablation(val: list[Item], test: list[Item], threshold: float) -> list[dict]:
    rows = []
    for priority in ABLATION_ORDERINGS:
        row = {"priority": ", ".join(priority + ("ensemble",))}
        for mode, use_threshold in (("with_threshold", True), ("without_threshold", False)):
            row[mode] = {
                f"{split}_f1": scores(
                    [i.gold for i in items],
                    [label for label, _ in decide_all(
                        items, threshold=threshold, priority=priority, use_threshold=use_threshold
                    )],
                ).f1
                for split, items in (("validation", val), ("test", test))
            }
        rows.append(row)
    return rows


def rule_effects(items: list[Item], decisions: list[tuple[str, str]]) -> dict[str, dict[str, int]]:
    """Per rule: fired, overrides of the soft label, and of those overrides
    how many were corrections and how many breakages."""
    effects = {}
    for rule in ("username_rule", "domain_rule"):
        fired = [(i, label) for i, (label, by) in zip(items, decisions) if by == rule]
        overrides = [(i, label) for i, label in fired if label != i.ensemble.soft_label]
        effects[rule] = {
            "fired": len(fired),
            "overrides": len(overrides),
            "corrections": sum(1 for i, label in overrides if label == i.gold),
            "breakages": sum(1 for i, label in overrides if i.ensemble.soft_label == i.gold),
        }
    return effects


def attribute_tables(train: list[Post]) -> dict[str, dict[str, tuple[int, int]]]:
    return {"username": tally(train, "usernames"), "domain": tally(train, "domains")}


def baseline_votes(model: NaiveBayes, posts: list[Post]) -> dict[int, Vote]:
    return {post.id: vote([model.posterior(post.tokens)]) for post in posts}


def external_votes(corpus: Corpus) -> dict[int, Vote]:
    ids = corpus.models["m1"].keys()
    return {
        item_id: vote([normalized(*rows[item_id]) for rows in corpus.models.values()])
        for item_id in ids
    }


def self_check() -> None:
    """Hand-worked cases; raises AssertionError when the reference is wrong."""
    edge = attr_vector(["a"], {"a": (22, 3)})
    check(edge == (0.88, 0.12), "22/25 is exactly 0.88")
    check(decide((0.9, 0.1), {"username": edge, "domain": None}) == (REAL, "ensemble"),
          "a vector exactly at the threshold never fires")
    check(decide((0.1, 0.9), {"username": edge, "domain": None}, threshold=0.85) == (REAL, "username_rule"),
          "a vector above the threshold fires")
    tied = attr_vector(["t", "t"], {"t": (10, 10)})
    check(decide((0.2, 0.8), {"username": tied, "domain": tied}, use_threshold=False) == (FAKE, "ensemble"),
          "a tied vector never fires, even without the threshold")
    mixed = attr_vector(["x", "y", "zz"], {"x": (1, 0), "y": (1, 1)})
    check(mixed == (0.75, 0.25), "unknown attributes are skipped, known ones averaged")
    check(decide((0.9, 0.1), {"username": None, "domain": mixed}, use_threshold=False) == (REAL, "domain_rule"),
          "without the threshold the majority alone decides")
    tie = vote([(0.75, 0.25), (0.25, 0.75)])
    check((tie.p_real, tie.p_fake, tie.soft_label, tie.hard_label) == (0.5, 0.5, REAL, REAL),
          "an exact soft tie and a 1-1 hard tie are real")
    check(decide((tie.p_real, tie.p_fake), {"username": None, "domain": None}) == (FAKE, "ensemble"),
          "an exact soft tie falls through the heuristic as fake")
    check(vote([(0.5, 0.5), (0.2, 0.8), (0.5, 0.5)]).hard_label == REAL,
          "a per-model tie is a vote for real")
    check(vote([(0.5, 0.5), (0.2, 0.8), (0.3, 0.7)]).hard_label == FAKE,
          "hard voting counts votes, not probabilities")
    s = scores([REAL, REAL, FAKE, FAKE], [REAL, FAKE, FAKE, FAKE])
    check(s.confusion == ((1, 1), (0, 2)) and s.accuracy == 0.75, "confusion and accuracy")
    check(close(s.precision, 0.5 * 1 + 0.5 * 2 / 3) and close(s.recall, 0.75)
          and close(s.f1, 0.5 * 2 / 3 + 0.5 * 0.8), "support-weighted precision, recall, F1")
    s = scores([REAL, REAL, REAL], [REAL, REAL, REAL])
    check(s.f1 == 1.0 and s.confusion == ((3, 0), (0, 0)), "a class with no support weighs nothing")
    nb = NaiveBayes([
        Post(1, "", REAL, ["a", "a", "b"], [], []),
        Post(2, "", FAKE, ["b", "c"], [], []),
    ])
    # P(a|real) = (2+1)/(3+3), P(a|fake) = (0+1)/(2+3): smoothed over a 3-token vocabulary
    check(close(nb.posterior(["a"])[0], 0.5 * 3 / 6 / (0.5 * 3 / 6 + 0.5 * 1 / 5)), "posterior of one token")
    check(nb.posterior(["zzz"]) == (0.5, 0.5), "unknown tokens leave the prior")
    items = [
        Item(1, REAL, vote([(0.4, 0.6)]), {"username": (0.92, 0.08), "domain": None}),
        Item(2, FAKE, vote([(0.4, 0.6)]), {"username": (0.92, 0.08), "domain": None}),
    ]
    check(tune(items) == 0.95, "tuning ties break toward the larger threshold")
    check(rule_effects(items, decide_all(items))["username_rule"]
          == {"fired": 2, "overrides": 2, "corrections": 1, "breakages": 1}, "override accounting")


def check(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(f"reference self-check failed: {what}")


def close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol
