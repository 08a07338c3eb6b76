"""Attribute-driven override of ensemble labels.

The decision rule examines the item's attribute probability vectors in
priority order (default: username handle first, then URL domain). A
present vector decides the label when its winning class probability
strictly exceeds the threshold (default 0.88) and strictly beats the
other class; otherwise it falls through. If no attribute rule fires,
the label is the ensemble's: real when its mean real probability is
strictly higher, fake otherwise. All comparisons are strict, so a
vector sitting exactly on the threshold, or an exactly tied vector,
never decides. The rules read the ensemble's mean probabilities, which
both voting schemes record, so decision_inputs takes vote_all's results
as they are and votes nothing itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .attribute_stats import AttributeKind, AttributeStatsTable, AttrProbVector, tweet_attr_vector
from .corpus import Label, NewsItem
from .ensemble import EnsembleResult, PredictionMatrix, restrict_to, vote_all
from .errors import IdSetMismatch
from .fileio import write_tsv
from .preprocess import UrlExpansionCache, extract_attributes

DEFAULT_THRESHOLD = 0.88
DEFAULT_PRIORITY = (AttributeKind.USERNAME, AttributeKind.DOMAIN)


class DecidedBy(Enum):
    USERNAME_RULE = "username_rule"
    DOMAIN_RULE = "domain_rule"
    ENSEMBLE = "ensemble"


@dataclass(frozen=True)
class HeuristicConfig:
    """Threshold and attribute priority order.

    priority may be a subset of the two attribute kinds (for
    single-attribute ablations) but entries must be unique. With
    threshold 0.0 only the majority comparison remains, since
    p_win > p_lose >= 0 implies p_win > 0.
    """

    threshold: float = DEFAULT_THRESHOLD
    priority: tuple[AttributeKind, ...] = DEFAULT_PRIORITY

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        if len(set(self.priority)) != len(self.priority):
            raise ValueError("priority entries must be unique")


@dataclass(frozen=True, slots=True)
class HeuristicDecision:
    """Final label for one item plus the provenance of the decision."""

    item_id: int
    label: Label
    decided_by: DecidedBy
    username_vec: AttrProbVector
    domain_vec: AttrProbVector
    ensemble_p_real: float


def reachable_rules(
    ens: EnsembleResult,
    username_vec: AttrProbVector,
    domain_vec: AttrProbVector,
    priority: Sequence[AttributeKind],
) -> Iterator[tuple[float, Label, DecidedBy]]:
    """The rules that can decide the item, in priority order, as
    (w, label, decided_by). A rule decides at threshold t when w > t and
    no earlier rule does.

    An attribute rule's w is its vector's winning probability; absent and
    exactly tied vectors never decide, and a rule whose w does not beat
    every earlier rule's is shadowed at every threshold, so neither is
    yielded. The ensemble comes last with w = inf: it decides every
    threshold the rules leave, real when its mean real probability is
    strictly higher, fake otherwise.
    """
    best = -math.inf
    for kind in priority:
        if kind is AttributeKind.USERNAME:
            vector, decided_by = username_vec, DecidedBy.USERNAME_RULE
        else:
            vector, decided_by = domain_vec, DecidedBy.DOMAIN_RULE
        if not vector.present:
            continue
        if vector.p_real > vector.p_fake:
            w, label = vector.p_real, Label.REAL
        elif vector.p_fake > vector.p_real:
            w, label = vector.p_fake, Label.FAKE
        else:
            continue
        if w > best:
            best = w
            yield w, label, decided_by
    yield math.inf, Label.REAL if ens.p_real > ens.p_fake else Label.FAKE, DecidedBy.ENSEMBLE


def decide(
    ens: EnsembleResult,
    username_vec: AttrProbVector,
    domain_vec: AttrProbVector,
    cfg: HeuristicConfig | None = None,
) -> HeuristicDecision:
    """Apply the prioritized attribute rules, ensemble as fallback.

    Reads only the ensemble's mean probabilities, so a hard-voted result
    decides like a soft-voted one. Absent vectors are skipped; the final
    fallback compares the means with a strict >, so an exactly tied
    ensemble resolves to fake here.
    """
    if cfg is None:
        cfg = HeuristicConfig()
    threshold = cfg.threshold
    for w, label, decided_by in reachable_rules(ens, username_vec, domain_vec, cfg.priority):
        if w > threshold:  # the ensemble's w = inf always is
            break
    return HeuristicDecision(ens.item_id, label, decided_by, username_vec, domain_vec, ens.p_real)


@dataclass(frozen=True, slots=True)
class DecisionInput:
    """Everything decide() needs for one item, precomputed once so that
    threshold sweeps and ablations do not re-extract attributes, and the
    gold label they score it by, if any. The id is ensemble.item_id."""

    ensemble: EnsembleResult
    username_vec: AttrProbVector
    domain_vec: AttrProbVector
    gold: Label | None


def item_records(
    items: Iterable[NewsItem], username_table: AttributeStatsTable,
    domain_table: AttributeStatsTable, cache: UrlExpansionCache | None = None,
) -> list[tuple]:
    """Per item, which may come from a stream: (id, the username and
    domain vectors of the attributes in its post, gold label), in id order.
    Posts whose handles, or whose domains, are the same tuple share one vector."""
    records = []
    by_usernames: dict[tuple, AttrProbVector] = {}  # each tuple's vector, for this call only
    by_domains: dict[tuple, AttrProbVector] = {}
    for item in items:
        attrs = extract_attributes(item.text, cache)
        if (username_vec := by_usernames.get(attrs.usernames)) is None:
            username_vec = by_usernames[attrs.usernames] = tweet_attr_vector(attrs.usernames, username_table)
        if (domain_vec := by_domains.get(attrs.domains)) is None:
            domain_vec = by_domains[attrs.domains] = tweet_attr_vector(attrs.domains, domain_table)
        records.append((item.id, username_vec, domain_vec, item.label))
    records.sort(key=itemgetter(0))
    return records


def decision_inputs(records: Sequence[tuple], ensemble: Sequence[EnsembleResult]) -> list[DecisionInput]:
    """The records' decision inputs. ensemble is vote_all's output for
    exactly the records' ids, in the same order; else an IdSetMismatch."""
    if list(map(itemgetter(0), records)) != [result.item_id for result in ensemble]:
        raise IdSetMismatch(f"{len(ensemble)} ensemble results do not match {len(records)} items")
    return [DecisionInput(result, u, d, gold) for (_, u, d, gold), result in zip(records, ensemble)]


def prepare_inputs(
    dataset: Sequence[NewsItem],
    ensemble: Sequence[EnsembleResult],
    username_table: AttributeStatsTable,
    domain_table: AttributeStatsTable,
    cache: UrlExpansionCache | None = None,
) -> list[DecisionInput]:
    """Look up each item's attribute vectors, beside its ensemble result;
    nothing is voted here. ensemble is vote_all's output for exactly the
    dataset's ids, so the inputs are in id order.
    """
    return decision_inputs(item_records(dataset, username_table, domain_table, cache), ensemble)


def decide_inputs(
    inputs: Sequence[DecisionInput], cfg: HeuristicConfig | None = None
) -> list[HeuristicDecision]:
    return [
        decide(entry.ensemble, entry.username_vec, entry.domain_vec, cfg) for entry in inputs
    ]


def decide_batch(
    dataset: Sequence[NewsItem],
    matrix: PredictionMatrix,
    username_table: AttributeStatsTable,
    domain_table: AttributeStatsTable,
    cache: UrlExpansionCache | None = None,
    cfg: HeuristicConfig | None = None,
) -> list[HeuristicDecision]:
    """Full per-item post-processing pass over a dataset, ordered by id:
    soft-vote the matrix rows of the dataset's ids, then decide."""
    ensemble = vote_all(restrict_to(matrix, [item.id for item in dataset]))
    return decide_inputs(
        prepare_inputs(dataset, ensemble, username_table, domain_table, cache), cfg
    )


def _fmt_vec(vector: AttrProbVector) -> float | str:
    return vector.p_real if vector.present else "-"


def write_decisions_tsv(
    decisions: Sequence[HeuristicDecision], path: Path | str, header_comment: str | None = None
) -> None:
    rows = (
        (d.item_id, d.label.value, d.decided_by.value, d.ensemble_p_real,
         _fmt_vec(d.username_vec), _fmt_vec(d.domain_vec))
        for d in sorted(decisions, key=lambda d: d.item_id)
    )
    header = ("id", "label", "decided_by", "p_real_ens", "p_real_user", "p_real_domain")
    write_tsv(path, header, rows, header_comment)
