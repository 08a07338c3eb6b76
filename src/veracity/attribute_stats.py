"""Per-attribute class-frequency tables and conditional probabilities.

For each username handle or URL domain seen in labeled training data we
keep how often the ground truth was real vs fake. The derived
conditional probability of each class given the attribute is the raw
ratio, unsmoothed: attributes that only ever appear under one class get
probability exactly 1.0 / 0.0. Counts are the source of truth; the
probabilities are always recomputed from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Label, NewsItem
from .errors import BadRecord, UnlabeledItem, ZeroSupport
from .fileio import parse_id, read_tsv, write_tsv
from .preprocess import UrlExpansionCache, extract_attributes


class AttributeKind(Enum):
    USERNAME = "username"
    DOMAIN = "domain"


@dataclass(frozen=True, slots=True)
class AttrCounts:
    """How many real / fake training items carried one attribute."""

    real_count: int
    fake_count: int

    @property
    def total(self) -> int:
        return self.real_count + self.fake_count


def cond_prob(counts: AttrCounts) -> tuple[float, float]:
    """(p_real, p_fake) for an attribute: each class count over the total.

    Raises ZeroSupport when there are no observations to divide by.
    """
    total = counts.total
    if total == 0:
        raise ZeroSupport()
    return counts.real_count / total, counts.fake_count / total


@dataclass(frozen=True)
class AttributeStatsTable:
    """Counts for every attribute of one kind seen in training data."""

    kind: AttributeKind
    entries: Mapping[str, AttrCounts]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True, slots=True)
class AttrProbVector:
    """Per-item attribute probability estimate.

    present is False when the item carried no attribute known to the
    table; p_real/p_fake are meaningless (0.0) in that case. support is
    the total number of training occurrences backing the estimate.
    """

    p_real: float
    p_fake: float
    support: int
    present: bool

    @classmethod
    @cache  # one instance, shared by every item without a known attribute
    def absent(cls) -> "AttrProbVector":
        return cls(0.0, 0.0, 0, False)

    def __reduce__(self):
        # unpickled by the constructor, about twice as fast as a slotted dataclass's __setstate__
        return AttrProbVector, (self.p_real, self.p_fake, self.support, self.present)


def build_tables(
    items: Iterable[NewsItem], cache: UrlExpansionCache | None = None
) -> dict[AttributeKind, AttributeStatsTable]:
    """Count attribute/class co-occurrences over labeled items, for every
    attribute kind in one pass over the items, which may be a stream.

    Every occurrence counts: a post naming a domain twice increments
    that domain's class count twice, symmetric with how multi-attribute
    averaging treats repeats at inference.

    Raises UnlabeledItem for any item without a gold label; this is the
    guard that keeps test-set labels out of the tables.
    """
    usernames: dict[str, list[int]] = {}
    domains: dict[str, list[int]] = {}
    for item in items:
        if item.label is None:
            raise UnlabeledItem(item.id)
        attrs = extract_attributes(item.text, cache)
        slot = 0 if item.label is Label.REAL else 1
        for counts, values in ((usernames, attrs.usernames), (domains, attrs.domains)):
            for value in values:
                counts.setdefault(value, [0, 0])[slot] += 1
    kinds = ((AttributeKind.USERNAME, usernames), (AttributeKind.DOMAIN, domains))
    return {
        kind: AttributeStatsTable(kind, {attr: AttrCounts(*n) for attr, n in counts.items()})
        for kind, counts in kinds
    }


def build_table(
    items: Iterable[NewsItem], kind: AttributeKind, cache: UrlExpansionCache | None = None
) -> AttributeStatsTable:
    """The table of one attribute kind; see build_tables."""
    return build_tables(items, cache)[kind]


def tweet_attr_vector(attrs: Sequence[str], table: AttributeStatsTable) -> AttrProbVector:
    """Average the conditional probabilities of a post's known attributes.

    Attributes absent from the table are skipped; if nothing remains the
    vector is marked not-present and the caller falls back to the
    ensemble. Repeats in attrs enter the mean once per occurrence.
    """
    known = [(attr, table.entries[attr]) for attr in attrs if attr in table.entries]
    if not known:
        return AttrProbVector.absent()
    p_real_sum = 0.0
    p_fake_sum = 0.0
    support = 0
    for _, counts in known:
        p_real, p_fake = cond_prob(counts)
        p_real_sum += p_real
        p_fake_sum += p_fake
        support += counts.total
    n = len(known)
    return AttrProbVector(p_real_sum / n, p_fake_sum / n, support, True)


_TABLE_HEADER = ("attribute", "real_count", "fake_count")


def save_table(
    table: AttributeStatsTable, path: Path | str, header_comment: str | None = None
) -> None:
    """Write a table as TSV, attributes sorted for deterministic output."""
    rows = ((attr, c.real_count, c.fake_count) for attr, c in sorted(table.entries.items()))
    write_tsv(path, _TABLE_HEADER, rows, header_comment)


def table_paths(out_dir: Path | str) -> dict[AttributeKind, Path]:
    """Where save_tables writes each kind's table: `<kind>_stats.tsv` under out_dir."""
    return {kind: Path(out_dir) / f"{kind.value}_stats.tsv" for kind in AttributeKind}


def save_tables(
    tables: Mapping[AttributeKind, AttributeStatsTable],
    out_dir: Path | str,
    header_comment: str | None = None,
) -> None:
    """Write every table to its table_paths path."""
    paths = table_paths(out_dir)
    for kind, table in tables.items():
        save_table(table, paths[kind], header_comment)


def load_table(path: Path | str, kind: AttributeKind) -> AttributeStatsTable:
    """Read a table written by save_table; probabilities are re-derived.
    An attribute may appear on one row only."""
    entries: dict[str, AttrCounts] = {}
    with read_tsv(Path(path), _TABLE_HEADER) as (_, rows):
        for attr, real, fake in rows:
            real_count, fake_count = parse_id(real, "count"), parse_id(fake, "count")
            if real_count + fake_count == 0:
                raise BadRecord(f"attribute {attr!r} has invalid counts")
            if attr in entries:
                raise BadRecord(f"repeated attribute {attr!r}")
            entries[attr] = AttrCounts(real_count, fake_count)
    return AttributeStatsTable(kind, entries)
