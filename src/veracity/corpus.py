"""Dataset ingestion, validation and corpus-level summary statistics.

The on-disk shape is a delimited file with a header row of ``id``,
``tweet`` and, for labeled splits, ``label``, separated by tabs or by
commas; the header says which. Text fields may contain the delimiter or
newlines, in which case the csv quoting rules apply.
"""

from __future__ import annotations

import csv
import unicodedata
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence

from .errors import BadLabel, BadRecord, DuplicateId, EmptyText
from .fileio import open_lines, parse_id


class Label(Enum):
    """Binary veracity label, serialized lowercase."""

    REAL = "real"
    FAKE = "fake"

    @classmethod
    def parse(cls, value: str, item_id: int | None = None) -> "Label":
        """Parse a label string, case-insensitively."""
        try:
            return cls(value.strip().lower())
        except ValueError:
            raise BadLabel(value, item_id) from None

    def other(self) -> "Label":
        return Label.FAKE if self is Label.REAL else Label.REAL


#: Canonical class ordering used for confusion matrices and reports.
LABELS: tuple[Label, Label] = (Label.REAL, Label.FAKE)


@dataclass(frozen=True, slots=True)
class NewsItem:
    """One social-media post: numeric id, raw text, optional gold label."""

    id: int
    text: str
    label: Label | None = None


@dataclass(frozen=True)
class CorpusSummary:
    """Headline statistics for one dataset.

    Fractions are None for datasets that are not fully labeled (absent,
    not zero).
    """

    item_count: int
    real_fraction: float | None
    fake_fraction: float | None
    unique_usernames: int
    unique_domains: int


_HEADER_LABELED = ["id", "tweet", "label"]
_HEADER_UNLABELED = ["id", "tweet"]


def _read_header(lines: Iterator[str], has_labels: bool | None = None) -> tuple[str, bool]:
    """The delimiter and the labeledness a dataset's header line declares:
    id, tweet[, label], separated by tabs or by commas (the two readings
    cannot both match). has_labels, when given, requires the one or the
    other."""
    line = next(lines, None)
    if line is None:
        raise BadRecord("file is empty")
    wanted = {True: [_HEADER_LABELED], False: [_HEADER_UNLABELED]}.get(
        has_labels, [_HEADER_LABELED, _HEADER_UNLABELED]
    )
    readings = {d: next(csv.reader([line], delimiter=d), []) for d in ("\t", ",")}
    for delimiter, cells in readings.items():
        if [cell.strip().lower() for cell in cells] in wanted:
            return delimiter, len(cells) == len(_HEADER_LABELED)
    found = max(readings.values(), key=len)
    raise BadRecord(f"expected header {' or '.join(map(str, wanted))} but found {found!r}")


def sniff_has_labels(path: Path | str) -> bool:
    """Inspect the header row to decide whether the file carries labels."""
    with open_lines(Path(path)) as lines:
        return _read_header(lines)[1]


def iter_dataset(path: Path | str, has_labels: bool | None = None) -> Iterator[NewsItem]:
    """Yield a dataset file's items in record order, each once every
    check on it has passed, without holding the file's items.

    The header line says whether the file is tab- or comma-separated and
    whether it is labeled; has_labels, when given, requires the one or
    the other. Every text field is unicode-normalized (NFC) on the way
    in so that attribute matching downstream is stable. Labels parse
    case-insensitively. Raises DuplicateId, BadLabel, EmptyText or
    BadRecord naming the file and the record's physical line, after
    yielding the items before that record.
    """
    path = Path(path)
    seen: set[int] = set()
    with open_lines(path) as lines:
        delimiter, labeled = _read_header(lines, has_labels)
        width = len(_HEADER_LABELED if labeled else _HEADER_UNLABELED)
        for row in csv.reader(lines, delimiter=delimiter):
            if not row:
                continue
            if len(row) != width:
                raise BadRecord(f"expected {width} columns, found {len(row)}")
            item_id = parse_id(row[0])
            if item_id in seen:
                raise DuplicateId(item_id)
            seen.add(item_id)
            text = unicodedata.normalize("NFC", row[1])
            if not text.strip():
                raise EmptyText(item_id)
            yield NewsItem(item_id, text, Label.parse(row[2], item_id) if labeled else None)


def load_dataset(path: Path | str, has_labels: bool | None = None) -> tuple[NewsItem, ...]:
    """Load a dataset file whole, preserving record order; see
    iter_dataset for the checks and errors."""
    return tuple(iter_dataset(path, has_labels))


def label_fractions(n_real: int, n_items: int) -> tuple[float, float] | None:
    """(real, fake) fractions of n_items labeled items, n_real of them
    real, or None when there are none."""
    if n_items == 0:
        return None
    return n_real / n_items, (n_items - n_real) / n_items


def summarize(dataset: Sequence[NewsItem], cache=None) -> CorpusSummary:
    """Compute item count, class balance and distinct attribute counts.

    The expansion cache is only needed to resolve shortened URLs to their
    domains; omitting it counts domains of the URLs as written.
    """
    from .preprocess import UrlExpansionCache, extract_attributes

    if cache is None:
        cache = UrlExpansionCache()
    usernames: set[str] = set()
    domains: set[str] = set()
    for item in dataset:
        attrs = extract_attributes(item.text, cache)
        usernames.update(attrs.usernames)
        domains.update(attrs.domains)
    fractions = (
        label_fractions(sum(1 for item in dataset if item.label is Label.REAL), len(dataset))
        if all(item.label is not None for item in dataset)
        else None
    )
    real_fraction, fake_fraction = fractions if fractions else (None, None)
    return CorpusSummary(
        item_count=len(dataset),
        real_fraction=real_fraction,
        fake_fraction=fake_fraction,
        unique_usernames=len(usernames),
        unique_domains=len(domains),
    )

