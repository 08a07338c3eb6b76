"""Combine per-model prediction vectors by soft or hard voting.

Soft voting averages each class's probabilities across models and takes
the class with the higher mean. Hard voting gives each model one vote
for the class it ranks higher (a per-model tie is a vote for real, per
the >= in the vote indicator) and takes the majority. An exact overall
tie resolves to real in both schemes.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import groupby, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .baseline import PredictionVector
from .corpus import Label
from .errors import (
    BadProbabilities, BadRecord, DataError, DuplicateId, IdSetMismatch, NoModels, UsageError,
)
from .fileio import parse_id, read_tsv, write_tsv

# The sums a prediction pair may have; anything further off is corrupt.
_SUM_WINDOW = (0.99, 1.01)


class VotingScheme(Enum):
    SOFT = "soft"
    HARD = "hard"


@dataclass(frozen=True, slots=True)
class EnsembleResult:
    """Voting outcome for one item.

    Mean probabilities and vote counts are both recorded regardless of
    scheme; the scheme decides which of them produced the label.
    """

    item_id: int
    p_real: float
    p_fake: float
    votes_real: int
    votes_fake: int
    label: Label
    scheme: VotingScheme


@dataclass(frozen=True)
class PredictionMatrix:
    """Every model's predictions for the same items, one array('d') of
    exact doubles per model and class: p_real[k][j] and p_fake[k][j] are
    model k's probabilities for item_ids[j], and item_ids ascend.

    rows is a read-only view of the same numbers as id -> one vector per
    model, built only for the items looked up.
    """

    model_names: tuple[str, ...]
    item_ids: tuple[int, ...]
    p_real: tuple[array, ...]
    p_fake: tuple[array, ...]

    def __post_init__(self) -> None:
        width, height = len(self.model_names), len(self.item_ids)
        for columns in (self.p_real, self.p_fake):
            if len(columns) != width:
                raise IdSetMismatch(f"{len(columns)} prediction columns for {width} models")
            for name, column in zip(self.model_names, columns):
                if len(column) != height:
                    raise IdSetMismatch(
                        f"model {name!r} has {len(column)} predictions for {height} items"
                    )
        if not all(map(operator.lt, self.item_ids, self.item_ids[1:])):
            raise ValueError("item ids must be unique and ascending")

    @property
    def rows(self) -> Mapping[int, tuple[PredictionVector, ...]]:
        return _Rows(self)


class _Rows(Mapping):
    """A matrix's items as id -> (one PredictionVector per model)."""

    def __init__(self, matrix: PredictionMatrix) -> None:
        self._matrix = matrix

    def __len__(self) -> int:
        return len(self._matrix.item_ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._matrix.item_ids)

    def __getitem__(self, item_id: int) -> tuple[PredictionVector, ...]:
        matrix = self._matrix
        j = bisect_left(matrix.item_ids, item_id)
        if j == len(matrix.item_ids) or matrix.item_ids[j] != item_id:
            raise KeyError(item_id)
        return tuple(
            PredictionVector(item_id, reals[j], fakes[j], name)
            for name, reals, fakes in zip(matrix.model_names, matrix.p_real, matrix.p_fake)
        )


def _row_stats(row: Sequence[PredictionVector]) -> tuple[int, float, float, int, int]:
    if not row:
        raise NoModels()
    item_ids, reals, fakes, _ = zip(*row)
    item_id = item_ids[0]
    n = len(row)
    if item_ids.count(item_id) != n:
        raise ValueError("a voting row must hold predictions for a single item")
    p_real = sum(reals) / n
    p_fake = sum(fakes) / n
    votes_real = sum(map(operator.ge, reals, fakes))
    return item_id, p_real, p_fake, votes_real, n - votes_real


def soft_vote(row: Sequence[PredictionVector]) -> EnsembleResult:
    """Average probabilities across models; higher mean wins."""
    item_id, p_real, p_fake, votes_real, votes_fake = _row_stats(row)
    label = Label.FAKE if p_fake > p_real else Label.REAL
    return EnsembleResult(item_id, p_real, p_fake, votes_real, votes_fake, label, VotingScheme.SOFT)


def hard_vote(row: Sequence[PredictionVector]) -> EnsembleResult:
    """Majority vote over per-model argmax labels."""
    item_id, p_real, p_fake, votes_real, votes_fake = _row_stats(row)
    label = Label.FAKE if votes_fake > votes_real else Label.REAL
    return EnsembleResult(item_id, p_real, p_fake, votes_real, votes_fake, label, VotingScheme.HARD)


def vote_all(
    matrix: PredictionMatrix, scheme: VotingScheme = VotingScheme.SOFT
) -> list[EnsembleResult]:
    """Vote every item once, output ordered by item id."""
    voter = soft_vote if scheme is VotingScheme.SOFT else hard_vote
    names = matrix.model_names
    return [
        voter(tuple(map(PredictionVector, repeat(item_id), reals, fakes, names)))
        for item_id, reals, fakes in zip(matrix.item_ids, zip(*matrix.p_real), zip(*matrix.p_fake))
    ]


def _renormalized(
    item_id: int, model_name: str, p_real: float, p_fake: float
) -> tuple[float, float]:
    """(p_real, p_fake) divided by their sum, the one way a pair enters a
    PredictionMatrix, from a file row or a vector alike. A negative pair,
    or one whose sum is outside _SUM_WINDOW, is a BadProbabilities."""
    if p_real < 0.0 or p_fake < 0.0:
        raise BadProbabilities(item_id, model_name, "negative probability")
    total = p_real + p_fake
    if not (_SUM_WINDOW[0] <= total <= _SUM_WINDOW[1]):
        raise BadProbabilities(
            item_id, model_name, f"probabilities sum to {total!r}, outside {list(_SUM_WINDOW)}"
        )
    return p_real / total, p_fake / total


#: A column as read, in its own order: ids, p_real and p_fake.
Column = tuple[list[int], array, array]


def _column(
    triples: Iterable[tuple[int, float, float]], model_name: str,
    expected: Sequence[int] = (), source: str | None = None,
) -> Column:
    """The triples' ids and renormalized pairs, in the triples' order. A
    repeated id is a DuplicateId naming source. The ids go into a set only
    from the first one out of a known order: expected's, the ids of a
    column already checked, or else ascending."""
    ids: list[int] = []
    reals, fakes = array("d"), array("d")
    seen: set[int] | None = None
    for item_id, p_real, p_fake in triples:
        if seen is None:
            n = len(ids)
            in_order = (n < len(expected) and item_id == expected[n]) if expected else (not ids or ids[-1] < item_id)
            if not in_order:
                seen = set(ids)
        if seen is not None:
            if item_id in seen:
                raise DuplicateId(item_id, source)
            seen.add(item_id)
        p_real, p_fake = _renormalized(item_id, model_name, p_real, p_fake)
        ids.append(item_id)
        reals.append(p_real)
        fakes.append(p_fake)
    return ids, reals, fakes


def _parsed(row: Sequence[str]) -> tuple[int, float, float]:
    try:
        return parse_id(row[0]), float(row[1]), float(row[2])
    except ValueError:
        raise BadRecord(f"unparseable row {row!r}") from None


def _read_prediction_file(path: Path, model_name: str, expected: Sequence[int] = ()) -> Column:
    """A prediction file's column, in file order (see _column)."""
    with read_tsv(path, ("id", "p_real", "p_fake")) as (_, rows):
        return _column(map(_parsed, rows), model_name, expected)


def _ascending(ids: Sequence[int]) -> array | None:
    """The positions of ids in ascending order, or None when they ascend already."""
    if all(map(operator.lt, ids, islice(ids, 1, None))):
        return None
    return array("q", sorted(range(len(ids)), key=ids.__getitem__))


def _taken(values: Sequence, positions: array | None) -> Iterable:
    return values if positions is None else map(values.__getitem__, positions)


def _aligned(
    names: Sequence[str], columns: Iterable[Callable[[Sequence[int]], Column]], sources: Sequence[str],
) -> PredictionMatrix:
    """The matrix of one column per model, each read by a call given the
    first column's ids in its own order. Every column must hold the first
    one's ids; sources name the columns in the mismatch message. A column
    whose ids come in the first one's order is taken as that one is: as
    it is when they ascend, or through the same permutation. Columns are
    read one at a time, and after a mismatch the remaining ones are still
    read, so an error raised while reading one comes before the mismatch."""
    columns = iter(columns)
    first: Sequence[int] = ()
    order: array | None = None
    item_ids: tuple[int, ...] = ()
    reals, fakes = [], []
    mismatch = None
    for index, source in enumerate(sources):
        ids, p_real, p_fake = next(columns)(first)
        if index == 0:
            first, order = ids, _ascending(ids)
            item_ids = tuple(_taken(ids, order))
        positions = order
        if ids != first:
            positions = _ascending(ids)
            if mismatch is None and tuple(_taken(ids, positions)) != item_ids:
                expected, found = set(item_ids), set(ids)
                missing = sorted(expected - found)[:3]
                extra = sorted(found - expected)[:3]
                mismatch = IdSetMismatch(
                    f"{sources[0]} vs {source} (missing e.g. {missing}, unexpected e.g. {extra})"
                )
        if mismatch is None:
            reals.append(p_real if positions is None else array("d", _taken(p_real, positions)))
            fakes.append(p_fake if positions is None else array("d", _taken(p_fake, positions)))
        del ids, p_real, p_fake  # not held while the next column is read
    if mismatch is not None:
        raise mismatch
    return PredictionMatrix(tuple(names), item_ids, tuple(reals), tuple(fakes))


def load_predictions(paths: Sequence[Path | str]) -> PredictionMatrix:
    """Read per-model prediction files into an aligned matrix.

    Each model is named by its file's stem. All files must cover exactly
    the same id set; rows are renormalized when their sum is within 1%
    of 1 and rejected otherwise.
    """
    resolved = [Path(p) for p in paths]
    if not resolved:
        raise UsageError("at least one prediction file is required")
    names = [p.stem for p in resolved]
    columns = (partial(_read_prediction_file, p, name) for p, name in zip(resolved, names))
    return _aligned(names, columns, [p.name for p in resolved])


def restrict_to(matrix: PredictionMatrix, ids: Iterable[int], whose: str = "") -> PredictionMatrix:
    """Subset a matrix to ids it must all cover; whose starts a mismatch message."""
    item_ids = matrix.item_ids
    wanted = [item_id for item_id, _ in groupby(sorted(ids))]  # no set of the ids
    keep = array("q", (bisect_left(item_ids, item_id) for item_id in wanted))
    missing = [
        item_id for item_id, j in zip(wanted, keep) if j == len(item_ids) or item_ids[j] != item_id
    ]
    if missing:
        raise IdSetMismatch(f"{whose}no predictions for items {missing[:5]}")
    if len(wanted) == len(item_ids):
        return matrix
    return PredictionMatrix(
        matrix.model_names,
        tuple(wanted),
        tuple(array("d", _taken(column, keep)) for column in matrix.p_real),
        tuple(array("d", _taken(column, keep)) for column in matrix.p_fake),
    )


def _vector_triples(vectors: Iterable[PredictionVector]) -> Iterator[tuple[int, float, float]]:
    for item_id, p_real, p_fake, _ in vectors:
        if item_id < 0:  # as parse_id rejects it in a file
            raise BadRecord(f"id {item_id} is negative")
        yield item_id, p_real, p_fake


def _vector_column(name: str, vectors: Sequence[PredictionVector], _expected: Sequence[int]) -> Column:
    """A model's vectors as a column in ascending id order, so that no set
    of the ids is made; the first error in the vectors' own order is
    looked for only once the sorted vectors hold one."""
    try:
        return _column(_vector_triples(sorted(vectors, key=operator.itemgetter(0))), name, (), name)
    except DataError:
        _column(_vector_triples(vectors), name, (), name)
        raise


def matrix_from_vectors(named: Mapping[str, Sequence[PredictionVector]]) -> PredictionMatrix:
    """Build a matrix from in-memory model outputs (e.g. the baseline),
    each vector checked and renormalized as a prediction file's row is."""
    if not named:
        raise NoModels()
    columns = (partial(_vector_column, name, vectors) for name, vectors in named.items())
    return _aligned(list(named), columns, [f"model {name!r}" for name in named])


def write_ensemble_tsv(
    results: Sequence[EnsembleResult], path: Path | str, header_comment: str | None = None
) -> None:
    rows = (
        (r.item_id, r.p_real, r.p_fake, r.label.value)
        for r in sorted(results, key=lambda r: r.item_id)
    )
    write_tsv(path, ("id", "p_real", "p_fake", "label"), rows, header_comment)
