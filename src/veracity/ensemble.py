"""Combine per-model prediction vectors by soft or hard voting.

Soft voting averages each class's probabilities across models and takes
the class with the higher mean. Hard voting gives each model one vote
for the class it ranks higher (a per-model tie is a vote for real, per
the >= in the vote indicator) and takes the majority. An exact overall
tie resolves to real in both schemes.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .baseline import PredictionVector
from .corpus import Label
from .errors import BadProbabilities, BadRecord, DuplicateId, IdSetMismatch, NoModels, UsageError
from .fileio import data_rows, open_lines, parse_id, write_tsv

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
    """Every model's predictions for the same items, one float column per
    model and class: p_real[k][j] and p_fake[k][j] are model k's
    probabilities for item_ids[j], and item_ids ascend.

    rows is a read-only view of the same numbers as id -> one vector per
    model, built only for the items looked up.
    """

    model_names: tuple[str, ...]
    item_ids: tuple[int, ...]
    p_real: tuple[tuple[float, ...], ...]
    p_fake: tuple[tuple[float, ...], ...]

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


def _read_prediction_file(path: Path, model_name: str) -> dict[int, tuple[float, float]]:
    """id -> (p_real, p_fake), renormalized to sum to 1."""
    pairs: dict[int, tuple[float, float]] = {}
    with open_lines(path) as lines:
        rows = data_rows(lines)
        header = next(rows, None)
        if header is None:
            raise BadRecord("file is empty")
        if [cell.strip().lower() for cell in header] != ["id", "p_real", "p_fake"]:
            raise BadRecord(f"expected header id/p_real/p_fake, found {header!r}")
        for row in rows:
            if len(row) != 3:
                raise BadRecord(f"expected 3 columns, found {len(row)}")
            item_id = parse_id(row[0])
            try:
                p_real = float(row[1])
                p_fake = float(row[2])
            except ValueError:
                raise BadRecord(f"unparseable row {row!r}") from None
            if item_id in pairs:
                raise DuplicateId(item_id)
            pairs[item_id] = _renormalized(item_id, model_name, p_real, p_fake)
    return pairs


def _aligned(
    names: Sequence[str],
    columns: Iterable[dict[int, tuple[float, float]]],
    sources: Sequence[str],
) -> PredictionMatrix:
    """The matrix of one id -> renormalized (p_real, p_fake) column per
    model. Every column must cover the first one's ids; sources name the
    columns in the mismatch message. Columns are taken one at a time and
    emptied as their floats are copied out, so they may be read lazily.
    After a mismatch the remaining columns are still drawn, so an error
    raised while producing one comes before the mismatch."""
    columns = iter(columns)
    ids: set[int] | None = None  # made only when a second column is checked
    item_ids: tuple[int, ...] = ()
    reals, fakes = [], []
    mismatch = None
    for index, source in enumerate(sources):
        # drawn with next(), not zip(), whose reused result tuple would
        # hold the last column while the next one is read
        column = next(columns)
        if index == 0:
            item_ids = tuple(sorted(column))
        elif mismatch is None and column.keys() != (ids := ids or set(item_ids)):
            missing = sorted(ids - column.keys())[:3]
            extra = sorted(column.keys() - ids)[:3]
            mismatch = IdSetMismatch(
                f"{sources[0]} vs {source} (missing e.g. {missing}, unexpected e.g. {extra})"
            )
        if mismatch is None:
            # no list of the floats beside each tuple, and each pair is
            # freed as its second float is copied out
            reals.append(tuple(map(operator.itemgetter(0), map(column.__getitem__, item_ids))))
            fakes.append(tuple(map(operator.itemgetter(1), map(column.pop, item_ids))))
        del column  # not held while the next column is read
    if mismatch is not None:
        raise mismatch
    return PredictionMatrix(tuple(names), item_ids, tuple(reals), tuple(fakes))


def load_predictions(
    paths: Sequence[Path | str], model_names: Sequence[str] | None = None
) -> PredictionMatrix:
    """Read per-model prediction files into an aligned matrix.

    Model names default to the file name stems. All files must cover
    exactly the same id set; rows are renormalized when their sum is
    within 1% of 1 and rejected otherwise.
    """
    resolved = [Path(p) for p in paths]
    if not resolved:
        raise UsageError("at least one prediction file is required")
    if model_names is None:
        names = [p.stem for p in resolved]
    else:
        names = list(model_names)
        if len(names) != len(resolved):
            raise UsageError(
                f"{len(resolved)} prediction files but {len(names)} model names"
            )
    columns = (_read_prediction_file(p, name) for p, name in zip(resolved, names))
    return _aligned(names, columns, [p.name for p in resolved])


def restrict_to(matrix: PredictionMatrix, ids: Iterable[int], whose: str = "") -> PredictionMatrix:
    """Subset a matrix to ids it must all cover; whose starts a mismatch message."""
    wanted = sorted(set(ids))
    position = {item_id: j for j, item_id in enumerate(matrix.item_ids)}
    missing = [item_id for item_id in wanted if item_id not in position]
    if missing:
        raise IdSetMismatch(f"{whose}no predictions for items {missing[:5]}")
    if len(wanted) == len(position):
        return matrix
    keep = [position[item_id] for item_id in wanted]
    return PredictionMatrix(
        matrix.model_names,
        tuple(wanted),
        tuple(tuple([column[j] for j in keep]) for column in matrix.p_real),
        tuple(tuple([column[j] for j in keep]) for column in matrix.p_fake),
    )


def matrix_from_vectors(named: Mapping[str, Iterable[PredictionVector]]) -> PredictionMatrix:
    """Build a matrix from in-memory model outputs (e.g. the baseline),
    each vector checked and renormalized as a prediction file's row is."""
    if not named:
        raise NoModels()
    columns: list[dict[int, tuple[float, float]]] = []
    for name, vectors in named.items():
        pairs: dict[int, tuple[float, float]] = {}
        for item_id, p_real, p_fake, _ in vectors:
            if item_id < 0:  # as parse_id rejects it in a file
                raise BadRecord(f"id {item_id} is negative")
            if item_id in pairs:
                raise DuplicateId(item_id, source=name)
            pairs[item_id] = _renormalized(item_id, name, p_real, p_fake)
        columns.append(pairs)
    return _aligned(list(named), columns, [f"model {name!r}" for name in named])


def write_ensemble_tsv(
    results: Sequence[EnsembleResult], path: Path | str, header_comment: str | None = None
) -> None:
    rows = (
        (r.item_id, r.p_real, r.p_fake, r.label.value)
        for r in sorted(results, key=lambda r: r.item_id)
    )
    write_tsv(path, ("id", "p_real", "p_fake", "label"), rows, header_comment)
