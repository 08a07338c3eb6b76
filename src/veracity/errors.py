"""Exception types shared across the pipeline.

Everything raised on purpose by this package derives from PipelineError.
UsageError means the invocation was wrong (missing file, bad flag, unknown
config key); DataError means an input file or record was malformed or
inconsistent. The CLI maps these to exit codes 1 and 2 respectively.
"""

from __future__ import annotations

import copyreg


class PipelineError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # restored without __init__, whose parameters differ per subclass
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class UsageError(PipelineError):
    """Bad invocation: missing paths, malformed flags, unknown config keys."""


class DataError(PipelineError):
    """Malformed or inconsistent input data.

    `source` and `line_no` name the input file and its physical line, once
    known; fileio.open_lines fills them in for errors raised while it
    reads a file. The message ends with them.
    """

    source: str | None = None
    line_no: int | None = None

    def where(self) -> str:
        where = f" in {self.source}" if self.source else ""
        return where + (f" (line {self.line_no})" if self.line_no is not None else "")

    def __str__(self) -> str:
        return super().__str__() + self.where()


class BadRecord(DataError):
    """A row that cannot be parsed at all (wrong column count, bad id)."""

    def __init__(self, detail: str, source: str | None = None, line_no: int | None = None):
        self.detail = detail
        self.source = source
        self.line_no = line_no
        super().__init__(detail)

    def __str__(self) -> str:
        return f"bad record{self.where()}: {self.detail}"


class DuplicateId(DataError):
    def __init__(self, item_id: int, source: str | None = None):
        self.item_id = item_id
        self.source = source
        super().__init__(f"duplicate item id {item_id}")


class BadLabel(DataError):
    def __init__(self, value: str, item_id: int | None = None):
        self.value = value
        self.item_id = item_id
        who = f" for item {item_id}" if item_id is not None else ""
        super().__init__(f"unknown label {value!r}{who}")


class EmptyText(DataError):
    def __init__(self, item_id: int):
        self.item_id = item_id
        super().__init__(f"item {item_id} has empty text")


class UnlabeledItem(DataError):
    def __init__(self, item_id: int):
        self.item_id = item_id
        super().__init__(f"item {item_id} has no label but one is required here")


class ZeroSupport(DataError):
    def __init__(self) -> None:
        super().__init__("cannot derive probabilities from zero counts")


class NoModels(DataError):
    def __init__(self) -> None:
        super().__init__("cannot vote over an empty prediction row")


class IdSetMismatch(DataError):
    def __init__(self, detail: str):
        super().__init__(f"prediction id sets do not line up: {detail}")


class BadProbabilities(DataError):
    def __init__(self, item_id: int, model_name: str, detail: str):
        self.item_id = item_id
        self.model_name = model_name
        super().__init__(
            f"model {model_name!r}, item {item_id}: {detail}"
        )


class DegenerateTraining(DataError):
    def __init__(self, detail: str):
        super().__init__(f"cannot train: {detail}")


class LengthMismatch(DataError):
    def __init__(self, n_gold: int, n_pred: int):
        self.n_gold = n_gold
        self.n_pred = n_pred
        super().__init__(
            f"gold has {n_gold} labels but predictions have {n_pred}"
            if n_gold or n_pred else "no items to score"
        )
