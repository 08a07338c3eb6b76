"""Every error this package raises survives pickling: `pipeline` and
`ablate` raise, in the main process, the error their attribute-side
process sent, so its type and message must come through unchanged."""

from __future__ import annotations

import inspect
import pickle

import pytest

from veracity import errors

#: One instance of every class in errors.py, built fresh for each test.
MAKERS = [
    lambda: errors.PipelineError("the attribute-side process ended without a result"),
    lambda: errors.UsageError("--priority: a name may appear only once"),
    lambda: errors.DataError("predictions missing ids, e.g. [3]"),
    lambda: errors.BadRecord("expected 3 columns, found 2"),
    lambda: errors.DuplicateId(5),
    lambda: errors.BadLabel("maybe", 7),
    lambda: errors.EmptyText(3),
    lambda: errors.UnlabeledItem(4),
    lambda: errors.ZeroSupport(),
    lambda: errors.BadUrl("https://"),
    lambda: errors.NoModels(),
    lambda: errors.IdSetMismatch("a.tsv vs b.tsv"),
    lambda: errors.BadProbabilities(2, "m", "negative probability"),
    lambda: errors.DegenerateTraining("only one class in the training split"),
    lambda: errors.LengthMismatch(3, 2),
]


def test_every_error_class_is_covered():
    classes = {
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.PipelineError)
    }
    assert {type(make()) for make in MAKERS} == classes


@pytest.mark.parametrize("located", [False, True], ids=["unlocated", "located"])
@pytest.mark.parametrize("make", MAKERS, ids=lambda make: type(make()).__name__)
def test_error_survives_pickling(make, located):
    error = make()
    if located and isinstance(error, errors.DataError):
        # as fileio.open_lines locates an error raised while it reads
        error.source, error.line_no = "x.tsv", 4
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(error, protocol))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert copy.args == error.args
        assert getattr(copy, "source", None) == getattr(error, "source", None)
        assert getattr(copy, "line_no", None) == getattr(error, "line_no", None)
        assert vars(copy) == vars(error)


def test_duplicate_id_message_is_not_repeated():
    # the message once, then where it is
    error = pickle.loads(pickle.dumps(errors.DuplicateId(5, source="x.tsv")))
    assert str(error) == "duplicate item id 5 in x.tsv"
