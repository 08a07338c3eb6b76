"""Artifacts are written from a stream of pieces, a block at a time, and
still atomically: the bytes are those of the text joined whole, and a
stream that fails partway leaves the earlier file as it was."""

from __future__ import annotations

import pytest

from veracity.errors import BadRecord
from veracity.fileio import _PIECES_PER_WRITE, atomic_write_text, write_tsv


def _joined_tsv(header, rows, comment) -> str:
    """The text write_tsv wrote when it joined every line first."""
    lines = [f"# {comment}"] if comment else []
    lines.append("\t".join(header))
    lines.extend("\t".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("comment", ["config: 0123abcd", "", None])
@pytest.mark.parametrize("n_rows", [0, 1, 2 * _PIECES_PER_WRITE + 1])
def test_write_tsv_writes_the_joined_text(tmp_path, comment, n_rows):
    header = ("id", "p_real", "label", "note")
    rows = [(i, i / 7, "real" if i % 3 else "fake", "-" if i % 2 else "é") for i in range(n_rows)]
    path = tmp_path / "out.tsv"
    write_tsv(path, header, iter(rows), comment)
    assert path.read_bytes() == _joined_tsv(header, rows, comment).encode("utf-8")


def test_pieces_are_joined_across_blocks(tmp_path):
    pieces = [f"{i}," for i in range(3 * _PIECES_PER_WRITE)] + ["", "end\n"]
    path = tmp_path / "out.txt"
    atomic_write_text(path, iter(pieces))
    assert path.read_text(encoding="utf-8") == "".join(pieces)
    atomic_write_text(path, "whole\n")
    assert path.read_text(encoding="utf-8") == "whole\n"


@pytest.mark.parametrize("error", [RuntimeError("boom"), BadRecord("bad row", "in.tsv", 9)])
@pytest.mark.parametrize("writer", ["write_tsv", "atomic_write_text"])
def test_a_failing_stream_leaves_the_earlier_file(tmp_path, error, writer):
    path = tmp_path / "out.tsv"
    path.write_text("earlier\n", encoding="utf-8")

    def rows():
        for i in range(2 * _PIECES_PER_WRITE):  # fails after a block is written
            yield (i, "x")
        raise error

    with pytest.raises(type(error)):
        if writer == "write_tsv":
            write_tsv(path, ("id", "x"), rows())
        else:
            atomic_write_text(path, ("\t".join(map(str, row)) + "\n" for row in rows()))
    assert path.read_text(encoding="utf-8") == "earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.tsv"]
