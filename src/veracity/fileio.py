"""Small file helpers: atomic writes, the TSV artifact layout, input
checks and comment-aware line reading."""

from __future__ import annotations

import csv
import os
import tempfile
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import UsageError


def atomic_write_text(path: Path, text: str) -> None:
    """Write text to path via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_tsv(
    path: Path | str, header: Sequence[str], rows: Iterable[Sequence], comment: str | None = None
) -> None:
    """Write a tab-separated artifact: an optional `# comment` line, the
    header, then one line per row. Cells are written with str(), which
    for a float is its shortest round-tripping repr."""
    lines = [f"# {comment}"] if comment else []
    lines.append("\t".join(header))
    lines.extend("\t".join(map(str, row)) for row in rows)
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def require_file(path: Path | str | None, what: str) -> Path:
    """The path of an existing file; a UsageError when it is unset or missing."""
    if path is None:
        raise UsageError(f"missing required {what} path")
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"{what} file not found: {path}")
    return path


def data_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield (physical line number, line) for lines that are neither blank
    nor '#' comments; skipped lines still count toward the numbering."""
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield line_no, line


def data_rows(lines: Iterable[str], delimiter: str = "\t") -> Iterator[tuple[int, list[str]]]:
    """Yield (physical line number, csv row) over the data lines; a row
    whose quoted field spans lines carries the number of its last line."""
    line_no = 0

    def numbered() -> Iterator[str]:
        nonlocal line_no
        for line_no, line in data_lines(lines):
            yield line

    for row in csv.reader(numbered(), delimiter=delimiter):
        yield line_no, row
