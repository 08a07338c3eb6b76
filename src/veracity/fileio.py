"""Small file helpers: atomic writes, the TSV artifact layout and its
one reader, input checks, the one way input files are opened and
hashed, comment-aware line reading, and the one id parser."""

from __future__ import annotations

import csv
import os
import tempfile
from contextlib import contextmanager, suppress
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import BadRecord, DataError, UsageError

# CPython's builtin sha256, the one constructor of every tag: hashlib's loads
# OpenSSL's libcrypto, 3.6 MB of peak RSS, and computes the same digest
try:
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

#: Pieces of text that atomic_write_text joins into one write.
_PIECES_PER_WRITE = 2048
#: The most bytes file_sha256 reads at a time. 1 MiB blocks added 0.3 MB
#: to a command's peak RSS and hashed no faster.
_HASH_BLOCK = 1 << 16


def atomic_write_text(path: Path, text: str | Iterable[str]) -> None:
    """Write text, or its pieces a block at a time, to path via a temp file
    in the same directory, then rename; if the pieces raise, path is left
    as it was. The file gets the mode open(path, "w") would give it: 0666
    less the umask. A path that cannot be written is a UsageError naming it."""
    path = Path(path)
    pieces = iter([text] if isinstance(text, str) else text)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                umask = os.umask(0)  # the umask can only be read by setting it
                os.umask(umask)
                os.fchmod(fd, 0o666 & ~umask)
                while block := list(islice(pieces, _PIECES_PER_WRITE)):
                    handle.write("".join(block))
            os.replace(tmp_name, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp_name)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_tsv(
    path: Path | str, header: Sequence[str], rows: Iterable[Sequence], comment: str | None = None
) -> None:
    """Write a tab-separated artifact: an optional `# comment` line, the
    header, then one line per row. Cells are written with str(), which
    for a float is its shortest round-tripping repr. Lines are formatted
    as they are written."""
    head = [f"# {comment}"] if comment else []
    lines = chain(head, ["\t".join(header)], ("\t".join(map(str, row)) for row in rows))
    atomic_write_text(Path(path), (line + "\n" for line in lines))


@contextmanager
def read_tsv(path: Path, header: Sequence[str] = ()) -> Iterator[tuple[list[str], Iterator[list[str]]]]:
    """(names, rows) of a file in write_tsv's layout, read in the block: a row per line but
    blank and '#' ones, split on tabs and never unquoted. names, the first row's cells stripped
    and lowercased, must equal header if it is given, and every later row must be as wide."""

    def as_wide(rows: Iterable[list[str]], width: int) -> Iterator[list[str]]:
        for row in rows:
            if len(row) != width:
                raise BadRecord(f"expected {width} columns, found {len(row)}")
            yield row

    with open_lines(path) as lines:
        rows = csv.reader(data_lines(lines), delimiter="\t", quoting=csv.QUOTE_NONE)
        names = [cell.strip().lower() for cell in next(rows, ())]
        if not names:
            raise BadRecord("file is empty")
        if header and names != list(header):
            raise BadRecord(f"expected header {'/'.join(header)}, found {names!r}")
        yield names, as_wide(rows, len(names))


def require_file(path: Path | str | None, what: str) -> Path:
    """The path of an existing file; a UsageError when it is unset or missing."""
    if path is None:
        raise UsageError(f"missing required {what} path")
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"{what} file not found: {path}")
    return path


@contextmanager
def open_lines(path: Path) -> Iterator[Iterator[str]]:
    """The lines of a UTF-8 text file, endings kept (as csv.reader wants
    them) and a leading byte-order mark dropped.

    A DataError raised in the block that names no file is located at
    this file and the last line read. Bytes that are not UTF-8, and csv
    errors such as an oversized field, become such a BadRecord.
    """
    line_no = 0

    def numbered(handle) -> Iterator[str]:
        nonlocal line_no
        for line_no, line in enumerate(handle, start=1):
            yield line

    try:
        with path.open("r", encoding="utf-8-sig", newline="") as handle:
            yield numbered(handle)
    except UnicodeDecodeError:
        # text is decoded in chunks, ahead of the lines handed out, so the
        # first bad byte's line is counted on the raw bytes
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            detail = f"not UTF-8 text ({exc.reason}: byte 0x{data[exc.start]:02x})"
            line = len((data[: exc.start] + b".").splitlines())
            raise BadRecord(detail, path.name, line) from None
        raise
    except csv.Error as exc:
        raise BadRecord(str(exc), path.name, line_no) from None
    except DataError as exc:
        if exc.source is None:
            exc.source, exc.line_no = path.name, line_no or None
        raise


def file_sha256(path: Path) -> bytes:
    """The sha256 of a file's bytes, read a block at a time."""
    digest = sha256()
    with path.open("rb") as handle:
        while block := handle.read(_HASH_BLOCK):
            digest.update(block)
    return digest.digest()


def data_lines(lines: Iterable[str]) -> Iterator[str]:
    """The lines that are neither blank nor '#' comments."""
    for line in lines:
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield line


def parse_id(cell: str, what: str = "id") -> int:
    """An item id, or the count that what names: ASCII digits, once
    stripped, that int() converts. Any other cell, such as "1_0", "+7",
    "٣" or "-3", is a BadRecord."""
    text = cell.strip()
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # past int()'s limit on digits; a try costs nothing per row
            pass
    if text.startswith("-") and text[1:].isascii() and text[1:].isdigit():
        raise BadRecord(f"{what} {text} is negative")
    raise BadRecord(f"{what} {cell!r} is not an integer")
