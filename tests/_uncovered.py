"""The lines of the package that no tier-1 test runs. Standard library and
pytest only:

    python3 tests/_uncovered.py

It runs the tier-1 suite (tests/) in this process under
sys.settrace, tracing only the frames of src/veracity, and prints
`file:line: source` for each executable line that no test ran, then a
count. pytest's own report goes to stderr. It exits 0 whatever the
tests do: it is a report, not a gate.

Lines that run only in the child process `pipeline` and `ablate` fork
are listed too, since the child's trace ends with it: the body of
_serve_attribute_side, and attribute_side's branches taken only with a
claim. Tests that start a fresh interpreter are not traced either.
"""

from __future__ import annotations

import contextlib
import os
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "veracity"


def executable_lines(path: Path) -> set[int]:
    """The line numbers the compiled module's code objects start an
    instruction on; 0, a module's own start, aside."""
    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def run_traced() -> set[tuple[str, int]]:
    """(file, line) of every package line the suite ran; a call counts its def line."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        ran.add((code.co_filename, code.co_firstlineno))
        return local

    sys.settrace(calls)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return ran


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))  # the checkout's package, not an installed one
    ran = run_traced()
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} executable lines of src/veracity no test ran")
    return 0


if __name__ == "__main__":  # a spawned child imports this file again, and must not rerun the suite
    sys.exit(main())
