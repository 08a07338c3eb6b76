"""The README's CLI and config examples parse as they read, and the
package exports only names it defines: a flag or name removed from the
program cannot stay in the docs or in `veracity.__all__`."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

import veracity
from veracity.cli import build_parser
from veracity.config import parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_examples() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n+```\n(.*?)^```", text, re.M | re.S)
    assert block, "README has no code block under '## CLI'"
    joined = block.group(1).replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in joined.splitlines()]
    return [argv for argv in commands if argv]


EXAMPLES = _cli_examples()


@pytest.mark.parametrize("example", EXAMPLES, ids=[" ".join(argv[:2]) for argv in EXAMPLES])
def test_readme_cli_example_parses(example):
    program, *argv = example
    assert program == "veracity"
    build_parser().parse_args(argv)


def test_readme_config_example_parses():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^```ini\n(.*?)^```", text, re.M | re.S)
    assert block, "README has no ini code block"
    cfg = parse_config_text(block.group(1), source="README.md")
    assert cfg.prediction_paths == (Path("preds/a.tsv"), Path("preds/b.tsv"))


def test_package_exports_resolve():
    missing = [name for name in veracity.__all__ if not hasattr(veracity, name)]
    assert missing == []
