"""The README's CLI and config examples parse as they read, the config
example names every config key, every `veracity.` name it spells
resolves, the package itself loads no module and carries the project's
version, it imports nothing beyond the standard library, and no module
keeps an import it does not use: a flag or name removed from the program
cannot stay in the docs, a key cannot go undocumented, a dependency
cannot creep in, and a deletion cannot leave its imports behind."""

from __future__ import annotations

import ast
import configparser
import importlib
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import veracity
from veracity.cli import build_parser
from veracity import config
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


def _config_example() -> str:
    block = re.search(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert block, "README has no ini code block"
    return block.group(1)


def test_readme_config_example_parses():
    cfg = parse_config_text(_config_example(), source="README.md")
    assert cfg.prediction_paths == (Path("preds/a.tsv"), Path("preds/b.tsv"))


def test_readme_config_example_names_every_key():
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(_config_example())
    named = {(section, key) for section in parser.sections() for key in parser.options(section)}
    assert named == {(section, key) for section, key, _, _ in config._KEYS}


def _dotted_names(text: str) -> list[str]:
    """Every backticked `veracity.a.b` in text, a call's arguments cut off."""
    return re.findall(r"`(veracity(?:\.\w+)+)(?:\([^`]*\))?`", text)


def _unresolved(names: list[str]) -> list[str]:
    """The names that do not resolve: the longest prefix that is a module
    is imported, and getattr walks the rest."""
    missing = []
    for name in names:
        parts = name.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                found = importlib.import_module(".".join(parts[:cut]))
                break
            except ModuleNotFoundError:
                continue
        for part in parts[cut:]:
            found = getattr(found, part, None)
        if found is None:
            missing.append(name)
    return missing


def test_readme_dotted_names_resolve():
    names = _dotted_names(README.read_text(encoding="utf-8"))
    assert len(names) >= 7
    assert _unresolved(names) == []


def test_a_deleted_name_in_the_readme_is_caught():
    text = README.read_text(encoding="utf-8") + "\n`veracity.corpus.save_dataset(dataset, path)`\n"
    assert _unresolved(_dotted_names(text)) == ["veracity.corpus.save_dataset"]


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, at any depth."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("module", sorted(p.name for p in Path(veracity.__file__).parent.glob("*.py")))
def test_no_unused_imports(module):
    source = (Path(veracity.__file__).parent / module).read_text(encoding="utf-8")
    assert _unused_imports(source) == []


def test_an_unused_import_is_caught():
    source = "from .ensemble import (\n    EnsembleResult,\n    vote_all,\n)\nimport json\n\nvote_all(json.dumps)\n"
    assert _unused_imports(source) == ["EnsembleResult"]


# run in a fresh interpreter, as this one has loaded the test tools; what
# was loaded before the import (site set-up may load packages) is not counted
_IMPORT_ALL = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import veracity
for module in pkgutil.iter_modules(veracity.__path__):
    importlib.import_module(f"veracity.{module.name}")
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - sys.stdlib_module_names - {"veracity"}))
"""


def test_runtime_imports_only_the_standard_library():
    src = str(Path(veracity.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL, src], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


# the package's __init__ alone: its modules are imported by name, as needed
_IMPORT_PACKAGE = """
import sys
sys.path.insert(0, sys.argv[1])
import veracity
print(sorted(name for name in sys.modules if name.startswith("veracity.")))
print(veracity.__version__)
"""


def test_package_import_loads_no_module_and_names_the_version():
    root = Path(veracity.__file__).resolve().parents[2]
    version = re.search(r'^version = "([^"]+)"$', (root / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PACKAGE, str(root / "src")], capture_output=True, text=True, check=True
    )
    assert result.stdout == f"[]\n{version.group(1)}\n"
