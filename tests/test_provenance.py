"""Every artifact's tag, its `# config:` line or its `config_hash` field,
is one hash of the command's settings and of its input files' bytes.

For each command that writes a tag: changing one byte of any input
changes the tag, changing any flag that names no output, or any setting
of a run's config file, changes it, and writing elsewhere writes the
same bytes, tags included.
"""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from _synth import head, make_corpus, tail
from conftest import write_dataset_tsv
import veracity
from veracity.cli import main

_CONFIG = (
    "[data]\ntrain = train.tsv\nvalidation = validation.tsv\ntest = test.tsv\ncache = cache.tsv\n"
)

# command: (argv, with {out} for the output directory; the inputs whose
# bytes the tag covers; extra argv, each of which changes one setting; a
# later --config replaces the first)
CASES = {
    "stats": (
        ["stats", "--train", "train.tsv", "--cache", "cache.tsv", "--out-dir", "{out}",
         "--summary-json", "{out}/summary.json"],
        ["train.tsv", "cache.tsv"],
        [["--train", "copy/train.tsv"], ["--cache", "copy/cache.tsv"]],
    ),
    "train-baseline": (
        ["train-baseline", "--train", "train.tsv", "--out", "{out}/model.json"],
        ["train.tsv"],
        [["--train", "copy/train.tsv"]],
    ),
    "predict": (
        ["predict", "--model", "model.json", "--data", "test.tsv", "--out", "{out}/p.tsv"],
        ["model.json", "test.tsv"],
        [["--model", "copy/model.json"], ["--data", "copy/test.tsv"]],
    ),
    "ensemble": (
        ["ensemble", "--predictions", "m1.tsv", "m2.tsv", "--out", "{out}/e.tsv"],
        ["m1.tsv", "m2.tsv"],
        [["--scheme", "hard"], ["--predictions", "m2.tsv", "m1.tsv"]],
    ),
    "postprocess": (
        ["postprocess", "--data", "test.tsv", "--predictions", "m1.tsv", "m2.tsv",
         "--username-table", "username_stats.tsv", "--domain-table", "domain_stats.tsv",
         "--cache", "cache.tsv", "--out", "{out}/d.tsv"],
        ["test.tsv", "m1.tsv", "m2.tsv", "username_stats.tsv", "domain_stats.tsv", "cache.tsv"],
        [["--threshold", "0.7"], ["--priority", "domain"], ["--threshold", "0"],
         ["--data", "copy/test.tsv"], ["--predictions", "m2.tsv", "m1.tsv"],
         ["--username-table", "copy/username_stats.tsv"],
         ["--domain-table", "copy/domain_stats.tsv"], ["--cache", "copy/cache.tsv"]],
    ),
    "pipeline": (
        ["pipeline", "--config", "run.ini", "--out-dir", "{out}"],
        ["train.tsv", "test.tsv", "cache.tsv"],
        [["--config", "hard.ini"], ["--config", "threshold.ini"], ["--config", "priority.ini"],
         ["--config", "no-threshold.ini"], ["--config", "copy.ini"]],
    ),
    "pipeline with prediction files": (
        ["pipeline", "--config", "files.ini", "--out-dir", "{out}"],
        ["train.tsv", "test.tsv", "cache.tsv", "m1.tsv", "m2.tsv"],
        [["--config", "files-hard.ini"], ["--config", "run.ini"], ["--config", "swapped.ini"]],
    ),
    "ablate": (
        ["ablate", "--config", "run.ini", "--out-dir", "{out}"],
        ["train.tsv", "validation.tsv", "test.tsv", "cache.tsv"],
        [["--tune-threshold"], ["--config", "threshold.ini"],
         ["--config", "no-threshold.ini"], ["--config", "copy.ini"]],
    ),
    # tuning is what reads the priority
    "ablate --tune-threshold": (
        ["ablate", "--config", "run.ini", "--out-dir", "{out}", "--tune-threshold"],
        ["train.tsv", "validation.tsv", "test.tsv", "cache.tsv"],
        [["--config", "priority.ini"]],
    ),
}

# one byte of each input changed, the file still valid
_FLIPS = {
    "train.tsv": (b"covid", b"covie"),
    "validation.tsv": (b"covid", b"covie"),
    "test.tsv": (b"covid", b"covie"),
    "cache.tsv": (b"mirror", b"mirros"),
    "m1.tsv": (b"0.375", b"0.376"),
    "m2.tsv": (b"0.375", b"0.376"),
    "username_stats.tsv": (b"\t0", b"\t9"),
    "domain_stats.tsv": (b"\t0", b"\t9"),
    "model.json": (b": 1,", b": 2,"),
}

_TAG = re.compile(r'^# config: (\w+)$|^ *"config_hash": "(\w+)"', re.M)


@pytest.fixture(scope="module")
def template(tmp_path_factory) -> Path:
    """Every input, as paths relative to this directory, and a copy of
    each under copy/."""
    root = tmp_path_factory.mktemp("inputs")
    corpus = make_corpus(120, seed=5)
    write_dataset_tsv(root / "train.tsv", head(corpus, 60))
    write_dataset_tsv(root / "validation.tsv", tail(head(corpus, 90), 60))
    write_dataset_tsv(root / "test.tsv", tail(corpus, 90))
    links = sorted({word for item in corpus for word in item.text.split() if "://" in word})
    (root / "cache.tsv").write_text(
        "".join(f"{url}\thttps://mirror{k % 3}.example/\n" for k, url in enumerate(links[::3])),
        encoding="utf-8",
    )
    for name, shift in (("m1.tsv", 0), ("m2.tsv", 1)):
        p_real = ((0.375, 0.625)[(n + shift) % 2] for n in range(60))
        rows = "".join(f"{item.id}\t{p}\t{1 - p}\n" for item, p in zip(corpus[60:], p_real))
        (root / name).write_text("id\tp_real\tp_fake\n" + rows, encoding="utf-8")
    assert main(["stats", "--train", str(root / "train.tsv"), "--out-dir", str(root)]) == 0
    assert main(["train-baseline", "--train", str(root / "train.tsv"),
                 "--out", str(root / "model.json")]) == 0
    (root / "copy").mkdir()
    for name in _FLIPS:
        shutil.copy(root / name, root / "copy" / name)
    files, hard = "[predictions]\nfiles = m1.tsv, m2.tsv\n", "[ensemble]\nscheme = hard\n"
    configs = {
        "run.ini": _CONFIG,
        "hard.ini": _CONFIG + hard,
        "threshold.ini": _CONFIG + "[heuristic]\nthreshold = 0.7\n",
        "no-threshold.ini": _CONFIG + "[heuristic]\nthreshold = 0\n",
        "priority.ini": _CONFIG + "[heuristic]\npriority = domain\n",
        "copy.ini": _CONFIG.replace("train.tsv", "copy/train.tsv"),
        "files.ini": _CONFIG + files,
        "files-hard.ini": _CONFIG + files + hard,
        "swapped.ini": _CONFIG + files.replace("m1.tsv, m2.tsv", "m2.tsv, m1.tsv"),
    }
    for name, text in configs.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def _run(out: Path, name: str, extra=()) -> dict[str, bytes]:
    """Run a case, from the directory of its inputs; the files it wrote to out."""
    argv, _, _ = CASES[name]
    assert main([arg.format(out=out) for arg in argv] + list(extra)) == 0
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*"))}


def _tag(files: dict[str, bytes]) -> str:
    """The one tag every artifact of a run carries."""
    tags = {a or b for data in files.values() for a, b in _TAG.findall(data.decode("utf-8"))}
    assert len(tags) == 1, tags
    return tags.pop()


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_output_destination_is_not_a_setting(template, tmp_path, monkeypatch, name):
    monkeypatch.chdir(template)
    here = _run(tmp_path / "here", name)
    there = _run(tmp_path / "a" / "there", name)
    _tag(here)
    assert here == there


@pytest.mark.parametrize("name, flags", [
    pytest.param(name, flags, id=" ".join([name, *flags]))
    for name, (_, _, changes) in CASES.items() for flags in changes
])
def test_every_setting_is_in_the_tag(template, tmp_path, monkeypatch, name, flags):
    monkeypatch.chdir(template)
    before = _tag(_run(tmp_path, name))
    assert _tag(_run(tmp_path, name, flags)) != before


@pytest.mark.parametrize(
    "name, changed", [(name, path) for name, (_, inputs, _) in CASES.items() for path in inputs]
)
def test_every_input_byte_is_in_the_tag(template, tmp_path, monkeypatch, name, changed):
    inputs = tmp_path / "inputs"
    shutil.copytree(template, inputs)
    monkeypatch.chdir(inputs)
    before = _tag(_run(tmp_path / "out", name))
    old, new = _FLIPS[changed]
    data = (inputs / changed).read_bytes()
    assert old in data
    (inputs / changed).write_bytes(data.replace(old, new, 1))
    assert _tag(_run(tmp_path / "out", name)) != before


def test_a_split_the_run_does_not_read_is_not_in_the_tag(template, tmp_path, monkeypatch):
    """pipeline reads no validation split, though the config names one:
    neither its bytes nor its path, nor whether there is one, is in the tag."""
    inputs = tmp_path / "inputs"
    shutil.copytree(template, inputs)
    monkeypatch.chdir(inputs)
    written = _run(tmp_path / "out", "pipeline")
    before = _tag(written)
    (inputs / "validation.tsv").write_bytes(b"not read\n")
    assert _tag(_run(tmp_path / "out", "pipeline")) == before
    (inputs / "other.ini").write_text(_CONFIG.replace("validation.tsv", "copy/validation.tsv"), encoding="utf-8")
    (inputs / "none.ini").write_text(_CONFIG.replace("validation = validation.tsv\n", ""), encoding="utf-8")
    for config in ("other.ini", "none.ini"):
        assert _run(tmp_path / config, "pipeline", ["--config", config]) == written


def test_the_scheme_ablate_does_not_use_is_not_in_the_tag(template, tmp_path, monkeypatch):
    """ablate soft-votes every item, whatever `[ensemble] scheme` says."""
    monkeypatch.chdir(template)
    assert _run(tmp_path / "hard", "ablate", ["--config", "hard.ini"]) == _run(tmp_path / "soft", "ablate")


def test_the_priority_untuned_ablate_does_not_use_is_not_in_the_tag(template, tmp_path, monkeypatch):
    """Without --tune-threshold, ablate's grid sets every priority itself."""
    monkeypatch.chdir(template)
    assert _run(tmp_path / "domain", "ablate", ["--config", "priority.ini"]) == _run(tmp_path / "run", "ablate")


# run in a fresh interpreter, as this one has loaded the test tools
_RUN_ALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
from veracity.cli import main
for argv in json.loads(sys.argv[2]):
    assert main(argv) == 0, argv
print("_hashlib" in sys.modules)
"""


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="this build has no builtin sha256 module, so tags are hashed through hashlib",
)
def test_no_command_loads_openssl(template, tmp_path):
    """hashlib loads OpenSSL's libcrypto, 3.6 MB of every command's peak RSS;
    the tags are hashed with CPython's builtin sha256 module instead."""
    commands = [[arg.format(out=tmp_path / name) for arg in argv] for name, (argv, _, _) in CASES.items()]
    commands.append(["evaluate", "--gold", "test.tsv", "--pred", str(tmp_path / "postprocess" / "d.tsv")])
    src = str(Path(veracity.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _RUN_ALL, src, json.dumps(commands)],
        cwd=template, capture_output=True, text=True, check=True,
    )
    assert result.stdout.endswith("False\n")
