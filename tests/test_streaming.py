"""The training split is read as a stream: every command that learns
from it makes one pass over the file and never holds it whole, and the
artifacts are the same as from a split loaded whole."""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

import pytest

from _synth import make_corpus, head, tail
from veracity import corpus, pipeline
from veracity.cli import main
from veracity.config import RunConfig
from veracity.corpus import load_dataset, save_dataset


def _refuse_loading(monkeypatch, path: Path) -> None:
    """Rebind every `veracity` module attribute bound to load_dataset to a
    wrapper that fails when asked for path."""
    original = corpus.load_dataset

    def guarded(target, *args, **kwargs):
        if Path(target).resolve() == path.resolve():
            raise AssertionError(f"{path.name} was loaded whole")
        return original(target, *args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key != "veracity" and not key.startswith("veracity."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, guarded)


def _outputs(out_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.glob("*"))}


@pytest.mark.parametrize("command", ["pipeline", "ablate", "stats", "train-baseline"])
def test_training_split_is_never_loaded_whole(tmp_path, monkeypatch, capsys, command):
    data = make_corpus(120, seed=13)
    paths = {name: tmp_path / f"{name}.tsv" for name in ("train", "validation", "test")}
    save_dataset(head(data, 60, "train"), paths["train"])
    save_dataset(head(tail(data, 60), 30, "validation"), paths["validation"])
    save_dataset(tail(data, 90, "test"), paths["test"])
    config_path = tmp_path / "run.ini"
    RunConfig(
        train_path=paths["train"],
        validation_path=paths["validation"],
        test_path=paths["test"],
        output_dir=tmp_path / "out",
    ).save(config_path)
    out = tmp_path / "out"
    argv = {
        "pipeline": ["pipeline", "--config", str(config_path)],
        "ablate": ["ablate", "--config", str(config_path), "--tune-threshold"],
        "stats": ["stats", "--train", str(paths["train"]), "--out-dir", str(out),
                  "--summary-json", str(out / "summary.json")],
        "train-baseline": ["train-baseline", "--train", str(paths["train"]),
                           "--out", str(out / "model.json")],
    }[command]
    runs = []
    for guarded in (False, True):
        if guarded:
            _refuse_loading(monkeypatch, paths["train"])
        assert main(argv) == 0
        runs.append((capsys.readouterr(), _outputs(out)))
        for name in runs[-1][1]:
            (out / name).unlink()
    assert runs[0][1]
    assert runs[1] == runs[0]


def test_training_pass_peaks_below_the_loaded_split(tmp_path):
    """The tables and the model are counted from a stream, so building
    them peaks below what the split alone takes when loaded whole."""
    train = tmp_path / "train.tsv"
    save_dataset(make_corpus(10_000, seed=5), train)
    cfg = RunConfig(train_path=train, test_path=train, output_dir=tmp_path / "out")
    tracemalloc.start()
    try:
        dataset = load_dataset(train)
        loaded, _ = tracemalloc.get_traced_memory()
        del dataset
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        train_side = pipeline._load_train_side(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(train_side[1]) == 2
    assert peak - before < loaded
