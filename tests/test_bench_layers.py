"""The traced benchmark run (bench/tracing.py) wraps each function its
LAYERS table names, looked up by module and name at run time; a rename
or deletion in `veracity` would break traced runs without failing any
other test. Its per-item layers are only meaningful while each post is
scanned once per kind and voted once, so that is pinned here too."""

from __future__ import annotations

import importlib
import importlib.util
import multiprocessing
import sys
from collections import Counter
from pathlib import Path

import pytest

from _synth import make_corpus, head, tail
from conftest import write_dataset_tsv
from veracity import baseline, ensemble, fileio, preprocess
from veracity.cli import main
from veracity.config import RunConfig
from veracity.heuristic import write_decisions_tsv

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_layers_resolve():
    tracing = _load_tracing()
    targets = [(module, function) for module, function, _, _ in tracing.LAYERS]
    targets.append(tracing.ROOT[:2])
    for module_name, function in targets:
        module = importlib.import_module(f"veracity.{module_name}")
        assert callable(getattr(module, function, None)), f"veracity.{module_name}.{function}"


class _SharedCounts:
    """Call counts in shared memory, which a forked child adds to as well."""

    NAMES = ("extract_attributes", "clean_text", "soft_vote", "hard_vote", "tokenize")

    def __init__(self) -> None:
        self.array = multiprocessing.Array("q", len(self.NAMES))

    def add(self, name: str) -> None:
        with self.array.get_lock():
            self.array[self.NAMES.index(name)] += 1

    def __getitem__(self, name: str) -> int:
        return self.array[self.NAMES.index(name)]

    def clear(self) -> None:
        self.array[:] = [0] * len(self.NAMES)


def _count_scans(monkeypatch) -> _SharedCounts:
    """Wrap the per-post scans and the two votes the way
    bench/tracing.py installs its wrappers: every `veracity` module
    attribute bound to the original is rebound to a counting wrapper.
    `pipeline` and `ablate` scan in two processes, so the counts are
    shared with the child, which inherits the wrappers."""
    calls = _SharedCounts()
    modules = [m for key, m in sys.modules.items() if key == "veracity" or key.startswith("veracity.")]
    owners = (preprocess, preprocess, ensemble, ensemble, baseline)
    for owner, name in zip(owners, _SharedCounts.NAMES):
        original = getattr(owner, name)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            calls.add(_name)
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls


def _split_paths(tmp_path):
    corpus = make_corpus(90, seed=21)
    splits = {
        "train": head(corpus, 40),
        "validation": head(tail(corpus, 40), 20),
        "test": tail(corpus, 60),
    }
    paths = {}
    for name, split in splits.items():
        paths[name] = tmp_path / f"{name}.tsv"
        write_dataset_tsv(paths[name], split)
    return paths, {name: len(split) for name, split in splits.items()}


@pytest.mark.parametrize("external", [False, True], ids=["baseline", "prediction-files"])
@pytest.mark.parametrize("command", ["pipeline", "ablate"])
def test_one_scan_of_each_kind_per_item(tmp_path, monkeypatch, command, external):
    paths, sizes = _split_paths(tmp_path)
    prediction_paths = ()
    if external:
        # covers the validation and test ids, which follow the train ids
        rows = "".join(f"{i}\t0.7\t0.3\n" for i in range(sizes["train"], sum(sizes.values())))
        prediction_paths = (tmp_path / "model.tsv",)
        prediction_paths[0].write_text("id\tp_real\tp_fake\n" + rows, encoding="utf-8")
    cfg = RunConfig(
        train_path=paths["train"],
        validation_path=paths["validation"],
        test_path=paths["test"],
        prediction_paths=prediction_paths,
        output_dir=tmp_path / "out",
    )
    config_path = tmp_path / "run.ini"
    config_path.write_text(cfg.to_text(), encoding="utf-8")
    calls = _count_scans(monkeypatch)
    # many chunks of training text for the two processes to share; the forked child inherits this
    monkeypatch.setattr(baseline, "CHUNK_POSTS", 3)
    argv = [command, "--config", str(config_path)]
    if command == "ablate":
        argv.append("--tune-threshold")
    voted = sizes["test"] + (sizes["validation"] if command == "ablate" else 0)
    loaded = sizes["train"] + voted
    # pipeline votes by the configured scheme; ablate always soft-votes
    for scheme in (["soft", "hard"] if command == "pipeline" else ["soft"]):
        calls.clear()
        assert main(argv + (["--scheme", scheme] if command == "pipeline" else [])) == 0
        assert calls["extract_attributes"] == loaded
        assert calls["clean_text"] == (0 if external else loaded)
        assert calls["soft_vote"] + calls["hard_vote"] == voted
        assert calls[f"{scheme}_vote"] == voted
        # by whichever process counts a training post's chunk, or this one predicting
        assert calls["tokenize"] == (0 if external else loaded)


def test_traced_row_count_builds_no_vectors(monkeypatch):
    """The traced run counts a loaded matrix's rows as models x ids; that
    count must come from the columns, not from a vector per cell."""
    built = Counter()
    original = ensemble.PredictionVector

    def counting(*args, **kwargs):
        built["vectors"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(ensemble, "PredictionVector", counting)
    item_ids = (2, 5, 9, 11)
    columns = tuple(tuple(0.1 * k for _ in item_ids) for k in range(3))
    matrix = ensemble.PredictionMatrix(("a", "b", "c"), item_ids, columns, columns[::-1])
    note = _load_tracing()._note("ensemble.load_predictions", (), {}, matrix)
    assert note == {"rows": 12}
    assert built["vectors"] == 0
    assert len(matrix.rows[9]) == 3 and built["vectors"] == 3  # the counter does see lookups


def test_traced_streamed_writes_record_their_size(tmp_path, monkeypatch):
    """The writers hand atomic_write_text a stream of pieces; the traced
    run still reads each artifact's size off that call, from the file."""
    tracer = _load_tracing().Tracer("run")
    original = fileio.atomic_write_text
    wrapped = tracer.span(original, "fileio.atomic_write_text")
    for key, module in list(sys.modules.items()):
        if key == "veracity" or key.startswith("veracity."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapped)
    corpus = make_corpus(40, seed=3)
    model = baseline.train(corpus)
    vectors = baseline.predict_dataset(model, corpus)
    paths = [tmp_path / name for name in ("model.json", "predictions.tsv", "decisions.tsv", "ensemble.tsv")]
    baseline.save_model(model, paths[0])
    baseline.write_predictions(vectors, paths[1], "config: x")
    write_decisions_tsv([], paths[2])
    ensemble.write_ensemble_tsv(ensemble.vote_all(ensemble.matrix_from_vectors({"m": vectors})), paths[3])
    assert [span["name"] for span in tracer.spans] == ["fileio.atomic_write_text"] * 4
    assert [span["bytes"] for span in tracer.spans] == [path.stat().st_size for path in paths]
    assert all(path.stat().st_size > 0 for path in paths)
