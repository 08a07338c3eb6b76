"""Every split is read as a stream: every command that learns from the
training split makes one pass over the file and never holds it whole,
`pipeline` and `ablate` read each evaluation split the same way and keep
a few numbers per item instead of its text, `predict` and `evaluate`
stream their dataset too, and the artifacts are the same as from splits
loaded whole."""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

import pytest

from _synth import make_corpus, head, tail
from veracity import baseline, corpus, pipeline
from veracity.attribute_stats import AttrCounts, AttrProbVector
from veracity.cli import main
from veracity.config import RunConfig
from veracity.corpus import Label, NewsItem, load_dataset, save_dataset
from veracity.ensemble import EnsembleResult, VotingScheme
from veracity.heuristic import DecidedBy, DecisionInput, HeuristicDecision
from veracity.preprocess import TweetAttributes

#: The splits each command may only stream.
STREAMED = {
    "pipeline": ("train", "test"),
    "ablate": ("train", "validation", "test"),
    "stats": ("train",),
    "train-baseline": ("train",),
    "predict": ("test",),
    "evaluate": ("test",),
}


def _refuse_loading(monkeypatch, paths: list[Path]) -> None:
    """Rebind every `veracity` module attribute bound to load_dataset to a
    wrapper that fails when asked for one of paths."""
    original = corpus.load_dataset
    refused = {path.resolve() for path in paths}

    def guarded(target, *args, **kwargs):
        if Path(target).resolve() in refused:
            raise AssertionError(f"{Path(target).name} was loaded whole")
        return original(target, *args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key != "veracity" and not key.startswith("veracity."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, guarded)


def _outputs(out_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.glob("*"))}


@pytest.mark.parametrize("command", sorted(STREAMED))
def test_training_split_is_never_loaded_whole(tmp_path, monkeypatch, capsys, command):
    # and neither is any evaluation split the command reads
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
    model, pred = tmp_path / "model.json", tmp_path / "pred.tsv"
    baseline.save_model(baseline.train(head(data, 60)), model)
    pred.write_text("id\tlabel\n" + "".join(f"{i.id}\treal\n" for i in tail(data, 90)), encoding="utf-8")
    argv = {
        "pipeline": ["pipeline", "--config", str(config_path)],
        "ablate": ["ablate", "--config", str(config_path), "--tune-threshold"],
        "stats": ["stats", "--train", str(paths["train"]), "--out-dir", str(out),
                  "--summary-json", str(out / "summary.json")],
        "train-baseline": ["train-baseline", "--train", str(paths["train"]),
                           "--out", str(out / "model.json")],
        "predict": ["predict", "--model", str(model), "--data", str(paths["test"]),
                    "--out", str(out / "pred.tsv")],
        "evaluate": ["evaluate", "--gold", str(paths["test"]), "--pred", str(pred),
                     "--json-out", str(out / "eval.json")],
    }[command]
    runs = []
    for guarded in (False, True):
        if guarded:
            _refuse_loading(monkeypatch, [paths[name] for name in STREAMED[command]])
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


@pytest.mark.parametrize("external", [False, True], ids=["baseline", "prediction-files"])
def test_evaluation_pass_holds_no_split_text(tmp_path, external):
    """An evaluation split is read a batch at a time and kept as per-item
    records, so the pass holds no more than about a batch beyond what it
    keeps; without model vectors, the records are smaller than the text
    they replace, so the pass peaks below the split loaded whole. Posts
    have 25 words, about the length of the paper's (bench/gen.py)."""
    data = make_corpus(12_000, seed=5, words_per_item=25)
    train, test = tmp_path / "train.tsv", tmp_path / "test.tsv"
    save_dataset(head(data, 2_000), train)
    save_dataset(tail(data, 2_000), test)
    prediction_paths = ()
    if external:
        prediction_paths = (tmp_path / "model.tsv",)
        rows = "".join(f"{item.id}\t0.7\t0.3\n" for item in data)
        prediction_paths[0].write_text("id\tp_real\tp_fake\n" + rows, encoding="utf-8")
    cfg = RunConfig(train_path=train, test_path=test, prediction_paths=prediction_paths,
                    output_dir=tmp_path / "out")
    cache, tables, source = pipeline._load_train_side(cfg)
    tracemalloc.start()
    try:
        dataset = load_dataset(test)
        loaded, _ = tracemalloc.get_traced_memory()
        del dataset
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        records, vectors = pipeline._read_split(test, source, tables, cache)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [record[0] for record in records] == sorted(item.id for item in tail(data, 2_000))
    assert len(vectors) == (0 if external else 10_000)
    assert peak - held < loaded / 2  # a batch is a fifth of the split
    if external:
        assert peak - before < loaded


_ENS = EnsembleResult(1, 0.75, 0.25, 1, 0, Label.REAL, VotingScheme.SOFT)
_VEC = AttrProbVector(0.9, 0.1, 10, True)


@pytest.mark.parametrize(
    "instance",
    [
        NewsItem(1, "text", Label.REAL),
        AttrCounts(9, 1),
        _VEC,
        TweetAttributes(("bob",), (), ()),
        _ENS,
        DecisionInput(1, _ENS, _VEC, AttrProbVector.absent()),
        HeuristicDecision(1, Label.REAL, DecidedBy.USERNAME_RULE, _VEC, _VEC, 0.75),
    ],
    ids=lambda instance: type(instance).__name__,
)
def test_per_item_records_have_slots(instance):
    # one is kept per post or per attribute, so none carries an instance dict
    assert type(instance).__slots__
    assert not hasattr(instance, "__dict__")
