"""Every split is read as a stream: every command that learns from the
training split makes one pass over the file and never holds it whole,
`pipeline` and `ablate` read each evaluation split the same way and keep
a few numbers per item instead of its text, as `postprocess` does with
its dataset, `predict` and `evaluate` stream their dataset too, and the
artifacts are the same as from splits loaded whole."""

from __future__ import annotations

import pickle
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from _synth import make_corpus, head, tail
from conftest import write_dataset_tsv
from veracity import baseline, corpus, pipeline
from veracity.attribute_stats import AttrCounts, AttrProbVector, build_tables, save_tables
from veracity.cli import main
from veracity.config import RunConfig
from veracity.corpus import Label, NewsItem, load_dataset
from veracity.ensemble import EnsembleResult, VotingScheme
from veracity.heuristic import DecidedBy, DecisionInput, HeuristicDecision
from veracity.preprocess import TweetAttributes, UrlExpansionCache

#: The splits each command may only stream.
STREAMED = {
    "pipeline": ("train", "test"),
    "ablate": ("train", "validation", "test"),
    "stats": ("train",),
    "train-baseline": ("train",),
    "predict": ("test",),
    "evaluate": ("test",),
    "postprocess": ("test",),
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
    write_dataset_tsv(paths["train"], head(data, 60))
    write_dataset_tsv(paths["validation"], head(tail(data, 60), 30))
    write_dataset_tsv(paths["test"], tail(data, 90))
    config_path = tmp_path / "run.ini"
    config_path.write_text(RunConfig(
        train_path=paths["train"],
        validation_path=paths["validation"],
        test_path=paths["test"],
        output_dir=tmp_path / "out",
    ).to_text(), encoding="utf-8")
    out = tmp_path / "out"
    model, pred = tmp_path / "model.json", tmp_path / "pred.tsv"
    baseline.save_model(baseline.train(head(data, 60)), model)
    pred.write_text("id\tlabel\n" + "".join(f"{i.id}\treal\n" for i in tail(data, 90)), encoding="utf-8")
    tables, probabilities = tmp_path / "tables", tmp_path / "probabilities.tsv"
    save_tables(build_tables(head(data, 60)), tables)
    probabilities.write_text(
        "id\tp_real\tp_fake\n" + "".join(f"{i.id}\t0.7\t0.3\n" for i in tail(data, 90)), encoding="utf-8"
    )
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
        "postprocess": ["postprocess", "--data", str(paths["test"]), "--predictions", str(probabilities),
                        "--username-table", str(tables / "username_stats.tsv"),
                        "--domain-table", str(tables / "domain_stats.tsv"), "--out", str(out / "d.tsv")],
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
    them peaks below what the split alone takes when loaded whole. Each
    side is run here in this process."""
    train = tmp_path / "train.tsv"
    write_dataset_tsv(train, make_corpus(10_000, seed=5))
    cfg = RunConfig(train_path=train, test_path=train, output_dir=tmp_path / "out")
    tracemalloc.start()
    try:
        dataset = load_dataset(train)
        loaded, _ = tracemalloc.get_traced_memory()
        del dataset
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        tables = next(pipeline.attribute_side(cfg, ()))
        model = pipeline.prediction_source(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tables) == 2
    assert isinstance(model, baseline.BowModel)
    assert peak - before < loaded


@pytest.mark.parametrize("external", [False, True], ids=["baseline", "prediction-files"])
def test_evaluation_pass_holds_no_split_text(tmp_path, external):
    """An evaluation split is read a post at a time by each side and kept
    as per-item records and, from the built-in model, vectors, so the
    passes hold little beyond what they keep; without model vectors, the
    records are smaller than the text they replace, so the passes peak
    below the split loaded whole. Posts have 25 words, about the length
    of the paper's (bench/gen.py). Each side is run here in this process."""
    data = make_corpus(12_000, seed=5, words_per_item=25)
    train, test = tmp_path / "train.tsv", tmp_path / "test.tsv"
    write_dataset_tsv(train, head(data, 2_000))
    write_dataset_tsv(test, tail(data, 2_000))
    prediction_paths = ()
    if external:
        prediction_paths = (tmp_path / "model.tsv",)
        rows = "".join(f"{item.id}\t0.7\t0.3\n" for item in data)
        prediction_paths[0].write_text("id\tp_real\tp_fake\n" + rows, encoding="utf-8")
    cfg = RunConfig(train_path=train, test_path=test, prediction_paths=prediction_paths,
                    output_dir=tmp_path / "out")
    attribute_side = pipeline.attribute_side(cfg, [test])
    next(attribute_side)  # the tables
    source = pipeline.prediction_source(cfg)
    tracemalloc.start()
    try:
        dataset = load_dataset(test)
        loaded, _ = tracemalloc.get_traced_memory()
        del dataset
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        vectors = pipeline.split_vectors(source, test)
        records = next(attribute_side)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [record[0] for record in records] == sorted(item.id for item in tail(data, 2_000))
    assert len(vectors) == (0 if external else 10_000)
    assert peak - held < loaded / 2
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
        DecisionInput(_ENS, _VEC, AttrProbVector.absent(), Label.REAL),
        HeuristicDecision(1, Label.REAL, DecidedBy.USERNAME_RULE, _VEC, _VEC, 0.75),
    ],
    ids=lambda instance: type(instance).__name__,
)
def test_per_item_records_have_slots(instance):
    # one is kept per post or per attribute, so none carries an instance dict
    assert type(instance).__slots__
    assert not hasattr(instance, "__dict__")


def test_attribute_vectors_survive_the_pipe():
    """The attribute-side child pickles its records, present and absent
    vectors alike, and this process reads back equal ones, each vector that
    posts share still shared."""
    shared = AttrProbVector(0.25, 0.75, 4, True)
    records = [(1, _VEC, AttrProbVector.absent(), Label.REAL), (2, AttrProbVector.absent(), _VEC, None),
               (3, shared, shared, Label.FAKE), (4, _VEC, shared, Label.REAL)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(records, protocol))
        assert copy == records
        assert copy[0][2] is copy[1][1]  # one absent vector per message, as sent
        assert copy[0][1] is copy[1][2] is copy[3][1]
        assert copy[2][1] is copy[2][2] is copy[3][2]
        assert copy[0][1] is not copy[2][1]
        assert all(type(vector) is AttrProbVector for record in copy for vector in record[1:3])


def test_records_hold_under_150_bytes_per_post(tmp_path):
    """A split's records share one vector per distinct handle or domain
    list, as the pipe delivers them: 126 B per post here, where the posts
    draw on the paper's 880 handles and 210 domains, against 184 B when
    each post held vectors of its own."""
    data = make_corpus(21_400, seed=5, n_real_domains=210, n_fake_handles=880)
    test = tmp_path / "test.tsv"
    write_dataset_tsv(test, tail(data, 10_700))
    tables = build_tables(head(data, 10_700))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        records = pipeline.split_records(test, tables, UrlExpansionCache())
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 10_700
    assert sum(record[1].present or record[2].present for record in records) > 6_000
    assert (held - before) / 10_700 < 150


@pytest.mark.parametrize("external", [False, True], ids=["baseline", "prediction-files"])
def test_ablate_drops_its_prediction_source_before_the_last_vote(tmp_path, monkeypatch, external):
    """ablation_contexts holds the trained model, or the prediction files'
    rows, through the validation split's vote and no further than the test
    split's matrix: that split's vote runs without it."""
    data = make_corpus(150, seed=5)
    paths = {name: tmp_path / f"{name}.tsv" for name in ("train", "validation", "test")}
    write_dataset_tsv(paths["train"], head(data, 50))
    write_dataset_tsv(paths["validation"], head(tail(data, 50), 50))
    write_dataset_tsv(paths["test"], tail(data, 100))
    prediction_paths = ()
    if external:
        prediction_paths = (tmp_path / "model.tsv",)
        rows = "".join(f"{item.id}\t0.7\t0.3\n" for item in tail(data, 50))
        prediction_paths[0].write_text("id\tp_real\tp_fake\n" + rows, encoding="utf-8")
    cfg = RunConfig(train_path=paths["train"], validation_path=paths["validation"],
                    test_path=paths["test"], prediction_paths=prediction_paths, output_dir=tmp_path / "out")
    sources, alive = [], []

    def tracked_source(*args):
        source = prediction_source(*args)
        sources.append(weakref.ref(source))
        return source

    def tracked_vote(matrix, *args):
        alive.append(sources[0]() is not None)
        return vote_all(matrix, *args)

    prediction_source, vote_all = pipeline.prediction_source, pipeline.vote_all
    monkeypatch.setattr(pipeline, "prediction_source", tracked_source)
    monkeypatch.setattr(pipeline, "vote_all", tracked_vote)
    validation, test, _ = pipeline.ablation_contexts(cfg)
    assert (len(validation), len(test)) == (50, 50)
    assert len(sources) == 1
    assert alive == [True, False]
