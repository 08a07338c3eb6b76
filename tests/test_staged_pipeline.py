"""`pipeline` writes what the staged commands write.

The same corpus goes once through `pipeline` and once through the stage
commands (`stats`, `train-baseline`, `predict`, `ensemble`,
`postprocess`, `evaluate`). Every artifact the two routes share must
match byte for byte, once the `# config:` lines and the `config_hash`
key, which name each route's own invocation, are dropped.
"""

from __future__ import annotations

import json
import re

import pytest

from _synth import head, make_corpus, tail
from conftest import write_dataset_tsv
from veracity.cli import main

_PROVENANCE = re.compile(rb'^(# config: .*| *"config_hash": .*)\n', re.M)
_SHARED = ("username_stats.tsv", "domain_stats.tsv", "ensemble.tsv", "decisions.tsv")


def _content(path) -> bytes:
    return _PROVENANCE.sub(b"", path.read_bytes())


@pytest.fixture
def inputs(tmp_path):
    corpus = make_corpus(160, seed=31)
    train, test = tmp_path / "train.tsv", tmp_path / "test.tsv"
    test_split = tail(corpus, 100)
    write_dataset_tsv(train, head(corpus, 100))
    write_dataset_tsv(test, test_split)
    # some of the corpus's links expand to another host
    links = sorted({word for item in corpus for word in item.text.split() if "://" in word})
    cache = tmp_path / "cache.tsv"
    cache.write_text(
        "".join(f"{url}\thttps://mirror{k % 3}.example/{k}\n" for k, url in enumerate(links[::4])),
        encoding="utf-8",
    )
    return train, test, cache, [item.id for item in test_split]


def _external_files(tmp_path, ids):
    """Two models' rows, each summing to within the 1 % window but not to 1."""
    paths = []
    for k, scale in enumerate((1.004, 0.9962)):
        path = tmp_path / f"model{k}.tsv"
        rows = []
        for n, item_id in enumerate(ids):
            p_real = (n * 37 + k * 11) % 100 / 100
            rows.append(f"{item_id}\t{p_real * scale!r}\t{(1 - p_real) * scale!r}\n")
        path.write_text("id\tp_real\tp_fake\n" + "".join(rows), encoding="utf-8")
        paths.append(str(path))
    return paths


def _run(argv):
    assert main([str(arg) for arg in argv]) == 0, argv


@pytest.mark.parametrize("scheme", ["soft", "hard"])
@pytest.mark.parametrize("source", ["baseline", "files"])
def test_pipeline_writes_what_the_staged_chain_writes(tmp_path, inputs, source, scheme):
    train, test, cache, test_ids = inputs
    staged, whole = tmp_path / "staged", tmp_path / "pipeline"
    config = f"[data]\ntrain = {train}\ntest = {test}\ncache = {cache}\n"
    config += f"[ensemble]\nscheme = {scheme}\n[output]\ndir = {whole}\n"

    _run(["stats", "--train", train, "--cache", cache, "--out-dir", staged])
    shared = _SHARED
    if source == "baseline":
        model, predictions = staged / "baseline_model.json", staged / "baseline_predictions.tsv"
        _run(["train-baseline", "--train", train, "--out", model])
        _run(["predict", "--model", model, "--data", test, "--out", predictions])
        files = [predictions]
        shared += (model.name, predictions.name)
    else:
        files = _external_files(tmp_path, test_ids)
        config += f"[predictions]\nfiles = {', '.join(files)}\n"
    _run(["ensemble", "--predictions", *files, "--scheme", scheme, "--out", staged / "ensemble.tsv"])
    _run([
        "postprocess", "--data", test, "--predictions", *files,
        "--username-table", staged / "username_stats.tsv",
        "--domain-table", staged / "domain_stats.tsv",
        "--cache", cache, "--out", staged / "decisions.tsv",
    ])
    _run([
        "evaluate", "--gold", test, "--pred", staged / "decisions.tsv",
        "--json-out", staged / "evaluate.json",
    ])
    (tmp_path / "run.ini").write_text(config, encoding="utf-8")
    _run(["pipeline", "--config", tmp_path / "run.ini"])

    for name in shared:
        assert _content(whole / name) == _content(staged / name), name
    report = json.loads((whole / "report.json").read_text(encoding="utf-8"))
    evaluated = json.loads((staged / "evaluate.json").read_text(encoding="utf-8"))
    assert report["post_processed"] == evaluated


def test_a_quoted_domain_survives_the_staged_tables(tmp_path):
    """`https://"evil"/x` links the domain `"evil"`, quotes included; the
    staged chain writes it to a table and reads it back unchanged."""
    link = 'https://"evil"/x'
    train, test, files = tmp_path / "train.tsv", tmp_path / "test.tsv", tmp_path / "m.tsv"
    write_dataset_tsv(train, [(1, f"cure {link}", "fake"), (2, f"hoax {link}", "fake"),
                              (3, "official update", "real"), (4, "vaccine data", "real")])
    write_dataset_tsv(test, [(10, f"read {link}", "fake"), (11, "health report", "real")])
    files.write_text("id\tp_real\tp_fake\n10\t0.9\t0.1\n11\t0.9\t0.1\n", encoding="utf-8")
    staged, whole = tmp_path / "staged", tmp_path / "pipeline"
    _run(["stats", "--train", train, "--out-dir", staged])
    assert '"evil"\t0\t2\n' in (staged / "domain_stats.tsv").read_text(encoding="utf-8")
    _run([
        "postprocess", "--data", test, "--predictions", files,
        "--username-table", staged / "username_stats.tsv",
        "--domain-table", staged / "domain_stats.tsv", "--out", staged / "decisions.tsv",
    ])
    (tmp_path / "run.ini").write_text(
        f"[data]\ntrain = {train}\ntest = {test}\n[predictions]\nfiles = {files}\n"
        f"[output]\ndir = {whole}\n",
        encoding="utf-8",
    )
    _run(["pipeline", "--config", tmp_path / "run.ini"])
    decisions = _content(staged / "decisions.tsv")
    assert decisions == _content(whole / "decisions.tsv")
    assert b"\n10\tfake\tdomain_rule\t" in decisions
