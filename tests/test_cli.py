from __future__ import annotations

import json
import mmap
import multiprocessing
import os
import shutil
import stat
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from _options import subcommand_options
from _synth import make_corpus, head, tail
from conftest import write_dataset_tsv
from veracity import baseline, pipeline, urlexpand
from veracity.cli import main
from veracity.config import RunConfig, config_hash, load_config, parse_config_text
from veracity.corpus import Label, iter_dataset
from veracity.errors import UsageError
from veracity.preprocess import load_cache


TINY_ROWS = [
    (1, "update @icmr via https://news.sky/a", "real"),
    (2, "@icmr says fine", "real"),
    (3, "@hoax claims https://thespoof.com/x", "fake"),
    (4, "read https://thespoof.com/y from @hoax", "fake"),
    (5, "plain words only", "real"),
    (6, "@icmr misquoted badly", "fake"),
]


@pytest.fixture
def tiny_train(tmp_path):
    path = tmp_path / "train.tsv"
    write_dataset_tsv(path, TINY_ROWS)
    return path


SUBCOMMANDS = (
    "stats", "train-baseline", "predict", "ensemble", "postprocess",
    "pipeline", "evaluate", "ablate", "expand-urls",
)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--help"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: veracity {command} ")


@pytest.mark.parametrize("argv, removed", [
    pytest.param(["stats", "--train", "t.tsv", "--out-dir", "o"], ["--dedup-per-item"], id="stats"),
    pytest.param(["train-baseline", "--train", "t.tsv", "--out", "m.json"], ["--name", "x"], id="train-baseline"),
    pytest.param(["evaluate", "--gold", "g.tsv", "--pred", "p.tsv"], ["--average", "macro"], id="evaluate"),
    pytest.param(["train-baseline", "--train", "t.tsv", "--out", "m.json"], ["--alpha", "2"],
                 id="train-baseline --alpha"),
    *(pytest.param([command, "--config", "run.ini"], [flag, value], id=f"{command} {flag}")
      for command in ("pipeline", "ablate")
      for flag, value in (("--threshold", "0.5"), ("--priority", "domain"))),
    pytest.param(["pipeline", "--config", "run.ini"], ["--scheme", "hard"], id="pipeline --scheme"),
    pytest.param(["ablate", "--config", "run.ini"], ["--ordering", "domain"], id="ablate --ordering"),
    pytest.param(["expand-urls", "--data", "d.tsv", "--out", "c.tsv"], ["--urls-file", "u.txt"],
                 id="expand-urls --urls-file"),
])
def test_removed_flags_are_usage_errors(argv, removed, capsys):
    assert main(argv + removed) == 1
    assert capsys.readouterr().err == f"usage error: unrecognized arguments: {' '.join(removed)}\n"


def test_a_run_is_its_config_file():
    """pipeline and ablate take their settings from the config alone; of
    the paper's ablation, only tuning the threshold is a flag."""
    options = subcommand_options()
    assert options["pipeline"] == {"--config", "--out-dir"}
    assert options["ablate"] == {"--config", "--out-dir", "--tune-threshold"}
    assert options["train-baseline"] == {"--train", "--out"}


def test_a_clean_section_is_an_unknown_section(tmp_path, capsys):
    config_path = tmp_path / "run.ini"
    config_path.write_text("[clean]\nremove_urls = true\n", encoding="utf-8")
    assert main(["pipeline", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"usage error: unknown config section [clean] in {config_path}\n"


def test_a_baseline_section_is_an_unknown_section(tmp_path, capsys):
    # every model train fits is smoothed with alpha 1.0, which its file records
    config_path = tmp_path / "run.ini"
    config_path.write_text("[baseline]\nalpha = 1.0\n", encoding="utf-8")
    assert main(["pipeline", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"usage error: unknown config section [baseline] in {config_path}\n"


def test_stats_matches_hand_built_goldens(tiny_train, tmp_path, capsys):
    out_dir = tmp_path / "stats"
    assert main(["stats", "--train", str(tiny_train), "--out-dir", str(out_dir)]) == 0
    username_lines = (out_dir / "username_stats.tsv").read_text(encoding="utf-8").splitlines()
    assert username_lines[1:] == [
        "attribute\treal_count\tfake_count",
        "hoax\t0\t2",
        "icmr\t2\t1",
    ]
    domain_lines = (out_dir / "domain_stats.tsv").read_text(encoding="utf-8").splitlines()
    assert domain_lines[1:] == [
        "attribute\treal_count\tfake_count",
        "news.sky\t1\t0",
        "thespoof.com\t0\t2",
    ]
    printed = capsys.readouterr().out
    assert "unique usernames: 2" in printed
    assert "unique domains: 2" in printed


def test_stats_summary_json(tiny_train, tmp_path):
    out_dir = tmp_path / "stats"
    json_path = tmp_path / "summary.json"
    assert main(
        ["stats", "--train", str(tiny_train), "--out-dir", str(out_dir),
         "--summary-json", str(json_path)]
    ) == 0
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert payload == {
        "item_count": 6,
        "real_fraction": 0.5,
        "fake_fraction": 0.5,
        "unique_usernames": 2,
        "unique_domains": 2,
    }


def test_stats_header_only_split_has_no_fractions(tmp_path, capsys):
    train = tmp_path / "train.tsv"
    write_dataset_tsv(train, [])
    json_path = tmp_path / "summary.json"
    assert main(["stats", "--train", str(train), "--out-dir", str(tmp_path / "stats"),
                 "--summary-json", str(json_path)]) == 0
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert payload == {
        "item_count": 0,
        "real_fraction": None,
        "fake_fraction": None,
        "unique_usernames": 0,
        "unique_domains": 0,
    }
    assert capsys.readouterr().out == "items: 0\nunique usernames: 0\nunique domains: 0\n"


def test_stats_unwritable_summary_json_prints_no_summary(tiny_train, tmp_path, capsys):
    rc = main(["stats", "--train", str(tiny_train), "--out-dir", str(tmp_path / "o"),
               "--summary-json", str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write {tmp_path}: ")


def test_stats_summary_json_naming_a_directory_writes_no_table(tiny_train, tmp_path, capsys):
    out_dir = tmp_path / "o"
    out_dir.mkdir()
    rc = main(["stats", "--train", str(tiny_train), "--out-dir", str(out_dir),
               "--summary-json", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"usage error: cannot write {tmp_path}: Is a directory\n"
    assert list(out_dir.iterdir()) == []


def test_stats_missing_cache_is_usage_error(tiny_train, tmp_path, capsys):
    rc = main(
        ["stats", "--train", str(tiny_train), "--cache", str(tmp_path / "nope.tsv"),
         "--out-dir", str(tmp_path / "o")]
    )
    assert rc == 1
    assert "cache file not found" in capsys.readouterr().err


def test_train_predict_round_trip(tiny_train, tmp_path):
    model_path = tmp_path / "model.json"
    assert main(["train-baseline", "--train", str(tiny_train), "--out", str(model_path)]) == 0
    preds_path = tmp_path / "preds.tsv"
    assert main(
        ["predict", "--model", str(model_path), "--data", str(tiny_train),
         "--out", str(preds_path)]
    ) == 0
    lines = preds_path.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "id\tp_real\tp_fake"
    assert len(lines) == 2 + len(TINY_ROWS)
    for line in lines[2:]:
        _, p_real, p_fake = line.split("\t")
        assert abs(float(p_real) + float(p_fake) - 1.0) <= 1e-9


def _write_prediction_file(path, rows):
    lines = ["id\tp_real\tp_fake"] + [f"{i}\t{r}\t{f}" for i, r, f in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_ensemble_command_soft_votes(tmp_path, capsys):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    _write_prediction_file(a, [(1, 0.6, 0.4), (2, 0.2, 0.8)])
    _write_prediction_file(b, [(1, 0.9, 0.1), (2, 0.4, 0.6)])
    out = tmp_path / "ens.tsv"
    assert main(["ensemble", "--predictions", str(a), str(b), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[2].split("\t")[0] == "1"
    assert lines[2].endswith("real")
    assert lines[3].endswith("fake")
    assert float(lines[2].split("\t")[1]) == pytest.approx(0.75)


def test_ensemble_command_id_mismatch_exit_2(tmp_path, capsys):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    _write_prediction_file(a, [(1, 0.6, 0.4)])
    _write_prediction_file(b, [(2, 0.4, 0.6)])
    rc = main(["ensemble", "--predictions", str(a), str(b), "--out", str(tmp_path / "o.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "a.tsv" in err and "b.tsv" in err


def test_postprocess_command(tiny_train, tmp_path):
    stats_dir = tmp_path / "stats"
    main(["stats", "--train", str(tiny_train), "--out-dir", str(stats_dir)])
    test_path = tmp_path / "eval.tsv"
    write_dataset_tsv(
        test_path,
        [(10, "breaking https://thespoof.com/z", "fake"), (11, "calm text", "real")],
    )
    preds = tmp_path / "m.tsv"
    _write_prediction_file(preds, [(10, 0.9, 0.1), (11, 0.7, 0.3)])
    out = tmp_path / "decisions.tsv"
    rc = main(
        ["postprocess", "--data", str(test_path), "--predictions", str(preds),
         "--username-table", str(stats_dir / "username_stats.tsv"),
         "--domain-table", str(stats_dir / "domain_stats.tsv"),
         "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[2].split("\t")[:3] == ["10", "fake", "domain_rule"]
    assert lines[3].split("\t")[:3] == ["11", "real", "ensemble"]


@pytest.mark.parametrize(
    "missing", ["--data", "--predictions", "--username-table", "--domain-table", "--cache"]
)
def test_postprocess_checks_every_path_before_reading_any(
    tiny_train, tmp_path, monkeypatch, capsys, missing
):
    def no_data(*args, **kwargs):
        raise AssertionError("the invocation must be refused before any data is read")

    stats_dir = tmp_path / "stats"
    assert main(["stats", "--train", str(tiny_train), "--out-dir", str(stats_dir)]) == 0
    preds = tmp_path / "m.tsv"
    _write_prediction_file(preds, [(i, 0.9, 0.1) for i in range(1, 7)])
    cache = tmp_path / "cache.tsv"
    cache.write_text("https://t.co/x\thttps://news.sky/a\n", encoding="utf-8")
    paths = {
        "--data": tiny_train,
        "--predictions": preds,
        "--username-table": stats_dir / "username_stats.tsv",
        "--domain-table": stats_dir / "domain_stats.tsv",
        "--cache": cache,
    }
    paths[missing] = tmp_path / "absent.tsv"
    argv = ["postprocess", "--out", str(tmp_path / "d.tsv")]
    for flag, path in paths.items():
        argv += [flag, str(path)]
    for reader in ("load_predictions", "load_table", "load_cache", "split_records"):
        monkeypatch.setattr(f"veracity.cli.{reader}", no_data)
    assert main(argv) == 1
    assert f"file not found: {tmp_path / 'absent.tsv'}" in capsys.readouterr().err
    assert not (tmp_path / "d.tsv").exists()


def test_evaluate_command(tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    write_dataset_tsv(gold, [(1, "a", "real"), (2, "b", "real"), (3, "c", "fake"), (4, "d", "fake")])
    pred = tmp_path / "pred.tsv"
    pred.write_text(
        "id\tlabel\n1\treal\n2\tfake\n3\tfake\n4\tfake\n", encoding="utf-8"
    )
    json_out = tmp_path / "report.json"
    rc = main(["evaluate", "--gold", str(gold), "--pred", str(pred), "--json-out", str(json_out)])
    assert rc == 0
    assert "accuracy  0.7500" in capsys.readouterr().out
    payload = json.loads(json_out.read_text(encoding="utf-8"))
    assert payload["accuracy"] == 0.75
    assert payload["confusion"] == [[1, 1], [0, 2]]


def test_evaluate_unwritable_json_out_prints_no_report(tmp_path, capsys):
    gold, pred = tmp_path / "gold.tsv", tmp_path / "p.tsv"
    write_dataset_tsv(gold, [(1, "a", "real"), (2, "b", "fake")])
    pred.write_text("id\tlabel\n1\treal\n2\tfake\n", encoding="utf-8")
    assert main(["evaluate", "--gold", str(gold), "--pred", str(pred), "--json-out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write {tmp_path}: ")


@pytest.mark.parametrize("header", ["id\tlabel\tid", "label\tid\tlabel", "id\tscore"])
def test_evaluate_needs_one_id_and_one_label_column(tmp_path, capsys, header):
    gold, pred = tmp_path / "gold.tsv", tmp_path / "p.tsv"
    write_dataset_tsv(gold, [(1, "a", "real"), (2, "b", "fake")])
    pred.write_text(f"{header}\n1\treal\t2\n2\tfake\t1\n", encoding="utf-8")
    assert main(["evaluate", "--gold", str(gold), "--pred", str(pred)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error (BadRecord): bad record in p.tsv (line 1): header ")


@pytest.mark.parametrize(
    "bad_row", ["x\treal", "2"], ids=["non-integer id", "short of the label column"]
)
def test_evaluate_malformed_prediction_row_exit_2(tmp_path, capsys, bad_row):
    gold = tmp_path / "gold.tsv"
    write_dataset_tsv(gold, [(1, "a", "real"), (2, "b", "fake")])
    pred = tmp_path / "pred.tsv"
    pred.write_text(f"# config: x\nid\tlabel\n1\treal\n{bad_row}\n", encoding="utf-8")
    assert main(["evaluate", "--gold", str(gold), "--pred", str(pred)]) == 2
    assert "in pred.tsv (line 4)" in capsys.readouterr().err


@pytest.mark.parametrize("bad_row", ["2\t0.4", "two\t0.4\t0.6"])
def test_ensemble_bad_prediction_row_names_line(tmp_path, capsys, bad_row):
    preds = tmp_path / "a.tsv"
    preds.write_text(
        f"# config: x\nid\tp_real\tp_fake\n1\t0.6\t0.4\n{bad_row}\n", encoding="utf-8"
    )
    rc = main(["ensemble", "--predictions", str(preds), "--out", str(tmp_path / "o.tsv")])
    assert rc == 2
    assert "in a.tsv (line 4)" in capsys.readouterr().err


def test_postprocess_bad_table_row_names_physical_line(tiny_train, tmp_path, capsys):
    stats_dir = tmp_path / "stats"
    assert main(["stats", "--train", str(tiny_train), "--out-dir", str(stats_dir)]) == 0
    table = stats_dir / "username_stats.tsv"
    lines = table.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config: ")
    lines[3] = "icmr\t2\tmany"  # the fourth line of the file
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    preds = tmp_path / "m.tsv"
    _write_prediction_file(preds, [(i, 0.9, 0.1) for i in range(1, 7)])
    rc = main(
        ["postprocess", "--data", str(tiny_train), "--predictions", str(preds),
         "--username-table", str(table), "--domain-table", str(stats_dir / "domain_stats.tsv"),
         "--out", str(tmp_path / "d.tsv")]
    )
    assert rc == 2
    assert "in username_stats.tsv (line 4)" in capsys.readouterr().err


def test_postprocess_repeated_table_row_exit_2(tiny_train, tmp_path, capsys):
    stats_dir = tmp_path / "stats"
    assert main(["stats", "--train", str(tiny_train), "--out-dir", str(stats_dir)]) == 0
    table = stats_dir / "username_stats.tsv"
    table.write_text("attribute\treal_count\tfake_count\nbob\t5\t0\nbob\t0\t7\n", encoding="utf-8")
    preds = tmp_path / "m.tsv"
    _write_prediction_file(preds, [(i, 0.9, 0.1) for i in range(1, 7)])
    rc = main(
        ["postprocess", "--data", str(tiny_train), "--predictions", str(preds),
         "--username-table", str(table), "--domain-table", str(stats_dir / "domain_stats.tsv"),
         "--out", str(tmp_path / "d.tsv")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "repeated attribute 'bob'" in err
    assert "in username_stats.tsv (line 3)" in err
    assert not (tmp_path / "d.tsv").exists()


def test_postprocess_table_row_without_counts_exit_2(tiny_train, tmp_path, capsys):
    stats_dir = tmp_path / "stats"
    assert main(["stats", "--train", str(tiny_train), "--out-dir", str(stats_dir)]) == 0
    table = stats_dir / "username_stats.tsv"
    table.write_text("attribute\treal_count\tfake_count\nbob\t5\t0\nx\t0\t0\n", encoding="utf-8")
    preds = tmp_path / "m.tsv"
    _write_prediction_file(preds, [(i, 0.9, 0.1) for i in range(1, 7)])
    rc = main(
        ["postprocess", "--data", str(tiny_train), "--predictions", str(preds),
         "--username-table", str(table), "--domain-table", str(stats_dir / "domain_stats.tsv"),
         "--out", str(tmp_path / "d.tsv")]
    )
    assert rc == 2
    assert capsys.readouterr().err == (
        "data error (BadRecord): bad record in username_stats.tsv (line 3): attribute 'x' has invalid counts\n"
    )
    assert not (tmp_path / "d.tsv").exists()


def _pipeline_config(tmp_path, corpus_seed=77, n=120, **overrides) -> Path:
    corpus = make_corpus(n, seed=corpus_seed)
    train = head(corpus, n // 2)
    test = tail(corpus, n // 2)
    train_path = tmp_path / "train.tsv"
    test_path = tmp_path / "test.tsv"
    write_dataset_tsv(train_path, train)
    write_dataset_tsv(test_path, test)
    cache_path = tmp_path / "cache.tsv"
    cache_path.write_text("# empty cache\n", encoding="utf-8")
    cfg = RunConfig(
        train_path=train_path,
        test_path=test_path,
        cache_path=cache_path,
        output_dir=tmp_path / "out",
        **overrides,
    )
    config_path = tmp_path / "run.ini"
    config_path.write_text(cfg.to_text(), encoding="utf-8")
    return config_path


def test_pipeline_writes_all_artifacts(tmp_path, capsys):
    config_path = _pipeline_config(tmp_path)
    assert main(["pipeline", "--config", str(config_path)]) == 0
    out_dir = tmp_path / "out"
    for name in (
        "username_stats.tsv", "domain_stats.tsv", "baseline_model.json",
        "baseline_predictions.tsv", "ensemble.tsv", "decisions.tsv",
        "report.txt", "report.json",
    ):
        assert (out_dir / name).is_file(), name
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["post_processed"]["f1"] >= report["ensemble_only"]["f1"]
    cfg = load_config(config_path)
    digest = config_hash(cfg, inputs=[cfg.test_path])
    assert (out_dir / "ensemble.tsv").read_text(encoding="utf-8").startswith(f"# config: {digest}")


def test_pipeline_on_an_unlabeled_test_split_writes_no_metrics(tmp_path, capsys):
    # the shared task's own test set came without labels: the run decides and does not score
    config_path = _pipeline_config(tmp_path)
    test_path = tmp_path / "test.tsv"
    write_dataset_tsv(test_path, list(iter_dataset(test_path)), labeled=False)
    assert main(["pipeline", "--config", str(config_path)]) == 0
    out_dir = tmp_path / "out"
    assert not (out_dir / "report.json").exists()
    report = (out_dir / "report.txt").read_text(encoding="utf-8").splitlines()
    assert report[1] == "items: 60"
    assert report[-1] == "metrics: (target split unlabeled; no evaluation)"
    printed = capsys.readouterr().out.splitlines()  # the files written, and no metrics block
    assert all(line.startswith("wrote ") for line in printed)
    assert printed[-1] == f"wrote {out_dir / 'report.txt'}"


def test_pipeline_deterministic_reruns(tmp_path):
    config_path = _pipeline_config(tmp_path)
    assert main(["pipeline", "--config", str(config_path)]) == 0
    out_dir = tmp_path / "out"
    first = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert main(["pipeline", "--config", str(config_path)]) == 0
    second = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert first == second


def test_pipeline_with_external_predictions(tmp_path):
    corpus = make_corpus(40, seed=13)
    train = head(corpus, 20)
    test = tail(corpus, 20)
    train_path, test_path = tmp_path / "train.tsv", tmp_path / "test.tsv"
    write_dataset_tsv(train_path, train)
    write_dataset_tsv(test_path, test)
    ids = [item.id for item in test]
    pred_paths = []
    # four agreeing external models: ensemble must follow them
    for k in range(4):
        path = tmp_path / f"model{k}.tsv"
        _write_prediction_file(
            path, [(i, 0.8 - 0.05 * k, 0.2 + 0.05 * k) for i in ids]
        )
        pred_paths.append(str(path))
    cfg_text = (
        "[data]\n"
        f"train = {train_path}\n"
        f"test = {test_path}\n"
        "[predictions]\n"
        f"files = {', '.join(pred_paths)}\n"
        "[output]\n"
        f"dir = {tmp_path / 'out'}\n"
    )
    config_path = tmp_path / "run.ini"
    config_path.write_text(cfg_text, encoding="utf-8")
    assert main(["pipeline", "--config", str(config_path)]) == 0
    ens_lines = (tmp_path / "out" / "ensemble.tsv").read_text(encoding="utf-8").splitlines()
    rows = [line.split("\t") for line in ens_lines[2:]]
    assert len(rows) == 20
    expected_p_real = (0.8 + 0.75 + 0.7 + 0.65) / 4
    for row in rows:
        assert float(row[1]) == pytest.approx(expected_p_real)
        assert row[3] == "real"
    assert not (tmp_path / "out" / "baseline_model.json").exists()


def test_pipeline_external_predictions_superset_trimmed(tmp_path):
    corpus = make_corpus(30, seed=21)
    train_path, test_path = tmp_path / "train.tsv", tmp_path / "test.tsv"
    write_dataset_tsv(train_path, head(corpus, 20))
    write_dataset_tsv(test_path, tail(corpus, 20))
    preds = tmp_path / "wide.tsv"
    _write_prediction_file(preds, [(i, 0.6, 0.4) for i in range(30)])  # covers train too
    config_path = tmp_path / "run.ini"
    config_path.write_text(
        f"[data]\ntrain = {train_path}\ntest = {test_path}\n"
        f"[predictions]\nfiles = {preds}\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    assert main(["pipeline", "--config", str(config_path)]) == 0
    ens_rows = (tmp_path / "out" / "ensemble.tsv").read_text(encoding="utf-8").splitlines()[2:]
    assert [row.split("\t")[0] for row in ens_rows] == [str(i) for i in range(20, 30)]


def test_pipeline_tie_rules_in_ensemble_and_decisions(tmp_path):
    """ensemble.tsv and decisions.tsv agree on every untied row the
    ensemble decides. On an exact soft tie each follows its own pinned
    rule: the soft vote's tie label (real) in ensemble.tsv, the
    heuristic fallback's strict p_real > p_fake (so fake) in
    decisions.tsv."""
    train_path, test_path = tmp_path / "train.tsv", tmp_path / "test.tsv"
    write_dataset_tsv(train_path, TINY_ROWS)
    write_dataset_tsv(test_path, [
        (10, "@icmr repeats the update", "real"),
        (11, "calm text", "real"),
        (12, "more calm text", "fake"),
        (13, "https://thespoof.com/q again", "fake"),
        (14, "still calm", "fake"),
    ])
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    # dyadic probabilities, so item 12's means are exactly 0.5 and 0.5
    _write_prediction_file(a, [(10, 0.25, 0.75), (11, 0.75, 0.25), (12, 0.25, 0.75),
                               (13, 0.75, 0.25), (14, 0.125, 0.875)])
    _write_prediction_file(b, [(10, 0.5, 0.5), (11, 0.5, 0.5), (12, 0.75, 0.25),
                               (13, 0.5, 0.5), (14, 0.5, 0.5)])
    config_path = tmp_path / "run.ini"
    config_path.write_text(
        f"[data]\ntrain = {train_path}\ntest = {test_path}\n"
        f"[predictions]\nfiles = {a}, {b}\n[output]\ndir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    assert main(["pipeline", "--config", str(config_path)]) == 0

    def rows(name):
        lines = (tmp_path / "out" / name).read_text(encoding="utf-8").splitlines()[2:]
        return {int(line.split("\t")[0]): line.split("\t") for line in lines}

    ensemble, decisions = rows("ensemble.tsv"), rows("decisions.tsv")
    assert ensemble.keys() == decisions.keys() == {10, 11, 12, 13, 14}
    tied = {i for i, row in ensemble.items() if float(row[1]) == float(row[2])}
    assert tied == {12}
    by_ensemble = {i for i, row in decisions.items() if row[2] == "ensemble"}
    assert by_ensemble == {10, 11, 12, 14}  # @icmr (2 real, 1 fake) sits below 0.88
    for item_id in by_ensemble - tied:
        assert decisions[item_id][1] == ensemble[item_id][3]
    assert ensemble[12][3] == "real"
    assert decisions[12][1:3] == ["fake", "ensemble"]


def test_pipeline_id_mismatch_exit_2(tmp_path, capsys):
    corpus = make_corpus(10, seed=1)
    train_path, test_path = tmp_path / "train.tsv", tmp_path / "test.tsv"
    write_dataset_tsv(train_path, head(corpus, 5))
    write_dataset_tsv(test_path, tail(corpus, 5))
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    _write_prediction_file(a, [(i, 0.6, 0.4) for i in range(5, 10)])
    _write_prediction_file(b, [(i, 0.6, 0.4) for i in range(4, 9)])
    cfg_text = (
        f"[data]\ntrain = {train_path}\ntest = {test_path}\n"
        f"[predictions]\nfiles = {a}, {b}\n"
        f"[output]\ndir = {tmp_path / 'out'}\n"
    )
    config_path = tmp_path / "run.ini"
    config_path.write_text(cfg_text, encoding="utf-8")
    rc = main(["pipeline", "--config", str(config_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "a.tsv" in err and "b.tsv" in err


def test_postprocess_id_mismatch_names_the_files_and_the_split(tiny_train, tmp_path, capsys):
    """postprocess reports prediction files that miss an id as pipeline does."""
    stats_dir = tmp_path / "stats"
    assert main(["stats", "--train", str(tiny_train), "--out-dir", str(stats_dir)]) == 0
    preds = tmp_path / "p1.tsv"
    _write_prediction_file(preds, [(i, 0.9, 0.1) for i in (1, 3, 4, 5, 6)])
    out = tmp_path / "decisions.tsv"
    rc = main(
        ["postprocess", "--data", str(tiny_train), "--predictions", str(preds),
         "--username-table", str(stats_dir / "username_stats.tsv"),
         "--domain-table", str(stats_dir / "domain_stats.tsv"), "--out", str(out)]
    )
    assert rc == 2
    assert capsys.readouterr().err == (
        "data error (IdSetMismatch): prediction id sets do not line up: "
        "p1.tsv do not cover the data split: no predictions for items [2]\n"
    )
    assert not out.exists()


def test_postprocess_reports_flags_then_tables_cache_and_data_then_predictions(
    tiny_train, tmp_path, capsys
):
    """A bad --priority is refused as the command line is parsed, before any
    path is checked; past that, --data is read before the prediction files,
    so when both are malformed the data split's error is the one reported."""
    stats_dir = tmp_path / "stats"
    assert main(["stats", "--train", str(tiny_train), "--out-dir", str(stats_dir)]) == 0
    out = tmp_path / "decisions.tsv"
    tables = ["--username-table", str(stats_dir / "username_stats.tsv"),
              "--domain-table", str(stats_dir / "domain_stats.tsv"), "--out", str(out)]
    absent = str(tmp_path / "absent.tsv")
    assert main(["postprocess", "--data", absent, "--predictions", absent, *tables,
                 "--priority", "bogus"]) == 1
    assert capsys.readouterr().err == (
        "usage error: --priority: expected names from username/domain, got 'bogus'\n"
    )
    data, preds = tmp_path / "data.tsv", tmp_path / "p1.tsv"
    data.write_text("id\ttweet\tlabel\n1\tfine words\treal\nx\tmore words\treal\n", encoding="utf-8")
    preds.write_text("id\tp_real\tp_fake\n1\t0.9\n", encoding="utf-8")
    assert main(["postprocess", "--data", str(data), "--predictions", str(preds), *tables]) == 2
    assert capsys.readouterr().err == (
        "data error (BadRecord): bad record in data.tsv (line 3): id 'x' is not an integer\n"
    )
    assert not out.exists()


def test_pipeline_flag_overrides_config(tmp_path):
    # --out-dir, a place and not a setting, is the one flag that overrides the config
    config_path = _pipeline_config(tmp_path)
    assert main(["pipeline", "--config", str(config_path), "--out-dir", str(tmp_path / "other")]) == 0
    assert (tmp_path / "other" / "report.json").is_file()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["ensemble", "pipeline"])
def test_scheme_flag_takes_the_config_spellings(tmp_path, capsys, command):
    """ensemble --scheme and [ensemble] scheme parse alike, so HARD writes the bytes hard writes."""
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    _write_prediction_file(a, [(1, 0.6, 0.4), (2, 0.2, 0.8)])
    _write_prediction_file(b, [(1, 0.9, 0.1), (2, 0.4, 0.6)])
    config_path = _pipeline_config(tmp_path)
    written = []
    for spelling in ("hard", "HARD"):
        out = tmp_path / spelling
        out.mkdir()
        if command == "ensemble":
            argv = ["ensemble", "--predictions", str(a), str(b), "--scheme", spelling,
                    "--out", str(out / "ens.tsv")]
        else:
            text = config_path.read_text(encoding="utf-8").replace("scheme = soft\n", f"scheme = {spelling}\n")
            config_path.write_text(text, encoding="utf-8")
            argv = ["pipeline", "--config", str(config_path), "--out-dir", str(out)]
        assert main(argv) == 0
        written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert written[0] == written[1]
    if command == "ensemble":
        assert capsys.readouterr().out.count("2 hard-voted results") == 2
    else:
        assert b'"scheme": "hard"' in written[0]["report.json"]


#: A stage command line that takes each of the config's heuristic and ensemble settings as a flag.
_STAGE_ARGV = {
    "scheme": ["ensemble", "--predictions", "m.tsv", "--out", "e.tsv"],
    "threshold": ["postprocess", "--data", "d.tsv", "--predictions", "m.tsv",
                  "--username-table", "u.tsv", "--domain-table", "t.tsv", "--out", "o.tsv"],
}


@pytest.mark.parametrize("setting, section, default, value, rule", [
    ("scheme", "ensemble", "soft", "vote", " must be soft or hard"),
    ("threshold", "heuristic", "0.88", "abc", ": expected a number"),
    ("threshold", "heuristic", "0.88", "1.5", " must be in [0, 1]"),
])
@pytest.mark.parametrize("given_by", ["flag", "config"])
def test_flag_and_config_key_report_a_bad_value_alike(
    tmp_path, capsys, setting, section, default, value, rule, given_by
):
    config_path = _pipeline_config(tmp_path)
    argv = ["pipeline", "--config", str(config_path)]
    if given_by == "flag":  # a stage command's flag: a run takes its settings from the config
        argv = _STAGE_ARGV[setting] + [f"--{setting}", value]
        where = f"--{setting}"
    else:
        text = config_path.read_text(encoding="utf-8")
        text = text.replace(f"{setting} = {default}\n", f"{setting} = {value}\n")
        config_path.write_text(text, encoding="utf-8")
        where = f"{section}.{setting}"
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: {where}{rule}, got {value!r}\n"


def _ablate_config(tmp_path) -> Path:
    corpus = make_corpus(150, seed=5)
    train = head(corpus, 50)
    val = Path(tmp_path / "val.tsv")
    test = Path(tmp_path / "test.tsv")
    write_dataset_tsv(val, head(tail(corpus, 50), 50))
    write_dataset_tsv(test, tail(corpus, 100))
    train_path = tmp_path / "train.tsv"
    write_dataset_tsv(train_path, train)
    cfg = RunConfig(
        train_path=train_path,
        validation_path=val,
        test_path=test,
        output_dir=tmp_path / "out",
    )
    config_path = tmp_path / "ablate.ini"
    config_path.write_text(cfg.to_text(), encoding="utf-8")
    return config_path


def test_ablate_full_grid(tmp_path):
    config_path = _ablate_config(tmp_path)
    assert main(["ablate", "--config", str(config_path)]) == 0
    payload = json.loads((tmp_path / "out" / "ablation.json").read_text(encoding="utf-8"))
    assert len(payload["rows"]) == 4
    priorities = [row["priority"] for row in payload["rows"]]
    assert priorities == [
        "username, ensemble",
        "domain, ensemble",
        "domain, username, ensemble",
        "username, domain, ensemble",
    ]
    for row in payload["rows"]:
        assert set(row["with_threshold"]) == {"validation_f1", "test_f1"}
        assert set(row["without_threshold"]) == {"validation_f1", "test_f1"}


def test_ablate_tunes_the_threshold_over_the_full_grid(tmp_path):
    config_path = _ablate_config(tmp_path)
    assert main(["ablate", "--config", str(config_path), "--tune-threshold"]) == 0
    payload = json.loads((tmp_path / "out" / "ablation.json").read_text(encoding="utf-8"))
    assert len(payload["rows"]) == 4
    assert payload["tuned_threshold"] in payload["tuning_grid"]
    assert payload["threshold"] == 0.88


def test_ablate_unlabeled_test_refused(tmp_path, capsys):
    corpus = make_corpus(60, seed=6)
    train_path = tmp_path / "train.tsv"
    val_path = tmp_path / "val.tsv"
    test_path = tmp_path / "test.tsv"
    write_dataset_tsv(train_path, head(corpus, 20))
    write_dataset_tsv(val_path, head(tail(corpus, 20), 20))
    write_dataset_tsv(test_path, tail(corpus, 40), labeled=False)
    cfg = RunConfig(
        train_path=train_path, validation_path=val_path, test_path=test_path,
        output_dir=tmp_path / "out",
    )
    config_path = tmp_path / "cfg.ini"
    config_path.write_text(cfg.to_text(), encoding="utf-8")
    rc = main(["ablate", "--config", str(config_path)])
    assert rc == 1
    assert "must be labeled" in capsys.readouterr().err


@pytest.mark.parametrize("validation_labeled", [True, False])
def test_ablate_prediction_files_must_cover_both_splits(tmp_path, capsys, validation_labeled):
    # files covering test but not validation: the mismatch names the split
    # and the files, and an unlabeled split is refused before any id check
    corpus = make_corpus(60, seed=6)
    paths = {name: tmp_path / f"{name}.tsv" for name in ("train", "val", "test")}
    test = tail(corpus, 40)
    write_dataset_tsv(paths["train"], head(corpus, 20))
    write_dataset_tsv(paths["val"], head(tail(corpus, 20), 20), labeled=validation_labeled)
    write_dataset_tsv(paths["test"], test)
    files = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
    for path in files:
        _write_prediction_file(path, [(item.id, 0.6, 0.4) for item in test])
    config_path = tmp_path / "cfg.ini"
    config_path.write_text(RunConfig(
        train_path=paths["train"], validation_path=paths["val"], test_path=paths["test"],
        prediction_paths=tuple(files), output_dir=tmp_path / "out",
    ).to_text(), encoding="utf-8")
    rc = main(["ablate", "--config", str(config_path)])
    err = capsys.readouterr().err
    if not validation_labeled:
        assert rc == 1
        assert "usage error: the validation split must be labeled" in err
        return
    assert rc == 2
    assert (
        "data error (IdSetMismatch): prediction id sets do not line up: "
        "a.tsv, b.tsv do not cover the validation split: no predictions for items [20, 21, 22, 23, 24]"
    ) in err
    assert not (tmp_path / "out").exists()


def test_ablate_has_no_scheme_flag(tmp_path, capsys):
    # ablate's decisions read the mean probabilities, which no scheme changes
    config_path = _ablate_config(tmp_path)
    assert main(["ablate", "--config", str(config_path), "--scheme", "soft"]) == 1
    assert "unrecognized arguments: --scheme soft" in capsys.readouterr().err


@pytest.mark.parametrize("given_by", ["--priority", "heuristic.priority"])
def test_repeated_priority_name_is_usage_error(tmp_path, monkeypatch, capsys, given_by):
    def no_data(*args, **kwargs):
        raise AssertionError("the invocation must be refused before any data is read")

    config_path = _ablate_config(tmp_path)
    if given_by == "heuristic.priority":
        argv = ["ablate", "--config", str(config_path)]
        text = config_path.read_text(encoding="utf-8")
        config_path.write_text(
            text.replace("priority = username, domain", "priority = username, Username"),
            encoding="utf-8",
        )
    else:  # postprocess checks --priority as its command line is parsed
        exists = str(tmp_path / "test.tsv")
        argv = ["postprocess", "--data", exists, "--predictions", exists, "--username-table", exists,
                "--domain-table", exists, "--out", str(tmp_path / "d.tsv"), given_by, "username, Username"]
    # ablate reads every split through pipeline's iter_dataset, after the URL cache; postprocess
    # reads its inputs through these
    monkeypatch.setattr(pipeline, "load_cache", no_data)
    monkeypatch.setattr(pipeline, "iter_dataset", no_data)
    for reader in ("load_predictions", "load_table", "load_cache"):
        monkeypatch.setattr(f"veracity.cli.{reader}", no_data)
    assert main(argv) == 1
    assert f"usage error: {given_by}: a name may appear only once" in capsys.readouterr().err


def test_config_round_trip(tmp_path):
    cfg = RunConfig(
        train_path=Path("data/train.tsv"),
        validation_path=Path("data/val.tsv"),
        test_path=Path("data/test.tsv"),
        cache_path=Path("data/cache.tsv"),
        prediction_paths=(Path("p/a.tsv"), Path("p/b.tsv")),
        output_dir=Path("runs/x"),
    )
    reparsed = parse_config_text(cfg.to_text())
    assert reparsed == cfg
    assert config_hash(reparsed) == config_hash(cfg)


def test_config_unknown_key_rejected():
    with pytest.raises(UsageError):
        parse_config_text("[data]\ntrian = oops.tsv\n")
    with pytest.raises(UsageError):
        parse_config_text("[mystery]\nx = 1\n")


def test_config_without_a_test_path_is_usage_error(tiny_train, tmp_path, capsys):
    config_path = tmp_path / "run.ini"
    config_path.write_text(f"[data]\ntrain = {tiny_train}\n[output]\ndir = {tmp_path / 'out'}\n", encoding="utf-8")
    assert main(["pipeline", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == "usage error: config is missing the test data path\n"
    assert not (tmp_path / "out").exists()


def test_an_unparseable_config_is_usage_error(tmp_path, capsys):
    config_path = tmp_path / "run.ini"
    config_path.write_text("train = train.tsv\n[data]\n", encoding="utf-8")
    assert main(["pipeline", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: cannot parse config {config_path}: ")


def test_config_heuristic_values():
    cfg = parse_config_text(
        "[heuristic]\nthreshold = 0.5\npriority = domain\n"
    )
    assert cfg.heuristic.threshold == 0.5
    assert [k.value for k in cfg.heuristic.priority] == ["domain"]
    with pytest.raises(UsageError):
        parse_config_text("[heuristic]\nthreshold = 1.5\n")


@pytest.mark.parametrize("section, key", [("heuristic", "use_threshold"), ("predictions", "names")])
def test_retired_config_keys_are_usage_errors(tmp_path, capsys, section, key):
    # "without the threshold" is threshold = 0; a model is named by its file's stem
    config = tmp_path / "run.ini"
    config.write_text(f"[{section}]\n{key} = a\n", encoding="utf-8")
    assert main(["pipeline", "--config", str(config)]) == 1
    assert f"unknown config key {key!r} in [{section}]" in capsys.readouterr().err


# "command retired flags": the rest of an otherwise valid command line
_RETIRED_FLAGS = {
    "postprocess --no-threshold": ["--data", "d.tsv", "--predictions", "m.tsv", "--username-table",
                                   "u.tsv", "--domain-table", "d.tsv", "--out", "o.tsv"],
    "pipeline --no-threshold": ["--config", "run.ini"],
    "ablate --no-threshold": ["--config", "run.ini"],
    "ensemble --names a": ["--predictions", "m.tsv", "--out", "o.tsv"],
}


@pytest.mark.parametrize("case", sorted(_RETIRED_FLAGS))
def test_retired_flags_are_usage_errors(capsys, case):
    command, retired = case.split(" ", 1)
    assert main([command, *_RETIRED_FLAGS[case], *retired.split()]) == 1
    assert f"usage error: unrecognized arguments: {retired}" in capsys.readouterr().err


def test_expand_urls_with_injected_resolver(tmp_path, monkeypatch, capsys):
    def fake_resolver(url, timeout):
        if "die" in url:
            raise OSError("boom")
        if "t.co" in url:
            return url.replace("t.co/x", "news.sky/story/long")
        return url

    monkeypatch.setattr(urlexpand, "resolve_redirect", fake_resolver)
    data = tmp_path / "posts.tsv"
    write_dataset_tsv(data, [(1, "see https://t.co/x and https://die.example/z"),
                             (2, "also https://stable.org/a")], labeled=False)
    out = tmp_path / "cache.tsv"
    rc = main(["expand-urls", "--data", str(data), "--out", str(out)])
    assert rc == 0
    body = out.read_text(encoding="utf-8")
    assert "https://t.co/x\thttps://news.sky/story/long" in body
    assert "stable.org" not in body  # identity mappings are not recorded
    assert "resolved 1 urls (1 failed)" in capsys.readouterr().out


def test_expand_urls_merges_into_existing_cache(tmp_path, monkeypatch, capsys):
    def flaky_resolver(url, timeout):
        if url == "https://t.co/old":
            raise OSError("host down")
        return "https://news.sky/new-story"

    monkeypatch.setattr(urlexpand, "resolve_redirect", flaky_resolver)
    out = tmp_path / "cache.tsv"
    out.write_text(
        "# short_url\texpanded_url\nhttps://t.co/old\thttps://news.sky/old-story\n", encoding="utf-8"
    )
    data = tmp_path / "posts.tsv"
    write_dataset_tsv(data, [(1, "https://t.co/old then https://t.co/new")], labeled=False)
    assert main(["expand-urls", "--data", str(data), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").splitlines() == [
        "# short_url\texpanded_url",
        "https://t.co/new\thttps://news.sky/new-story",
        "https://t.co/old\thttps://news.sky/old-story",
    ]
    captured = capsys.readouterr()
    assert "resolved 1 urls (1 failed)" in captured.out
    assert "https://t.co/old: host down" in captured.err


def test_expand_urls_checks_out_before_fetching(tmp_path, monkeypatch, capsys):
    fetched = []

    def counting_resolver(url, timeout):
        fetched.append(url)
        return "https://news.sky/story"

    monkeypatch.setattr(urlexpand, "resolve_redirect", counting_resolver)
    data = tmp_path / "posts.tsv"
    write_dataset_tsv(data, [(1, "https://t.co/a"), (2, "https://t.co/b")], labeled=False)
    out = tmp_path / "cache_dir"
    out.mkdir()
    assert main(["expand-urls", "--data", str(data), "--out", str(out)]) == 1
    assert f"usage error: cannot write {out}: Is a directory" in capsys.readouterr().err
    assert fetched == []
    assert not list(tmp_path.rglob("*.tmp"))


def test_expand_urls_requires_input(tmp_path):
    assert main(["expand-urls", "--out", str(tmp_path / "c.tsv")]) == 1


def test_expand_urls_on_posts_without_links_resolves_nothing(tmp_path, monkeypatch, capsys):
    def unreachable(url, timeout):
        raise AssertionError("no URL may be fetched")

    monkeypatch.setattr(urlexpand, "resolve_redirect", unreachable)
    data = tmp_path / "posts.tsv"
    write_dataset_tsv(data, [(1, "plain words only"), (2, "@icmr says fine")], labeled=False)
    cache = tmp_path / "cache.tsv"
    cache.write_text("https://t.co/x\thttps://news.sky/a\n", encoding="utf-8")
    assert main(["expand-urls", "--data", str(data), "--out", str(cache)]) == 0
    assert capsys.readouterr().out == f"resolved 0 urls (0 failed) -> {cache}\n"
    assert load_cache(cache).entries == {"https://t.co/x": "https://news.sky/a"}


@pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
def test_expand_urls_timeout_must_be_finite_and_positive(tmp_path, monkeypatch, capsys, timeout):
    def unreachable(url, timeout):
        raise AssertionError("no URL may be fetched")

    monkeypatch.setattr(urlexpand, "resolve_redirect", unreachable)
    data = tmp_path / "posts.tsv"
    write_dataset_tsv(data, [(1, "https://t.co/x")], labeled=False)
    cache = tmp_path / "cache.tsv"
    cache.write_text("https://t.co/x\thttps://news.sky/a\n", encoding="utf-8")
    argv = ["expand-urls", "--data", str(data), "--out", str(cache), "--timeout", timeout]
    assert main(argv) == 1
    expected = f"usage error: --timeout must be a finite, positive number, got {timeout!r}"
    assert expected in capsys.readouterr().err
    assert cache.read_text(encoding="utf-8") == "https://t.co/x\thttps://news.sky/a\n"


@pytest.mark.parametrize("unusable", ["stats-out-dir-is-a-file", "ensemble-out-is-a-directory"])
def test_unusable_output_path_is_usage_error(tiny_train, tmp_path, capsys, unusable):
    target = tmp_path / "target"
    if unusable == "stats-out-dir-is-a-file":
        target.write_text("not a directory\n", encoding="utf-8")
        argv = ["stats", "--train", str(tiny_train), "--out-dir", str(target)]
    else:
        target.mkdir()
        predictions = tmp_path / "a.tsv"
        _write_prediction_file(predictions, [(1, 0.6, 0.4)])
        argv = ["ensemble", "--predictions", str(predictions), "--out", str(target)]
    assert main(argv) == 1
    assert f"usage error: cannot write {target}" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_get_the_mode_the_umask_allows(tiny_train, tmp_path, umask, mode):
    out_dir = tmp_path / "stats"
    argv = ["stats", "--train", str(tiny_train), "--out-dir", str(out_dir),
            "--summary-json", str(tmp_path / "summary.json")]
    saved = os.umask(umask)
    try:
        assert main(argv) == 0
    finally:
        os.umask(saved)
    written = [*out_dir.iterdir(), tmp_path / "summary.json"]
    assert len(written) == 3
    assert {path.name: stat.S_IMODE(path.stat().st_mode) for path in written} == {
        path.name: mode for path in written
    }


@pytest.mark.parametrize("command", ["pipeline", "ablate"])
def test_malformed_cache_is_reported_before_malformed_train(tmp_path, capsys, command):
    """The cache is read first, because the streamed training pass
    extracts attributes through it; both errors are data errors."""
    config_path = _ablate_config(tmp_path)
    train = tmp_path / "train.tsv"
    train.write_text(train.read_text(encoding="utf-8") + "not an id\tword\treal\n", encoding="utf-8")
    cache = tmp_path / "cache.tsv"
    cache.write_text("https://t.co/a\n", encoding="utf-8")
    config_path.write_text(
        config_path.read_text(encoding="utf-8").replace("cache = \n", f"cache = {cache}\n"),
        encoding="utf-8",
    )
    assert main([command, "--config", str(config_path)]) == 2
    assert "bad record in cache.tsv (line 1)" in capsys.readouterr().err
    cache.write_text("https://t.co/a\thttps://news.sky/a\n", encoding="utf-8")
    assert main([command, "--config", str(config_path)]) == 2
    assert "bad record in train.tsv (line 52)" in capsys.readouterr().err


def test_pipeline_empty_test_split_has_no_items_to_score(tiny_train, tmp_path, capsys):
    # a header and no rows, labeled or not, is an error before any artifact is written
    for labeled in (True, False):
        empty = tmp_path / "empty.tsv"
        write_dataset_tsv(empty, [], labeled=labeled)
        config_path = tmp_path / "run.ini"
        config_path.write_text(
            f"[data]\ntrain = {tiny_train}\ntest = {empty}\n[output]\ndir = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert main(["pipeline", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            "data error (DataError): the test split empty.tsv has no items to score\n"
        )
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("split", ["validation", "test"])
def test_ablate_empty_split_has_no_items_to_score(tmp_path, capsys, split):
    config_path = _ablate_config(tmp_path)
    empty = tmp_path / "empty.tsv"
    write_dataset_tsv(empty, [])
    text = config_path.read_text(encoding="utf-8")
    path = {"validation": "val.tsv", "test": "test.tsv"}[split]
    config_path.write_text(text.replace(str(tmp_path / path), str(empty)), encoding="utf-8")
    assert main(["ablate", "--config", str(config_path), "--tune-threshold"]) == 2
    assert capsys.readouterr().err == (
        f"data error (DataError): the {split} split empty.tsv has no items to score\n"
    )
    assert not (tmp_path / "out").exists()


def test_postprocess_empty_data_has_no_items_to_score(tiny_train, tmp_path, capsys):
    stats_dir = tmp_path / "stats"
    assert main(["stats", "--train", str(tiny_train), "--out-dir", str(stats_dir)]) == 0
    empty = tmp_path / "empty.tsv"
    write_dataset_tsv(empty, [], labeled=False)
    preds = tmp_path / "m.tsv"
    _write_prediction_file(preds, [(i, 0.9, 0.1) for i in range(1, 7)])
    out = tmp_path / "decisions.tsv"
    rc = main(
        ["postprocess", "--data", str(empty), "--predictions", str(preds),
         "--username-table", str(stats_dir / "username_stats.tsv"),
         "--domain-table", str(stats_dir / "domain_stats.tsv"), "--out", str(out)]
    )
    assert rc == 2
    assert capsys.readouterr().err == (
        "data error (DataError): the data split empty.tsv has no items to score\n"
    )
    assert not out.exists()


def test_evaluate_header_only_gold_has_no_items_to_score(tmp_path, capsys):
    gold, pred = tmp_path / "gold.tsv", tmp_path / "p.tsv"
    write_dataset_tsv(gold, [])
    pred.write_text("id\tlabel\n1\treal\n", encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["evaluate", "--gold", str(gold), "--pred", str(pred), "--json-out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "data error (DataError): the gold split gold.tsv has no items to score\n"
    )
    assert not out.exists()


def test_evaluate_empty_gold_file_exit_2(tmp_path, capsys):
    gold, pred = tmp_path / "gold.tsv", tmp_path / "p.tsv"
    gold.write_bytes(b"")
    pred.write_text("id\tlabel\n1\treal\n", encoding="utf-8")
    assert main(["evaluate", "--gold", str(gold), "--pred", str(pred)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "data error (BadRecord): bad record in gold.tsv: file is empty\n"


def test_evaluate_names_both_files_when_predictions_miss_gold_ids(tmp_path, capsys):
    gold, pred = tmp_path / "gold.tsv", tmp_path / "p.tsv"
    write_dataset_tsv(gold, [(1, "a", "real"), (2, "b", "fake")])
    pred.write_text("id\tlabel\n1\treal\n", encoding="utf-8")
    assert main(["evaluate", "--gold", str(gold), "--pred", str(pred)]) == 2
    assert capsys.readouterr().err == (
        "data error (DataError): the predictions p.tsv miss ids of gold.tsv, e.g. [2]\n"
    )


def test_predict_empty_data_has_no_items_to_score(tiny_train, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert main(["train-baseline", "--train", str(tiny_train), "--out", str(model)]) == 0
    empty = tmp_path / "empty.tsv"
    write_dataset_tsv(empty, [], labeled=False)
    out = tmp_path / "p.tsv"
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--data", str(empty), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "data error (DataError): the data split empty.tsv has no items to score\n"
    )
    assert not out.exists()


def test_ensemble_header_only_predictions_have_no_items_to_score(tmp_path, capsys):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    _write_prediction_file(a, [])
    _write_prediction_file(b, [])
    out = tmp_path / "e.tsv"
    assert main(["ensemble", "--predictions", str(a), str(b), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "data error (DataError): the prediction file a.tsv has no items to score\n"
    )
    assert not out.exists()


def _break_one_input(tmp_path, config_path, fault) -> str:
    """Break one input of _pipeline_config's run as fault names; returns a part of the error."""
    test_ids = [item.id for item in iter_dataset(tmp_path / "test.tsv")]
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    _write_prediction_file(a, [(item_id, 0.6, 0.4) for item_id in test_ids])
    _write_prediction_file(b, [(item_id, 0.3, 0.7) for item_id in test_ids])
    files = f"{a}, {b}"
    if fault in ("train-row", "test-row"):
        path = tmp_path / {"train-row": "train.tsv", "test-row": "test.tsv"}[fault]
        path.write_text(path.read_text(encoding="utf-8") + "not an id\tword\treal\n", encoding="utf-8")
        files, expected = "", f"bad record in {path.name}"
    elif fault == "cache-row":
        (tmp_path / "cache.tsv").write_text("https://t.co/a\n", encoding="utf-8")
        files, expected = "", "bad record in cache.tsv (line 1)"
    elif fault == "prediction-row":
        b.write_text(b.read_text(encoding="utf-8") + "x\t0.5\t0.5\n", encoding="utf-8")
        expected = "in b.tsv (line"
    elif fault == "files-disagree":
        _write_prediction_file(b, [(item_id, 0.3, 0.7) for item_id in test_ids[1:]])
        expected = f"a.tsv vs b.tsv (missing e.g. [{test_ids[0]}]"
    elif fault == "files-miss-test-ids":  # they cover the training split's ids, none of the test split's
        train_ids = [item.id for item in iter_dataset(tmp_path / "train.tsv")]
        _write_prediction_file(a, [(item_id, 0.6, 0.4) for item_id in train_ids])
        files, expected = str(a), "a.tsv do not cover the test split"
    else:
        write_dataset_tsv(tmp_path / "test.tsv", [])
        files, expected = "", "the test split test.tsv has no items to score"
    text = config_path.read_text(encoding="utf-8")
    config_path.write_text(text.replace("files = \n", f"files = {files}\n"), encoding="utf-8")
    return expected


@pytest.mark.parametrize("earlier_run", [False, True], ids=["fresh", "over-an-earlier-run"])
@pytest.mark.parametrize("fault", [
    "train-row", "test-row", "cache-row", "prediction-row",
    "files-disagree", "files-miss-test-ids", "header-only-test",
])
def test_pipeline_failure_leaves_the_output_as_it_was(tmp_path, capsys, fault, earlier_run):
    # every check comes before the first write, so a run that stops on its inputs writes nothing
    config_path = _pipeline_config(tmp_path)
    out = tmp_path / "out"
    if earlier_run:  # the built-in model's run: every artifact, each tagged with another config
        assert main(["pipeline", "--config", str(config_path)]) == 0
    before = {path: path.read_bytes() for path in sorted(out.rglob("*"))}
    expected = _break_one_input(tmp_path, config_path, fault)
    capsys.readouterr()
    assert main(["pipeline", "--config", str(config_path)]) == 2
    assert expected in capsys.readouterr().err
    assert {path: path.read_bytes() for path in sorted(out.rglob("*"))} == before
    assert out.exists() == earlier_run


@pytest.mark.parametrize("external", [False, True], ids=["baseline", "prediction-files"])
def test_pipeline_bad_test_record_writes_nothing(tiny_train, tmp_path, capsys, external):
    # the test split is streamed, yet its errors still come before any artifact
    test = tmp_path / "test.tsv"
    write_dataset_tsv(test, [(10, "@who_int says so", "real"), (11, "t", "real"), (10, "x", "fake")])
    config_text = f"[data]\ntrain = {tiny_train}\ntest = {test}\n[output]\ndir = {tmp_path / 'out'}\n"
    if external:
        predictions = tmp_path / "m.tsv"
        _write_prediction_file(predictions, [(10, 0.6, 0.4), (11, 0.3, 0.7)])
        config_text += f"[predictions]\nfiles = {predictions}\n"
    config_path = tmp_path / "run.ini"
    config_path.write_text(config_text, encoding="utf-8")
    assert main(["pipeline", "--config", str(config_path)]) == 2
    assert "duplicate item id 10 in test.tsv (line 4)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


#: Per command, the last path it writes under its output directory, and the first.
_OUTPUT_ENDS = {
    "stats": ("s.json", "s.json"),
    "ablate": ("ablation.json", "ablation.txt"),
    "pipeline": ("report.txt", "username_stats.tsv"),
}


@pytest.mark.parametrize("obstacle", ["directory", "file-ancestor"])
@pytest.mark.parametrize("command", list(_OUTPUT_ENDS))
def test_an_unwritable_output_path_leaves_the_output_as_it_was(tiny_train, tmp_path, capsys, command, obstacle):
    # every output path is checked before the first write, so a run that could not write one writes none
    out = tmp_path / "out"
    out.mkdir()
    (out / "f").write_text("a regular file\n", encoding="utf-8")
    last, first = _OUTPUT_ENDS[command]
    if obstacle == "directory":  # in the way of the last output
        place, blocked, reason = out, out / last, "Is a directory"
        blocked.mkdir()
    else:  # an ancestor of every output: stats' summary, or the run's output directory
        place = out / "f" / "sub"
        blocked, reason = place / first, f"{out / 'f'} is not a directory"
    if command == "stats":
        argv = ["stats", "--train", str(tiny_train), "--out-dir", str(out), "--summary-json", str(place / "s.json")]
    else:
        config_path = (_ablate_config if command == "ablate" else _pipeline_config)(tmp_path)
        argv = [command, "--config", str(config_path), "--out-dir", str(place)]
    before = {path: path.is_file() and path.read_bytes() for path in sorted(out.rglob("*"))}
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: cannot write {blocked}: {reason}\n"
    assert {path: path.is_file() and path.read_bytes() for path in sorted(out.rglob("*"))} == before


def _with_cache(config_path: Path, cache: Path) -> None:
    text = config_path.read_text(encoding="utf-8")
    config_path.write_text(text.replace("cache = \n", f"cache = {cache}\n"), encoding="utf-8")


def _one_class_train(tmp_path) -> None:
    # ids apart from the other splits', every post labeled real
    write_dataset_tsv(tmp_path / "train.tsv", [(1000 + i, f"post {i} via @who", "real") for i in range(30)])


@pytest.mark.parametrize("command", ["pipeline", "ablate"])
def test_one_class_train_and_malformed_cache_reports_the_cache(tmp_path, capsys, command):
    # the cache is read before training can find one class; the
    # attribute side meets it while the model side trains
    config_path = _ablate_config(tmp_path)
    _one_class_train(tmp_path)
    cache = tmp_path / "cache.tsv"
    cache.write_text("https://t.co/a\n", encoding="utf-8")
    _with_cache(config_path, cache)
    assert main([command, "--config", str(config_path)]) == 2
    assert "data error (BadRecord): bad record in cache.tsv (line 1)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pipeline", "ablate"])
def test_one_class_train_and_malformed_test_reports_the_training(tmp_path, capsys, command):
    # training fails before the test split is read
    config_path = _ablate_config(tmp_path)
    _one_class_train(tmp_path)
    test = tmp_path / "test.tsv"
    test.write_text(test.read_text(encoding="utf-8") + "not an id\tword\treal\n", encoding="utf-8")
    assert main([command, "--config", str(config_path)]) == 2
    assert "data error (DegenerateTraining): cannot train:" in capsys.readouterr().err


@pytest.mark.parametrize("external", [False, True], ids=["baseline", "prediction-files"])
@pytest.mark.parametrize("command", ["pipeline", "ablate"])
def test_duplicate_test_id_is_reported_as_by_one_process(tmp_path, capsys, command, external):
    # both sides read the test split; the error reported is the one the
    # attribute side sent, unpickled, with the message a one-process run printed
    config_path = _ablate_config(tmp_path)
    test = tmp_path / "test.tsv"
    lines = test.read_text(encoding="utf-8").splitlines(keepends=True)
    test.write_text("".join(lines) + lines[1], encoding="utf-8")
    item_id = int(lines[1].split("\t")[0])
    if external:
        predictions = tmp_path / "m.tsv"
        _write_prediction_file(predictions, [(i, 0.6, 0.4) for i in range(150)])
        config_path.write_text(
            config_path.read_text(encoding="utf-8").replace("files = \n", f"files = {predictions}\n"),
            encoding="utf-8",
        )
    assert main([command, "--config", str(config_path)]) == 2
    expected = f"data error (DuplicateId): duplicate item id {item_id} in test.tsv (line {len(lines) + 1})\n"
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("command, outcome", [
    ("pipeline", "success"), ("pipeline", "data-error"),
    ("ablate", "success"), ("ablate", "data-error"), ("ablate", "usage-error"),
])
def test_no_child_process_outlives_a_run(tmp_path, capsys, command, outcome):
    config_path = _ablate_config(tmp_path)
    if outcome == "data-error":
        train = tmp_path / "train.tsv"
        train.write_text(train.read_text(encoding="utf-8") + "not an id\tword\treal\n", encoding="utf-8")
    elif outcome == "usage-error":  # found by this process while the child reads test
        write_dataset_tsv(tmp_path / "val.tsv", [(2000, "an unlabeled post")], labeled=False)
    exit_code = {"success": 0, "data-error": 2, "usage-error": 1}[outcome]
    assert main([command, "--config", str(config_path)]) == exit_code
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", ["pipeline", "ablate"])
def test_attribute_side_ending_without_a_result_is_an_error(tmp_path, monkeypatch, capsys, command):
    def dies(*args, **kwargs):
        os._exit(1)

    # the forked child inherits the patched module
    monkeypatch.setattr(pipeline, "attribute_side", dies)
    config_path = _ablate_config(tmp_path)
    assert main([command, "--config", str(config_path)]) == 3
    assert capsys.readouterr().err == "error: the attribute-side process ended without a result\n"
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["pipeline", "ablate"])
def test_a_child_that_ends_after_claiming_chunks_stops_the_run(tmp_path, monkeypatch, capsys, command):
    """The child counts a chunk of the training text, then ends before
    its first message: the run stops, and no model is built from the
    counts this process holds. Here every chunk is the child's to claim."""
    main_pid, real_claim, built = os.getpid(), pipeline._claim, []
    counted = tmp_path / "counted"

    def only_the_child(*args):
        return os.getpid() != main_pid and real_claim(*args)

    def counts_then_dies(cfg, split_paths, claim):
        counts = {label: Counter() for label in Label}
        posts = iter_dataset(cfg.train_path, has_labels=True)
        items = baseline.count_text(posts, counts, claim)
        for _ in zip(range(baseline.CHUNK_POSTS), items):
            pass
        counted.write_text(str(sum(sum(c.values()) for c in counts.values())), encoding="utf-8")
        os._exit(1)

    def bow_model(*args, **kwargs):
        built.append(args)
        return real_model(*args, **kwargs)

    real_model = baseline.BowModel
    monkeypatch.setattr(baseline, "CHUNK_POSTS", 5)
    monkeypatch.setattr(baseline, "BowModel", bow_model)
    monkeypatch.setattr(pipeline, "_claim", only_the_child)
    monkeypatch.setattr(pipeline, "attribute_side", counts_then_dies)  # the forked child inherits these
    config_path = _ablate_config(tmp_path)
    assert main([command, "--config", str(config_path)]) == 3
    assert capsys.readouterr().err == "error: the attribute-side process ended without a result\n"
    assert int(counted.read_text(encoding="utf-8")) > 0  # the tokens of the first chunk
    assert built == []
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["pipeline", "ablate"])
def test_a_run_without_fork_writes_the_same_bytes(tmp_path, monkeypatch, capsys, command):
    """Where fork is not offered, the child is spawned and counts no
    training text, and the run writes what a forked run writes."""
    config_path = _ablate_config(tmp_path)
    out = tmp_path / "out"
    runs = []
    for fork in (True, False):
        if not fork:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
            monkeypatch.setattr(pipeline, "_claim", None)  # a claim fails the run: no chunk is shared
        assert main([command, "--config", str(config_path)]) == 0
        runs.append((capsys.readouterr(), {path.name: path.read_bytes() for path in sorted(out.iterdir())}))
        shutil.rmtree(out)
    assert runs[0][1]
    assert runs[1] == runs[0]


def test_pipeline_reruns_match_across_hash_seeds(tmp_path):
    """Two interpreters with different string hashes, so sets and dicts
    of strings iterate in different orders, write the same bytes."""
    config_path = _pipeline_config(tmp_path, n=80)
    out = tmp_path / "out"
    src = str(Path(pipeline.__file__).resolve().parents[1])
    runs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "veracity.cli", "pipeline", "--config", str(config_path)],
            env=env, capture_output=True, text=True, check=True,
        )
        runs.append((done.stdout, {path.name: path.read_bytes() for path in sorted(out.iterdir())}))
        shutil.rmtree(out)
    assert "report.json" in runs[0][1]
    assert runs[1] == runs[0]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_each_chunk_is_claimed_once_under_contention():
    """More claimants than cores, each asking for every chunk in order:
    a lost update of the shared count would grant a chunk twice."""
    context = multiprocessing.get_context("fork")
    claim = partial(pipeline._claim, mmap.mmap(-1, 8), context.Lock())
    chunks, start = range(20_000), context.Event()

    def claimant(writer):
        start.wait(60)  # all at once
        writer.send([chunk for chunk in chunks if claim(chunk)])

    pipes = [context.Pipe(duplex=False) for _ in range(min((os.cpu_count() or 1) + 1, 17))]
    claimants = [context.Process(target=claimant, args=(writer,)) for _, writer in pipes]
    for process, (_, writer) in zip(claimants, pipes):
        process.start()
        writer.close()
    start.set()
    granted = []
    for reader, _ in pipes:
        assert reader.poll(60)
        granted += reader.recv()
        reader.close()
    for process in claimants:
        process.join(60)
        assert process.exitcode == 0
    assert sorted(granted) == list(chunks)


def _fresh_interpreter(code: str) -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout


def test_importing_the_cli_leaves_multiprocessing_out():
    # only `pipeline` and `ablate` start a process and share a count with
    # it; every other command's start-up does not pay for those imports
    code = (
        "import sys, veracity.cli; veracity.cli.build_parser(); "
        "print(sorted({'multiprocessing', 'mmap', 'ctypes'} & set(sys.modules)))"
    )
    assert _fresh_interpreter(code) == "[]\n"


def test_a_pipeline_run_leaves_ctypes_out(tmp_path):
    # the count of claimed chunks is an mmap, not a multiprocessing.Value, which imports ctypes
    config_path = _ablate_config(tmp_path)
    code = (
        "import sys; from veracity.cli import main; "
        f"assert main(['pipeline', '--config', {str(config_path)!r}]) == 0; print('ctypes' in sys.modules)"
    )
    assert _fresh_interpreter(code).endswith("\nFalse\n")
