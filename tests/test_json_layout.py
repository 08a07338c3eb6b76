"""The JSON documents the commands write, text for text, on a tiny fixed
input: `stats --summary-json`, `train-baseline`, `pipeline`'s
report.json, `evaluate --json-out` and `ablate`'s ablation.json, beside
the ablation.txt table it writes with it. Each JSON document is
`json.dumps(document, indent=2, sort_keys=True)` plus a newline, so a
change in key order, nesting, indentation or a tuple's spelling shows
here, not only in a reader that parses the file."""

from __future__ import annotations

import json

from conftest import write_dataset_tsv
from veracity.cli import main

TRAIN = [
    (1, "vaccine works @alice https://real.org/a", "real"),
    (2, "vaccine data https://real.org/b", "real"),
    (3, "trust data @alice", "real"),
    (4, "garlic cure @bob", "fake"),
]
TEST = [
    (10, "vaccine @alice", "real"),      # @alice is real-only: the username rule
    (11, "garlic @bob", "fake"),         # @bob is fake-only: the username rule
    (12, "data https://real.org/c", "real"),  # real.org is real-only: the domain rule
    (13, "cure works", "fake"),          # no attribute: the ensemble, which says real
]

SUMMARY = {
    "fake_fraction": 0.25,
    "item_count": 4,
    "real_fraction": 0.75,
    "unique_domains": 1,
    "unique_usernames": 2,
}
MODEL = {
    "class_doc_counts": {"fake": 1, "real": 3},
    "model_name": "baseline-bow",
    "smoothing_alpha": 1.0,
    "token_counts": {
        "fake": {"cure": 1, "garlic": 1},
        "real": {"data": 2, "trust": 1, "vaccine": 2, "works": 1},
    },
}
# the model votes real on every test post (item 11 is a tie, which goes to real)
ENSEMBLE_ONLY = {
    "accuracy": 0.5,
    "confusion": [[2, 0], [2, 0]],
    "f1": 0.3333333333333333,
    "n_items": 4,
    "precision": 0.25,
    "recall": 0.5,
}
# the rules fix item 11; item 13 stays wrong
POST_PROCESSED = {
    "accuracy": 0.75,
    "confusion": [[2, 0], [1, 1]],
    "f1": 0.7333333333333334,
    "n_items": 4,
    "precision": 0.8333333333333333,
    "recall": 0.75,
}
REPORT = {
    "decided_by": {"domain_rule": 1, "ensemble": 1, "username_rule": 2},
    "ensemble_only": ENSEMBLE_ONLY,
    "n_items": 4,
    "post_processed": POST_PROCESSED,
    "priority": ["username", "domain"],
    "scheme": "soft",
    "threshold": 0.88,
    "use_threshold": True,
}
# on these splits every vector's winning probability is 1.0, so the threshold
# never matters, and item 11's exact tie goes to fake in the decisions: every
# ordering fixes it, and every cell is the post-processed f1 above
CELLS = {"test_f1": POST_PROCESSED["f1"], "validation_f1": POST_PROCESSED["f1"]}
ORDERINGS = ["username, ensemble", "domain, ensemble", "domain, username, ensemble",
             "username, domain, ensemble"]
ABLATION = {
    "rows": [{"priority": name, "with_threshold": CELLS, "without_threshold": CELLS}
             for name in ORDERINGS],
    "threshold": 0.88,
    "tuned_threshold": 0.95,  # every grid point ties, and ties go to the larger
    "tuning_grid": [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95],
}
ABLATION_TABLE = """\
# threshold: 0.95
priority                    with_thr_val  with_thr_test  no_thr_val  no_thr_test
username, ensemble                0.7333         0.7333      0.7333       0.7333
domain, ensemble                  0.7333         0.7333      0.7333       0.7333
domain, username, ensemble        0.7333         0.7333      0.7333       0.7333
username, domain, ensemble        0.7333         0.7333      0.7333       0.7333
"""


def _text(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _tagged(path, document: dict) -> dict:
    """document with the tag the file holds; the tag covers the input
    paths, which differ per run."""
    return {**document, "config_hash": json.loads(path.read_text(encoding="utf-8"))["config_hash"]}


def test_json_documents_are_written_as_laid_out(tmp_path):
    train, test = tmp_path / "train.tsv", tmp_path / "test.tsv"
    write_dataset_tsv(train, TRAIN)
    write_dataset_tsv(test, TEST)
    config = tmp_path / "run.ini"
    config.write_text(f"[data]\ntrain = {train}\ntest = {test}\n\n[output]\ndir = {tmp_path / 'out'}\n",
                      encoding="utf-8")
    summary, model = tmp_path / "summary.json", tmp_path / "model.json"
    report, evaluation = tmp_path / "out" / "report.json", tmp_path / "evaluate.json"

    assert main(["stats", "--train", str(train), "--out-dir", str(tmp_path / "stats"),
                 "--summary-json", str(summary)]) == 0
    assert main(["train-baseline", "--train", str(train), "--out", str(model)]) == 0
    assert main(["pipeline", "--config", str(config)]) == 0
    assert main(["evaluate", "--gold", str(test), "--pred", str(tmp_path / "out" / "decisions.tsv"),
                 "--json-out", str(evaluation)]) == 0

    assert summary.read_text(encoding="utf-8") == _text(SUMMARY)
    assert model.read_text(encoding="utf-8") == _text(_tagged(model, MODEL))
    assert report.read_text(encoding="utf-8") == _text(_tagged(report, REPORT))
    assert evaluation.read_text(encoding="utf-8") == _text(POST_PROCESSED)


def test_ablation_files_are_written_as_laid_out(tmp_path):
    train, test = tmp_path / "train.tsv", tmp_path / "test.tsv"
    write_dataset_tsv(train, TRAIN)
    write_dataset_tsv(test, TEST)
    config = tmp_path / "run.ini"
    config.write_text(f"[data]\ntrain = {train}\nvalidation = {test}\ntest = {test}\n\n"
                      f"[output]\ndir = {tmp_path / 'out'}\n", encoding="utf-8")

    assert main(["ablate", "--config", str(config), "--tune-threshold"]) == 0

    document, table = tmp_path / "out" / "ablation.json", tmp_path / "out" / "ablation.txt"
    expected = _tagged(document, ABLATION)
    assert document.read_text(encoding="utf-8") == _text(expected)
    assert table.read_text(encoding="utf-8") == f"# config: {expected['config_hash']}\n" + ABLATION_TABLE
