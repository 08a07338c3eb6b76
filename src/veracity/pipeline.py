"""End-to-end orchestration: stats, predictions, voting, post-processing,
reports. Every artifact is written atomically and tagged with the config
hash, and nothing here depends on wall-clock time, so a rerun with the
same inputs is byte-identical. Every split is read in one pass, a batch
of posts at a time; of an evaluation split a few numbers per item are
kept, not its text. Each item is voted once and decided on its result.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from pathlib import Path

from . import baseline
from .attribute_stats import AttributeKind, AttributeStatsTable, TableCounter, save_tables
from .config import RunConfig, config_hash, require_paths
from .corpus import Label, iter_dataset
from .ensemble import (
    EnsembleResult,
    PredictionMatrix,
    load_predictions,
    matrix_from_vectors,
    restrict_to,
    vote_all,
    write_ensemble_tsv,
)
from .errors import UsageError
from .evaluation import EvalReport, evaluate
from .fileio import atomic_write_text
from .heuristic import (
    DecisionInput,
    HeuristicDecision,
    attr_vectors,
    decide_inputs,
    write_decisions_tsv,
)
from .preprocess import UrlExpansionCache, load_cache


@dataclass
class PipelineResult:
    """Everything a pipeline run produced, for callers and tests."""

    ensemble_results: list[EnsembleResult]
    decisions: list[HeuristicDecision]
    pre_report: EvalReport | None
    post_report: EvalReport | None
    output_files: list[Path]


#: Where a split's predictions come from: prediction files, or the built-in model.
PredictionSource = PredictionMatrix | baseline.BowModel

#: Posts read together. Adding a training batch to one set of counts and
#: then to the other was about 10 % faster than alternating per post
#: (bench corpus, fresh processes, 2 vCPUs); 2,048 posts hold about 1.7 MB.
_BATCH = 2048


def _load_train_side(
    cfg: RunConfig,
) -> tuple[UrlExpansionCache, dict[AttributeKind, AttributeStatsTable], PredictionSource]:
    """The URL expansion cache, the attribute tables built from the
    training split and the prediction source: the configured prediction
    files, read once, or else the built-in model trained on the split.
    The split, the largest thing a run would hold, is read as a stream:
    one pass adds each batch of posts to the table counts, then to the
    model counts, then drops it. The cache is read first, because
    extraction needs it."""
    cache = load_cache(cfg.cache_path)
    tables = TableCounter(cache)
    trainer = None if cfg.prediction_paths else baseline.BowTrainer(cfg.clean_policy, cfg.alpha)
    counters = [tables] if trainer is None else [tables, trainer]
    items = iter_dataset(cfg.train_path, has_labels=True)
    while batch := list(islice(items, _BATCH)):
        for counter in counters:
            for item in batch:
                counter.add(item)
        del batch  # not held while the next one is read
    if trainer is None:
        source = load_predictions(cfg.prediction_paths, cfg.prediction_names or None)
    else:
        source = trainer.model()
    return cache, tables.tables(), source


def _read_split(
    path: Path,
    source: PredictionSource,
    tables: dict[AttributeKind, AttributeStatsTable],
    cache: UrlExpansionCache,
) -> tuple[list[tuple], list[baseline.PredictionVector]]:
    """One pass over an evaluation split, which is never held whole: per
    item (id, username vector, domain vector, gold label) in id order, and
    the built-in model's vectors if it is the source. The text of a batch
    is dropped once the batch is predicted and looked up."""
    username_table, domain_table = tables[AttributeKind.USERNAME], tables[AttributeKind.DOMAIN]
    records, vectors = [], []
    items = iter_dataset(path)
    while batch := list(islice(items, _BATCH)):
        if isinstance(source, baseline.BowModel):
            vectors += baseline.predict_dataset(source, batch)
        records += [
            (item.id, *attr_vectors(item.text, username_table, domain_table, cache), item.label)
            for item in batch
        ]
        del batch  # not held while the next one is read
    records.sort(key=itemgetter(0))
    return records, vectors


def build_matrix(
    cfg: RunConfig, source: PredictionSource, split: str, records: list[tuple], vectors: list
) -> PredictionMatrix:
    """Exactly the split's prediction rows: trimmed from the files, which
    may cover a superset of it, or the model's vectors."""
    if isinstance(source, baseline.BowModel):
        return matrix_from_vectors({source.model_name: vectors})
    files = ", ".join(path.name for path in cfg.prediction_paths)
    return restrict_to(source, [r[0] for r in records], f"{files} do not cover the {split} split: ")


def _decision_inputs(records: list[tuple], ensemble: list[EnsembleResult]) -> list[DecisionInput]:
    """The records' decision inputs; ensemble is vote_all's output for them."""
    return [DecisionInput(i, result, u, d) for (i, u, d, _), result in zip(records, ensemble)]


def _decided_by_counts(decisions: list[HeuristicDecision]) -> Counter:
    return Counter(decision.decided_by.value for decision in decisions)


def _report_text(
    digest: str,
    n_items: int,
    scheme: str,
    pre: EvalReport | None,
    post: EvalReport | None,
    decisions: list[HeuristicDecision],
) -> str:
    lines = [f"# config: {digest}", f"items: {n_items}", f"ensemble scheme: {scheme}"]
    counts = _decided_by_counts(decisions)
    lines.append(
        "decided_by: "
        + " ".join(f"{key}={counts.get(key, 0)}" for key in ("username_rule", "domain_rule", "ensemble"))
    )
    if pre is None or post is None:
        lines.append("metrics: (target split unlabeled; no evaluation)")
        return "\n".join(lines) + "\n"
    return (
        "\n".join(lines)
        + "\n\n"
        + pre.format_text("ensemble only:")
        + "\n"
        + post.format_text("ensemble + heuristic post-processing:")
    )


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    """Run the whole flow described by a config; returns the artifacts.

    Each test item is voted once, by the configured scheme, which sets
    ensemble.tsv's labels and the "ensemble only" metrics; the heuristic
    reads those results' mean probabilities, the same in both schemes.
    """
    require_paths(cfg, "train", "test")
    digest = config_hash(cfg)
    out_dir = Path(cfg.output_dir)
    written: list[Path] = []

    cache, tables, source = _load_train_side(cfg)
    records, vectors = _read_split(cfg.test_path, source, tables, cache)
    written.extend(save_tables(tables, out_dir, header_comment=f"config: {digest}"))

    if isinstance(source, baseline.BowModel):
        # as the predict command does, so the file and the matrix match the staged chain's
        model_path = out_dir / "baseline_model.json"
        baseline.save_model(source, model_path, config_hash=digest)
        predictions_path = out_dir / "baseline_predictions.tsv"
        baseline.write_predictions(vectors, predictions_path, header_comment=f"config: {digest}")
        written += [model_path, predictions_path]

    matrix = build_matrix(cfg, source, "test", records, vectors)
    del source, vectors  # a trained model and its vectors are not needed past the matrix
    ensemble_results = vote_all(matrix, cfg.scheme)
    del matrix
    ensemble_path = out_dir / "ensemble.tsv"
    write_ensemble_tsv(ensemble_results, ensemble_path, header_comment=f"config: {digest}")
    written.append(ensemble_path)

    decisions = decide_inputs(_decision_inputs(records, ensemble_results), cfg.heuristic)
    decisions_path = out_dir / "decisions.tsv"
    write_decisions_tsv(decisions, decisions_path, header_comment=f"config: {digest}")
    written.append(decisions_path)

    pre_report = post_report = None
    gold = [record[3] for record in records]
    if None not in gold:
        pre_report = evaluate(gold, [result.label for result in ensemble_results])
        post_report = evaluate(gold, [decision.label for decision in decisions])
        report_json = {
            "config_hash": digest,
            "n_items": len(gold),
            "scheme": cfg.scheme.value,
            "threshold": cfg.heuristic.threshold,
            "priority": [kind.value for kind in cfg.heuristic.priority],
            "use_threshold": cfg.heuristic.use_threshold,
            "decided_by": dict(_decided_by_counts(decisions)),
            "ensemble_only": pre_report.as_dict(),
            "post_processed": post_report.as_dict(),
        }
        json_path = out_dir / "report.json"
        atomic_write_text(json_path, json.dumps(report_json, indent=2, sort_keys=True) + "\n")
        written.append(json_path)

    report_path = out_dir / "report.txt"
    atomic_write_text(
        report_path,
        _report_text(digest, len(gold), cfg.scheme.value, pre_report, post_report, decisions),
    )
    written.append(report_path)

    return PipelineResult(
        ensemble_results=ensemble_results,
        decisions=decisions,
        pre_report=pre_report,
        post_report=post_report,
        output_files=written,
    )


def ablation_contexts(
    cfg: RunConfig,
) -> tuple[list[DecisionInput], list[Label], list[DecisionInput], list[Label], str]:
    """Read the splits and build decision inputs for the ablation grid.

    Both validation and test must be labeled. External prediction files,
    when configured, must cover the union of the two splits' ids;
    otherwise the baseline is trained once and applied to both. Each
    item is soft-voted once. Nothing is written to disk here.
    """
    require_paths(cfg, "train", "validation", "test")
    digest = config_hash(cfg)
    cache, tables, source = _load_train_side(cfg)

    contexts = []
    for name, path in (("validation", cfg.validation_path), ("test", cfg.test_path)):
        records, vectors = _read_split(path, source, tables, cache)
        gold = [record[3] for record in records]
        if None in gold:
            raise UsageError(f"the {name} split must be labeled for an ablation run")
        ensemble = vote_all(build_matrix(cfg, source, name, records, vectors))
        contexts.append((_decision_inputs(records, ensemble), gold))
        del records, vectors, ensemble  # not held beside the next split's
    (val_inputs, val_gold), (test_inputs, test_gold) = contexts
    return val_inputs, val_gold, test_inputs, test_gold, digest
