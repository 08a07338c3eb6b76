"""End-to-end orchestration: stats, predictions, voting, post-processing,
reports. Every artifact is written atomically and tagged with the config
hash, and nothing here depends on wall-clock time, so a rerun with the
same inputs is byte-identical. Every split is read as a stream, and of
an evaluation split a few numbers per item are kept, not its text. Each
item is voted once and decided on its result.

`pipeline` and `ablate` always run in two processes; nothing sets that.
A child reads the URL cache, counts the attribute tables and looks up
each evaluation split's attribute vectors, while this process trains the
built-in model and predicts each split, or loads the prediction files.
Each chunk of the training split's text is counted by whichever reaches it first.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Iterator, Sequence, Sized

from . import baseline
from .attribute_stats import AttributeKind, build_tables, save_tables, table_paths
from .config import RunConfig, config_hash, require_paths
from .corpus import Label, iter_dataset
from .ensemble import (
    PredictionMatrix,
    VotingScheme,
    load_predictions,
    matrix_from_vectors,
    restrict_to,
    vote_all,
    write_ensemble_tsv,
)
from .errors import DataError, PipelineError, UsageError
from .evaluation import EvalReport, evaluate
from .fileio import atomic_write_text, require_writable
from .heuristic import (
    DecisionInput,
    decide_inputs,
    decision_inputs,
    item_records,
    write_decisions_tsv,
)
from .preprocess import UrlExpansionCache, load_cache


@dataclass
class PipelineResult:
    """Everything a pipeline run produced, for callers and tests."""

    pre_report: EvalReport | None
    post_report: EvalReport | None
    output_files: list[Path]


#: Where a split's predictions come from: prediction files, or the built-in model.
PredictionSource = PredictionMatrix | baseline.BowModel


def prediction_source(cfg: RunConfig, claim=None, rest=dict) -> PredictionSource:
    """The prediction files, read once, or else the built-in model,
    trained on the training split as it is read (see baseline.train)."""
    if cfg.prediction_paths:
        return load_predictions(cfg.prediction_paths)
    items = iter_dataset(cfg.train_path, has_labels=True)
    return baseline.train(items, claim, rest)


def split_vectors(source: PredictionSource, path: Path) -> list[baseline.PredictionVector]:
    """The built-in model's vectors for a split as it is read; none from files."""
    if isinstance(source, baseline.BowModel):
        return baseline.predict_dataset(source, iter_dataset(path))
    return []


def split_records(path: Path, tables: dict, cache: UrlExpansionCache) -> list[tuple]:
    """item_records of an evaluation split, read as a stream and never held whole."""
    username_table, domain_table = tables[AttributeKind.USERNAME], tables[AttributeKind.DOMAIN]
    return item_records(iter_dataset(path), username_table, domain_table, cache)


def require_items(items: Sized, what: str, path: Path) -> None:
    """What a command scores must hold items; checked before anything is written."""
    if not items:
        raise DataError(f"{what} {path.name} has no items to score")


def attribute_side(cfg: RunConfig, split_paths: Sequence[Path], claim=None) -> Iterator:
    """With claim, the token counts of the chunks it grants, then the tables
    counted in that pass over the training split, then each split's records."""
    cache = load_cache(cfg.cache_path)
    counts = {label: Counter() for label in Label}
    items = iter_dataset(cfg.train_path, has_labels=True)
    if claim is not None:
        items = baseline.count_text(items, counts, claim)
    tables = build_tables(items, cache)
    if claim is not None:
        yield counts  # alone: pickled with the tables, it would raise this process's peak
    del counts
    yield tables
    for path in split_paths:
        yield split_records(path, tables, cache)


def _serve_attribute_side(writer, *args) -> None:
    """A child process's work: send each of attribute_side(*args)'s
    results, then the error that ends them, if one does."""
    try:
        for message in attribute_side(*args):
            writer.send(message)
            del message  # not held while the next split is read
    except Exception as error:
        writer.send(error)


def _beside(reader, work=tuple, *args) -> tuple:
    """work(*args)'s result, then the child's next message. An error the
    child sent wins over one from work: the cache and the training split,
    which the child reads, come first, and both sides read a split's rows."""
    try:
        result, failure = work(*args), None
    except Exception as error:
        result, failure = None, error
    try:
        message = reader.recv()
    except EOFError:  # the child has ended
        message = failure or PipelineError("the attribute-side process ended without a result")
    for error in (message, failure):
        if isinstance(error, BaseException):
            raise error
    return result, message


def _claim(claimed, lock, chunk: int) -> bool:
    """True for the first process to ask for chunk: each asks in order; claimed counts claims."""
    with lock:
        if int.from_bytes(claimed, "little") != chunk:
            return False
        claimed[:] = (chunk + 1).to_bytes(8, "little")
        return True


@contextmanager
def _attribute_process(cfg: RunConfig, split_paths: Sequence[Path]) -> Iterator:
    """attribute_side run in a child process beside this one, which is
    stopped on the way out; yields _beside, and prediction_source's claim and rest."""
    import mmap
    import multiprocessing  # only these two commands start a process

    # a forked child does not import the package again
    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else "spawn")
    share = fork and not cfg.prediction_paths  # with a forked child, for the built-in model only
    claim = partial(_claim, mmap.mmap(-1, 8), context.Lock()) if share else None
    reader, writer = context.Pipe(duplex=False)
    args = (writer, cfg, tuple(split_paths), claim)
    child = context.Process(target=_serve_attribute_side, args=args, daemon=True)
    child.start()
    writer.close()  # else the end of the pipe is not seen if the child dies
    try:
        yield partial(_beside, reader), claim, (lambda: _beside(reader)[1]) if share else dict
    finally:  # past its last message the child has nothing left to do
        child.terminate()
        child.join()
        child.close()
        reader.close()  # after the child, which would fail to write to it


def build_matrix(
    prediction_paths: Sequence[Path], source: PredictionSource, split: str,
    records: list[tuple], vectors: list,
) -> PredictionMatrix:
    """Exactly the split's prediction rows: trimmed from the files, which
    may cover a superset of it and are named if they miss an id, or the model's vectors."""
    if isinstance(source, baseline.BowModel):
        return matrix_from_vectors({source.model_name: vectors})
    files = ", ".join(path.name for path in prediction_paths)
    return restrict_to(source, [r[0] for r in records], f"{files} do not cover the {split} split: ")


def _report_text(summary: dict, pre: EvalReport | None, post: EvalReport | None) -> str:
    counts = summary["decided_by"]
    lines = [
        f"# config: {summary['config_hash']}",
        f"items: {summary['n_items']}",
        f"ensemble scheme: {summary['scheme']}",
    ]
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
    Every check, each output path's included, and every number comes
    before the last block, whose writes can fail only on I/O.
    """
    require_paths(cfg, "train", "test")
    out_dir = Path(cfg.output_dir)
    model_files: list[Path] = []

    splits = [cfg.test_path]
    with _attribute_process(cfg, splits) as (beside, claim, rest):
        # while the child reads; the validation split, which this run does not read, left out
        digest = config_hash(replace(cfg, validation_path=None), inputs=splits)
        source, tables = beside(prediction_source, cfg, claim, rest)
        vectors, records = beside(split_vectors, source, cfg.test_path)
    require_items(records, "the test split", cfg.test_path)
    labeled = None not in (record[3] for record in records)
    if isinstance(source, baseline.BowModel):
        model_files = [out_dir / "baseline_model.json", out_dir / "baseline_predictions.tsv"]
    reports = ("report.json", "report.txt") if labeled else ("report.txt",)
    written = [*table_paths(out_dir).values(), *model_files,
               *(out_dir / name for name in ("ensemble.tsv", "decisions.tsv", *reports))]
    require_writable(written)  # every output path, before the first write
    if model_files:
        # as the predict command does, so the file and the matrix match the staged chain's;
        # the only writes before the last block, so that the model is not held through the vote
        baseline.save_model(source, model_files[0], config_hash=digest)
        baseline.write_predictions(vectors, model_files[1], header_comment=f"config: {digest}")
    # with prediction files nothing is written yet: ids they miss stop the run here
    matrix = build_matrix(cfg.prediction_paths, source, "test", records, vectors)
    del source, vectors  # a trained model and its vectors, or all the files' rows, past the matrix
    ensemble_results = vote_all(matrix, cfg.scheme)
    del matrix
    inputs = decision_inputs(records, ensemble_results)
    decisions = decide_inputs(inputs, cfg.heuristic)
    gold = [entry.gold for entry in inputs]
    summary = {  # what report.txt and report.json both say of the run
        "config_hash": digest,
        "n_items": len(gold),
        "scheme": cfg.scheme.value,
        "threshold": cfg.heuristic.threshold,
        "priority": [kind.value for kind in cfg.heuristic.priority],
        "use_threshold": cfg.heuristic.threshold > 0.0,  # a fact of the threshold, not a setting
        "decided_by": dict(Counter(decision.decided_by.value for decision in decisions)),
    }
    pre_report = post_report = None
    if labeled:
        pre_report = evaluate(gold, [result.label for result in ensemble_results])
        post_report = evaluate(gold, [decision.label for decision in decisions])

    save_tables(tables, out_dir, header_comment=f"config: {digest}")
    write_ensemble_tsv(ensemble_results, out_dir / "ensemble.tsv", header_comment=f"config: {digest}")
    write_decisions_tsv(decisions, out_dir / "decisions.tsv", header_comment=f"config: {digest}")
    if labeled:
        report = {**summary, "ensemble_only": asdict(pre_report), "post_processed": asdict(post_report)}
        atomic_write_text(out_dir / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    atomic_write_text(out_dir / "report.txt", _report_text(summary, pre_report, post_report))

    return PipelineResult(pre_report, post_report, written)


def ablation_contexts(
    cfg: RunConfig, extra: str = ""
) -> tuple[list[DecisionInput], list[DecisionInput], str]:
    """Read the splits and build decision inputs for the ablation grid,
    and the config hash of cfg and extra, the ablation's own settings;
    cfg's scheme is hashed as soft, the one this grid uses.

    Both validation and test must be labeled. External prediction files,
    when configured, must cover the union of the two splits' ids;
    otherwise the baseline is trained once and applied to both. Each
    item is soft-voted once. Nothing is written to disk here.
    """
    require_paths(cfg, "train", "validation", "test")
    contexts = []
    splits = [cfg.validation_path, cfg.test_path]
    with _attribute_process(cfg, splits) as (beside, claim, rest):
        soft = replace(cfg, scheme=VotingScheme.SOFT)
        digest = config_hash(soft, extra, inputs=splits)  # while the child reads
        source, _ = beside(prediction_source, cfg, claim, rest)  # the tables, drained all the same
        for name, path in (("validation", cfg.validation_path), ("test", cfg.test_path)):
            vectors, records = beside(split_vectors, source, path)
            require_items(records, f"the {name} split", path)
            if any(record[3] is None for record in records):
                raise UsageError(f"the {name} split must be labeled for an ablation run")
            matrix = build_matrix(cfg.prediction_paths, source, name, records, vectors)
            del vectors  # not held through the vote
            if name == "test":  # the last matrix is built: the model, or the files' rows, go too
                del source
            contexts.append(decision_inputs(records, vote_all(matrix)))
            del records, matrix  # not held beside the next split's
    return *contexts, digest
