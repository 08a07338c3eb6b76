"""Command-line entry point.

Subcommands cover each stage (stats, train-baseline, predict, ensemble,
postprocess, evaluate) plus the orchestrated `pipeline` and `ablate`
runs and the clearly separated, network-using `expand-urls` cache
builder. Exit codes: 0 success, 1 usage error, 2 data error, 3 internal
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

from . import baseline
from .attribute_stats import AttributeKind, build_tables, load_table, save_tables, table_paths
from .config import (
    RunConfig, config_hash, load_config, parse_positive, parse_priority, parse_scheme, parse_threshold,
)
from .corpus import Label, iter_dataset, summarize
from .ensemble import VotingScheme, load_predictions, vote_all, write_ensemble_tsv
from .errors import BadRecord, DataError, DuplicateId, PipelineError, UsageError
from .evaluation import (
    DEFAULT_THRESHOLD_GRID,
    ablation_to_json,
    evaluate,
    format_ablation_text,
    run_ablation,
    tune_threshold,
)
from .fileio import atomic_write_text, parse_id, read_tsv, require_file, require_writable
from .heuristic import (
    DEFAULT_PRIORITY, HeuristicConfig, decide_inputs, decision_inputs, write_decisions_tsv,
)
from .pipeline import ablation_contexts, build_matrix, require_items, run_pipeline, split_records
from .preprocess import extract_attributes, load_cache


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


#: Parsed arguments that are not settings of what a command writes: its
#: handler and the flags that name an output.
_NOT_SETTINGS = {"func", "out", "out_dir", "summary_json", "json_out"}


def _tag(args, *inputs: Path | None) -> str:
    """The config hash of a stage command's artifacts: its flags, outputs
    aside, and the bytes of the input files it reads."""
    flags = {name: value for name, value in vars(args).items() if name not in _NOT_SETTINGS}
    return config_hash(json.dumps(flags, sort_keys=True), inputs=inputs)


def _heuristic_from_args(args) -> HeuristicConfig:
    priority = None if args.priority is None else parse_priority(args.priority, "--priority")
    changes = {"threshold": args.threshold, "priority": priority}
    return replace(HeuristicConfig(), **{key: value for key, value in changes.items() if value is not None})


def _cache_path(args) -> Path | None:
    return None if args.cache is None else require_file(args.cache, "cache")


def cmd_stats(args) -> int:
    train_path = require_file(args.train, "training data")
    cache_path = _cache_path(args)
    summary_json = [args.summary_json] if args.summary_json else []
    require_writable([*table_paths(args.out_dir).values(), *summary_json])  # before any table is written
    digest = _tag(args, train_path, cache_path)
    cache = load_cache(cache_path)
    labels: Counter = Counter()

    def tallied(items):
        for item in items:
            labels[item.label] += 1
            yield item

    items = tallied(iter_dataset(train_path, has_labels=True))
    tables = build_tables(items, cache)
    summary = summarize(labels, len(tables[AttributeKind.USERNAME]), len(tables[AttributeKind.DOMAIN]))
    save_tables(tables, args.out_dir, header_comment=f"config: {digest}")
    if args.summary_json:
        atomic_write_text(
            Path(args.summary_json),
            json.dumps(asdict(summary), indent=2, sort_keys=True) + "\n",
        )
    print(f"items: {summary.item_count}")
    print(f"unique usernames: {summary.unique_usernames}")
    print(f"unique domains: {summary.unique_domains}")
    if summary.real_fraction is not None:
        print(f"real fraction: {summary.real_fraction:.4f}")
        print(f"fake fraction: {summary.fake_fraction:.4f}")
    return 0


def cmd_train_baseline(args) -> int:
    train_path = require_file(args.train, "training data")
    digest = _tag(args, train_path)
    model = baseline.train(iter_dataset(train_path, has_labels=True))
    baseline.save_model(model, args.out, config_hash=digest)
    print(f"trained {model.model_name}: vocabulary {len(model.vocabulary)} tokens")
    return 0


def cmd_predict(args) -> int:
    model_path = require_file(args.model, "model")
    model = baseline.load_model(model_path)
    data_path = require_file(args.data, "data")
    digest = _tag(args, model_path, data_path)
    vectors = baseline.predict_dataset(model, iter_dataset(data_path))
    require_items(vectors, "the data split", data_path)
    baseline.write_predictions(vectors, args.out, header_comment=f"config: {digest}")
    print(f"wrote {len(vectors)} predictions to {args.out}")
    return 0


def cmd_ensemble(args) -> int:
    prediction_paths = [require_file(pred, "prediction") for pred in args.predictions]
    digest = _tag(args, *prediction_paths)
    matrix = load_predictions(prediction_paths)
    require_items(matrix.item_ids, "the prediction file", prediction_paths[0])
    results = vote_all(matrix, VotingScheme(args.scheme))
    write_ensemble_tsv(results, args.out, header_comment=f"config: {digest}")
    print(f"wrote {len(results)} {args.scheme}-voted results to {args.out}")
    return 0


def cmd_postprocess(args) -> int:
    data_path = require_file(args.data, "data")
    prediction_paths = [require_file(pred, "prediction") for pred in args.predictions]
    username_path = require_file(args.username_table, "username table")
    domain_path = require_file(args.domain_table, "domain table")
    cache_path = _cache_path(args)
    cfg = _heuristic_from_args(args)
    digest = _tag(args, data_path, *prediction_paths, username_path, domain_path, cache_path)
    tables = {kind: load_table(path, kind) for kind, path in (
        (AttributeKind.USERNAME, username_path), (AttributeKind.DOMAIN, domain_path))}
    records = split_records(data_path, tables, load_cache(cache_path))
    require_items(records, "the data split", data_path)
    del tables  # dropped, like the cache, before the prediction files are read
    matrix = load_predictions(prediction_paths)
    ensemble = vote_all(build_matrix(prediction_paths, matrix, "data", records, []))
    del matrix
    inputs = decision_inputs(records, ensemble)
    del records, ensemble  # the inputs hold what the decisions need of them
    decisions = decide_inputs(inputs, cfg)
    write_decisions_tsv(decisions, args.out, header_comment=f"config: {digest}")
    print(f"wrote {len(decisions)} decisions to {args.out}")
    return 0


def _read_label_column(path: Path) -> dict[int, Label]:
    """Read id -> label from any of our TSV outputs that carry both."""
    labels: dict[int, Label] = {}
    with read_tsv(path) as (header, rows):
        if header.count("id") != 1 or header.count("label") != 1:
            raise BadRecord(f"header {header!r} must name the id and label columns once each")
        id_col, label_col = header.index("id"), header.index("label")
        for row in rows:
            item_id, label = parse_id(row[id_col]), row[label_col]
            if item_id in labels:
                raise DuplicateId(item_id)
            labels[item_id] = Label.parse(label, item_id)
    return labels


def cmd_evaluate(args) -> int:
    gold_path = require_file(args.gold, "gold data")
    pred_path = require_file(args.pred, "prediction")
    gold_by_id = {item.id: item.label for item in iter_dataset(gold_path, has_labels=True)}
    require_items(gold_by_id, "the gold split", gold_path)
    predicted = _read_label_column(pred_path)
    missing = sorted(set(gold_by_id) - set(predicted))
    if missing:
        raise DataError(f"the predictions {pred_path.name} miss ids of {gold_path.name}, e.g. {missing[:5]}")
    ordered_ids = sorted(gold_by_id)
    report = evaluate([gold_by_id[i] for i in ordered_ids], [predicted[i] for i in ordered_ids])
    if args.json_out:
        atomic_write_text(Path(args.json_out), json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")
    print(report.format_text(f"{pred_path.name} vs {gold_path.name}"), end="")
    return 0


def _run_config(args) -> RunConfig:
    """The config file's run; --out-dir, a place and not a setting, moves its output."""
    cfg = load_config(args.config)
    if args.out_dir:
        cfg.output_dir = Path(args.out_dir)
    return cfg


def cmd_pipeline(args) -> int:
    result = run_pipeline(_run_config(args))
    for path in result.output_files:
        print(f"wrote {path}")
    if result.post_report is not None:
        print(result.pre_report.format_text("ensemble only:"), end="")
        print(result.post_report.format_text("ensemble + heuristic:"), end="")
    return 0


#: The paper's ablation grid: each attribute alone, then both in either order.
ABLATION_ORDERINGS = (
    (AttributeKind.USERNAME,),
    (AttributeKind.DOMAIN,),
    (AttributeKind.DOMAIN, AttributeKind.USERNAME),
    DEFAULT_PRIORITY,
)


def cmd_ablate(args) -> int:
    cfg = _run_config(args)
    out_dir = Path(cfg.output_dir)
    require_writable([out_dir / "ablation.txt", out_dir / "ablation.json"])
    if not args.tune_threshold:  # only tuning reads the priority; the tag hashes the default
        cfg.heuristic = replace(cfg.heuristic, priority=DEFAULT_PRIORITY)
    orderings = [[kind.value for kind in ordering] for ordering in ABLATION_ORDERINGS]
    own = {"ordering": orderings, "tune_threshold": args.tune_threshold}
    val_inputs, test_inputs, digest = ablation_contexts(cfg, json.dumps(own))
    threshold = cfg.heuristic.threshold
    extra: dict = {"config_hash": digest, "threshold": threshold}
    if args.tune_threshold:
        threshold = tune_threshold(val_inputs, DEFAULT_THRESHOLD_GRID, cfg.heuristic)
        extra.update(tuned_threshold=threshold, tuning_grid=list(DEFAULT_THRESHOLD_GRID))
    rows = run_ablation(val_inputs, test_inputs, ABLATION_ORDERINGS, threshold)
    text = f"# config: {digest}\n# threshold: {threshold!r}\n" + format_ablation_text(rows)
    atomic_write_text(out_dir / "ablation.txt", text)
    atomic_write_text(out_dir / "ablation.json", ablation_to_json(rows, extra))
    print(text, end="")
    print(f"wrote {out_dir / 'ablation.txt'}")
    print(f"wrote {out_dir / 'ablation.json'}")
    return 0


def cmd_expand_urls(args) -> int:
    urls: list[str] = []
    for item in iter_dataset(require_file(args.data, "data")):
        urls.extend(extract_attributes(item.text).urls)
    from . import urlexpand  # the network stack, needed by this command alone

    resolved, failed = urlexpand.build_cache(urls, args.out, timeout=args.timeout)
    print(f"resolved {resolved} urls ({failed} failed) -> {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="veracity",
        description="Fake-news classification pipeline: ensemble voting over "
        "per-model prediction vectors with attribute-based post-processing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="build attribute statistics tables from training data")
    p.add_argument("--train", required=True, help="labeled training TSV")
    p.add_argument("--cache", default=None, help="URL expansion cache TSV")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--summary-json", default=None, help="also write the summary as JSON")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train-baseline", help="train the built-in bag-of-words classifier")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True, help="model JSON output path")
    p.set_defaults(func=cmd_train_baseline)

    p = sub.add_parser("predict", help="emit prediction vectors for a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ensemble", help="vote over per-model prediction files")
    p.add_argument("--predictions", nargs="+", required=True)
    p.add_argument("--scheme", type=lambda value: parse_scheme(value, "--scheme").value,
                   default="soft", metavar="{soft,hard}")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("postprocess", help="apply the attribute heuristic to ensemble input")
    p.add_argument("--data", required=True)
    p.add_argument("--predictions", nargs="+", required=True)
    p.add_argument("--username-table", required=True)
    p.add_argument("--domain-table", required=True)
    p.add_argument("--cache", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=lambda value: parse_threshold(value, "--threshold"),
                   default=None, help="rule threshold in [0, 1]; 0 drops it")
    # checked as it is parsed, but kept as written, which the tag hashes
    p.add_argument("--priority", type=lambda value: parse_priority(value, "--priority") and value,
                   default=None, help="attribute priority order, e.g. 'username,domain' or 'domain'")
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("pipeline", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("evaluate", help="score a prediction file against gold labels")
    p.add_argument("--gold", required=True, help="labeled dataset TSV")
    p.add_argument("--pred", required=True, help="any output TSV with id and label columns")
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run the priority/threshold ablation grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--tune-threshold", action="store_true", help="tune on validation first")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser(
        "expand-urls",
        help="NETWORK: follow redirects to build the URL expansion cache",
    )
    p.add_argument("--data", required=True, help="dataset whose posts' URLs are resolved")
    p.add_argument("--out", required=True)
    p.add_argument("--timeout", type=lambda value: parse_positive(value, "--timeout"), default=10.0)
    p.set_defaults(func=cmd_expand_urls)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
