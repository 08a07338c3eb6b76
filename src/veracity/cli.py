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
from pathlib import Path

from . import baseline
from .attribute_stats import AttributeKind, build_tables, load_table, save_tables
from .config import (
    RunConfig, config_hash, load_config, override, parse_names, parse_positive, parse_priority,
)
from .corpus import CorpusSummary, Label, iter_dataset, label_fractions
from .ensemble import VotingScheme, load_predictions, restrict_to, vote_all, write_ensemble_tsv
from .errors import BadRecord, DataError, DuplicateId, PipelineError, UsageError
from .evaluation import (
    DEFAULT_THRESHOLD_GRID,
    ablation_to_json,
    evaluate,
    format_ablation_text,
    run_ablation,
    tune_threshold,
)
from .fileio import atomic_write_text, data_lines, data_rows, open_lines, parse_id, require_file
from .heuristic import DEFAULT_PRIORITY, HeuristicConfig, decide_inputs, write_decisions_tsv
from .pipeline import ablation_contexts, decision_inputs, run_pipeline, split_records
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


def _heuristic_from_args(args, base: HeuristicConfig | None = None) -> HeuristicConfig:
    return override(
        base or HeuristicConfig(),
        threshold=args.threshold,
        priority=None if args.priority is None else parse_priority(args.priority, "--priority"),
        use_threshold=False if args.no_threshold else None,
    )


def _add_heuristic_flags(sub) -> None:
    sub.add_argument("--threshold", type=float, default=None, help="override rule threshold")
    sub.add_argument(
        "--priority",
        default=None,
        help="attribute priority order, e.g. 'username,domain' or 'domain'",
    )
    sub.add_argument(
        "--no-threshold",
        action="store_true",
        help="drop the threshold conjunct; attribute majority alone decides",
    )


def _cache_path(args) -> Path | None:
    return None if args.cache is None else require_file(args.cache, "cache")


def cmd_stats(args) -> int:
    train_path = require_file(args.train, "training data")
    cache_path = _cache_path(args)
    digest = _tag(args, train_path, cache_path)
    cache = load_cache(cache_path)
    labels: Counter = Counter()

    def tallied(items):
        for item in items:
            labels[item.label] += 1
            yield item

    items = tallied(iter_dataset(train_path, has_labels=True))
    tables = build_tables(items, cache, per_item_dedup=args.dedup_per_item)
    save_tables(tables, args.out_dir, header_comment=f"config: {digest}")
    n_items = labels.total()
    summary = CorpusSummary(
        n_items, *(label_fractions(labels[Label.REAL], n_items) or (None, None)),
        len(tables[AttributeKind.USERNAME]), len(tables[AttributeKind.DOMAIN]),
    )
    print(f"items: {summary.item_count}")
    print(f"unique usernames: {summary.unique_usernames}")
    print(f"unique domains: {summary.unique_domains}")
    if summary.real_fraction is not None:
        print(f"real fraction: {summary.real_fraction:.4f}")
        print(f"fake fraction: {summary.fake_fraction:.4f}")
    if args.summary_json:
        atomic_write_text(
            Path(args.summary_json),
            json.dumps(summary.as_dict(), indent=2, sort_keys=True) + "\n",
        )
    return 0


def cmd_train_baseline(args) -> int:
    train_path = require_file(args.train, "training data")
    digest = _tag(args, train_path)
    model = baseline.train(
        iter_dataset(train_path, has_labels=True), alpha=args.alpha, model_name=args.name
    )
    baseline.save_model(model, args.out, config_hash=digest)
    print(f"trained {model.model_name}: vocabulary {len(model.vocabulary)} tokens")
    return 0


def cmd_predict(args) -> int:
    model_path = require_file(args.model, "model")
    model = baseline.load_model(model_path)
    data_path = require_file(args.data, "data")
    digest = _tag(args, model_path, data_path)
    vectors = baseline.predict_dataset(model, iter_dataset(data_path))
    baseline.write_predictions(vectors, args.out, header_comment=f"config: {digest}")
    print(f"wrote {len(vectors)} predictions to {args.out}")
    return 0


def cmd_ensemble(args) -> int:
    prediction_paths = [require_file(pred, "prediction") for pred in args.predictions]
    digest = _tag(args, *prediction_paths)
    matrix = load_predictions(prediction_paths, parse_names(args.names or "", "--names") or None)
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
    matrix = load_predictions(prediction_paths)
    tables = {kind: load_table(path, kind) for kind, path in (
        (AttributeKind.USERNAME, username_path), (AttributeKind.DOMAIN, domain_path))}
    records = split_records(data_path, tables, load_cache(cache_path))
    ensemble = vote_all(restrict_to(matrix, [record[0] for record in records]))
    del matrix
    decisions = decide_inputs(decision_inputs(records, ensemble), cfg)
    write_decisions_tsv(decisions, args.out, header_comment=f"config: {digest}")
    print(f"wrote {len(decisions)} decisions to {args.out}")
    return 0


def _read_label_column(path: Path) -> dict[int, Label]:
    """Read id -> label from any of our TSV outputs that carry both."""
    labels: dict[int, Label] = {}
    with open_lines(path) as lines:
        rows = data_rows(lines)
        header = [cell.strip().lower() for cell in next(rows, [])]
        if not header:
            raise BadRecord("file is empty")
        try:
            id_col = header.index("id")
            label_col = header.index("label")
        except ValueError:
            raise BadRecord(f"no id/label columns in header {header!r}") from None
        for row in rows:
            if len(row) <= max(id_col, label_col):
                raise BadRecord(f"expected an integer id and a label, found {row!r}")
            item_id, label = parse_id(row[id_col]), row[label_col]
            if item_id in labels:
                raise DuplicateId(item_id)
            labels[item_id] = Label.parse(label, item_id)
    return labels


def cmd_evaluate(args) -> int:
    gold_path = require_file(args.gold, "gold data")
    pred_path = require_file(args.pred, "prediction")
    gold_by_id = {item.id: item.label for item in iter_dataset(gold_path, has_labels=True)}
    predicted = _read_label_column(pred_path)
    missing = sorted(set(gold_by_id) - set(predicted))
    if missing:
        raise DataError(f"predictions missing ids, e.g. {missing[:5]}")
    ordered_ids = sorted(gold_by_id)
    report = evaluate(
        [gold_by_id[i] for i in ordered_ids],
        [predicted[i] for i in ordered_ids],
        average=args.average,
    )
    print(report.format_text(f"{pred_path.name} vs {gold_path.name}"), end="")
    if args.json_out:
        atomic_write_text(Path(args.json_out), json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def cmd_pipeline(args) -> int:
    cfg = _config_with_overrides(args)
    result = run_pipeline(cfg)
    for path in result.output_files:
        print(f"wrote {path}")
    if result.post_report is not None:
        print(result.pre_report.format_text("ensemble only:"), end="")
        print(result.post_report.format_text("ensemble + heuristic:"), end="")
    return 0


def _config_with_overrides(args) -> RunConfig:
    cfg = load_config(args.config)
    if getattr(args, "out_dir", None):
        cfg.output_dir = Path(args.out_dir)
    if getattr(args, "scheme", None):
        cfg.scheme = VotingScheme(args.scheme)
    cfg.heuristic = _heuristic_from_args(args, cfg.heuristic)
    return cfg


def _parse_orderings(values: list[str] | None) -> list[tuple[AttributeKind, ...]]:
    if not values:
        return [
            (AttributeKind.USERNAME,),
            (AttributeKind.DOMAIN,),
            (AttributeKind.DOMAIN, AttributeKind.USERNAME),
            DEFAULT_PRIORITY,
        ]
    return [parse_priority(value, "--ordering") for value in values]


def cmd_ablate(args) -> int:
    orderings = _parse_orderings(args.ordering)
    cfg = _config_with_overrides(args)
    own = {"ordering": [[k.value for k in o] for o in orderings], "tune_threshold": args.tune_threshold}
    val_inputs, val_gold, test_inputs, test_gold, digest = ablation_contexts(cfg, json.dumps(own))
    extra: dict = {"config_hash": digest, "threshold": cfg.heuristic.threshold}
    if args.tune_threshold:
        tuned = tune_threshold(val_inputs, val_gold, DEFAULT_THRESHOLD_GRID, cfg.heuristic)
        extra["tuned_threshold"] = tuned
        extra["tuning_grid"] = list(DEFAULT_THRESHOLD_GRID)
        threshold = tuned
    else:
        threshold = cfg.heuristic.threshold
    rows = run_ablation(val_inputs, val_gold, test_inputs, test_gold, orderings, threshold)
    out_dir = Path(cfg.output_dir)
    text = f"# config: {digest}\n# threshold: {threshold!r}\n" + format_ablation_text(rows)
    atomic_write_text(out_dir / "ablation.txt", text)
    atomic_write_text(out_dir / "ablation.json", ablation_to_json(rows, extra))
    print(text, end="")
    print(f"wrote {out_dir / 'ablation.txt'}")
    print(f"wrote {out_dir / 'ablation.json'}")
    return 0


def cmd_expand_urls(args) -> int:
    urls: list[str] = []
    if args.urls_file:
        urls_path = require_file(args.urls_file, "urls list")
        with open_lines(urls_path) as lines:
            urls.extend(line.strip() for line in data_lines(lines))
    if args.data:
        for item in iter_dataset(require_file(args.data, "data")):
            urls.extend(extract_attributes(item.text).urls)
    if not urls:
        raise UsageError("nothing to expand: pass --urls-file and/or --data")
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
    p.add_argument(
        "--dedup-per-item",
        action="store_true",
        help="count each attribute at most once per item",
    )
    p.add_argument("--summary-json", default=None, help="also write the summary as JSON")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train-baseline", help="train the built-in bag-of-words classifier")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument(
        "--alpha", type=lambda value: parse_positive(value, "--alpha"), default=1.0,
        help="additive smoothing strength",
    )
    p.add_argument("--name", default=baseline.DEFAULT_MODEL_NAME)
    p.set_defaults(func=cmd_train_baseline)

    p = sub.add_parser("predict", help="emit prediction vectors for a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ensemble", help="vote over per-model prediction files")
    p.add_argument("--predictions", nargs="+", required=True)
    p.add_argument("--names", default=None, help="comma-separated model names")
    p.add_argument("--scheme", choices=["soft", "hard"], default="soft")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("postprocess", help="apply the attribute heuristic to ensemble input")
    p.add_argument("--data", required=True)
    p.add_argument("--predictions", nargs="+", required=True)
    p.add_argument("--username-table", required=True)
    p.add_argument("--domain-table", required=True)
    p.add_argument("--cache", default=None)
    p.add_argument("--out", required=True)
    _add_heuristic_flags(p)
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("pipeline", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--scheme", choices=["soft", "hard"], default=None)
    _add_heuristic_flags(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("evaluate", help="score a prediction file against gold labels")
    p.add_argument("--gold", required=True, help="labeled dataset TSV")
    p.add_argument("--pred", required=True, help="any output TSV with id and label columns")
    p.add_argument("--average", choices=["weighted", "macro"], default="weighted")
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run the priority/threshold ablation grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.add_argument(
        "--ordering",
        action="append",
        default=None,
        help="priority ordering to evaluate (repeatable); default is the full grid",
    )
    p.add_argument("--tune-threshold", action="store_true", help="tune on validation first")
    _add_heuristic_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser(
        "expand-urls",
        help="NETWORK: follow redirects to build the URL expansion cache",
    )
    p.add_argument("--urls-file", default=None, help="one URL per line")
    p.add_argument("--data", default=None, help="dataset to harvest URLs from")
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
