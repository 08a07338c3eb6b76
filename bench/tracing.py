"""Run one `veracity` command with its layers' public functions traced.

    python3 bench/tracing.py SPANS_FILE RUN_ID -- <veracity arguments>

The program is not edited: after import, each function listed in LAYERS
is replaced, in every `veracity` module that binds it, by a wrapper that
times the call. A stage-level call becomes a span (name, start, end,
parent span, run id, self time). Per-item calls, which number in the
hundreds of thousands, are folded into one record per parent span and
function holding the call count and the summed total and self times.
Self time is a call's duration minus that of the traced calls it made.
The per-item wrapper's own work outside its timed window (the call
through it, the stack and the folded record) would land on the
caller's self time; it is measured once per command on a no-op and
charged to a `trace.wrapper` record instead. The records are kept in
memory and written as JSON lines when the command ends.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

#: (module, function, metric its self time counts toward, per item)
LAYERS = (
    ("corpus", "load_dataset", "corpus.load_s", False),
    ("corpus", "sniff_has_labels", "corpus.load_s", False),
    ("corpus", "summarize", "corpus.summarize_s", False),
    ("preprocess", "extract_attributes", "preprocess.extract_s", True),
    ("preprocess", "clean_text", "preprocess.clean_s", True),
    ("preprocess", "load_cache", "preprocess.load_cache_s", False),
    ("attribute_stats", "build_table", "attribute_stats.build_s", False),
    ("attribute_stats", "tweet_attr_vector", "attribute_stats.vector_s", True),
    ("attribute_stats", "save_table", "attribute_stats.table_io_s", False),
    ("attribute_stats", "load_table", "attribute_stats.table_io_s", False),
    ("baseline", "train", "baseline.train_s", False),
    ("baseline", "predict", "baseline.predict_s", True),
    ("baseline", "predict_dataset", "baseline.predict_s", False),
    ("baseline", "save_model", "baseline.model_io_s", False),
    ("baseline", "load_model", "baseline.model_io_s", False),
    ("baseline", "write_predictions", "baseline.model_io_s", False),
    ("ensemble", "load_predictions", "ensemble.load_predictions_s", False),
    ("ensemble", "matrix_from_vectors", "ensemble.load_predictions_s", False),
    ("ensemble", "restrict_to", "ensemble.load_predictions_s", False),
    ("ensemble", "vote_all", "ensemble.vote_s", False),
    ("ensemble", "soft_vote", "ensemble.vote_s", True),
    ("ensemble", "hard_vote", "ensemble.vote_s", True),
    ("ensemble", "write_ensemble_tsv", "ensemble.write_s", False),
    ("heuristic", "prepare_inputs", "heuristic.prepare_s", False),
    ("heuristic", "decide", "heuristic.decide_s", True),
    ("heuristic", "decide_inputs", "heuristic.decide_s", False),
    ("heuristic", "decide_batch", "heuristic.decide_s", False),
    ("heuristic", "write_decisions_tsv", "heuristic.write_s", False),
    ("evaluation", "evaluate", "evaluation.evaluate_s", False),
    ("evaluation", "tune_threshold", "evaluation.tune_s", False),
    ("evaluation", "run_ablation", "evaluation.ablation_s", False),
    ("evaluation", "format_ablation_text", "evaluation.ablation_s", False),
    ("evaluation", "ablation_to_json", "evaluation.ablation_s", False),
    ("fileio", "atomic_write_text", "fileio.write_s", False),
    ("config", "load_config", "config.load_s", False),
    ("config", "config_hash", "config.load_s", False),
    ("pipeline", "run_pipeline", "pipeline.self_s", False),
    ("pipeline", "ablation_contexts", "pipeline.self_s", False),
    ("pipeline", "build_matrix", "pipeline.self_s", False),
)
ROOT = ("cli", "main", "cli.self_s")
WRAPPER = ("trace.wrapper", "trace.wrapper_s")  # record name, metric
CALIBRATION_CALLS = 20_000


def _note(name: str, args: tuple, kwargs: dict, result) -> dict | None:
    """Work counts read off a finished stage call."""
    if name == "corpus.load_dataset":
        path = kwargs.get("path", args[0] if args else None)
        return {"path": os.path.abspath(path), "items": len(result)}
    if name == "ensemble.load_predictions":
        return {"rows": len(result.rows) * len(result.model_names)}
    if name == "fileio.atomic_write_text":
        return {"bytes": os.path.getsize(kwargs.get("path", args[0] if args else None))}
    return None


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.folded: dict[tuple[int, str], list] = {}
        # open calls: [id of the span a call is recorded under, time of traced children]
        self.stack: list[list] = []
        self.next_id = 1
        # per-item wrapper cost outside its timed window, and its calls
        self.wrapper_cost = 0.0
        self.wrapper_calls = 0

    def span(self, fn, name: str):
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                record = {
                    "run": self.run_id, "span": span_id, "parent": parent and parent[0],
                    "name": name, "start": start, "end": end, "self_s": end - start - frame[1],
                }
                spans.append(record)
            note = _note(name, args, kwargs, result)
            if note:
                record.update(note)
            return result

        return wrapper

    def per_item(self, fn, name: str):
        stack, folded, clock = self.stack, self.folded, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0], 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[1] += duration + self.wrapper_cost
                self.wrapper_calls += 1
                entry = folded.get((frame[0], name))
                if entry is None:
                    folded[(frame[0], name)] = [1, duration, duration - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[1]

        return wrapper

    def calibrate(self) -> None:
        """Measure what one per-item call costs its caller beyond the
        callee's timed window: a loop over the wrapped no-op, less the
        windows and less the same loop over the bare no-op. Median of
        five trials."""
        clock = time.perf_counter

        def noop():
            return None

        wrapped = self.per_item(noop, WRAPPER[0])
        costs = []
        for _ in range(5):
            frame = [0, 0.0]
            self.stack.append(frame)
            start = clock()
            for _ in range(CALIBRATION_CALLS):
                wrapped()
            traced = clock() - start
            self.stack.pop()
            start = clock()
            for _ in range(CALIBRATION_CALLS):
                noop()
            bare = clock() - start
            costs.append(max(0.0, traced - frame[1] - bare) / CALIBRATION_CALLS)
        self.folded.clear()
        self.wrapper_calls = 0
        self.wrapper_cost = statistics.median(costs)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "veracity" or key.startswith("veracity.")]
        for module_name, function, _, per_item in LAYERS:
            original = getattr(sys.modules[f"veracity.{module_name}"], function)
            name = f"{module_name}.{function}"
            wrapped = self.per_item(original, name) if per_item else self.span(original, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def records(self) -> list[dict]:
        folded = [
            {"run": self.run_id, "parent": parent, "name": name, "calls": calls, "total_s": total, "self_s": self_s}
            for (parent, name), (calls, total, self_s) in self.folded.items()
        ]
        root = self.spans[-1]["span"]  # the root span ends last
        wrapper_s = self.wrapper_calls * self.wrapper_cost
        folded.append({
            "run": self.run_id, "parent": root, "name": WRAPPER[0], "calls": self.wrapper_calls,
            "total_s": wrapper_s, "self_s": wrapper_s, "per_call_s": self.wrapper_cost,
        })
        return self.spans + folded


def main(argv: list[str]) -> int:
    spans_path, run_id, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: tracing.py SPANS_FILE RUN_ID -- <veracity arguments>")
    import veracity.cli

    tracer = Tracer(run_id)
    tracer.calibrate()
    tracer.install()
    code = tracer.span(veracity.cli.main, ".".join(ROOT[:2]))(cli_args)
    with open(spans_path, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(record) + "\n" for record in tracer.records())
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
