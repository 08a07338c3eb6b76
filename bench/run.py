"""Benchmark of the veracity command-line pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a source checkout; the program is imported from
its `src/`. Each run generates a seeded corpus at five times the paper's
scale (53,500 posts split 60/20/20), then repeats the workload's
`veracity` commands in whole rounds for S seconds, starting no round
that would end past them. Every command starts as a fresh interpreter,
the way a user starts it. Before each command run and after the last,
the fixed work of bench/yardstick.py is timed; `wall_ratio` divides each
command's wall time by the mean of the yardstick times around it and sums
them over the round. After
the last round, every artifact is checked against the reference
computation, each check must reject a copy of its artifact with one
value changed, and every round must have written the same bytes.

With --trace 0 the result holds the end-to-end metrics; with --trace 1
rounds alternate between untraced and traced runs of the same commands
and the result holds the per-layer metrics (see bench/README.md).
The last line of standard output is the result as one JSON object; the
line before it records the run (git commit, Python, CPUs, seed, rounds,
what the inputs exercised).

--smoke runs every workload, untraced and traced, for one round each on
an 8,000-post corpus, with every check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

N_ITEMS = 53_500  # five times the paper's 10,700 posts
SMOKE_ITEMS = 8_000
SETUP_SAMPLES = 3  # before the first round; two more follow each round's first yardstick run
# What the console script `veracity` runs.
LAUNCH = "import sys; from veracity.cli import main; sys.exit(main())"
SETUP = "from veracity.cli import build_parser; build_parser()"
YARDSTICK = [sys.executable, str(BENCH / "yardstick.py")]

# Raw wall time is in the run record; it spreads too widely between runs
# on a host whose speed changes (see bench/yardstick.py) to carry a bound.
END_TO_END = {"wall_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
_COUNTS = {
    "corpus.files_opened": "count",
    "preprocess.extract_calls_per_item": "ratio",
    "ensemble.rows_parsed": "count",
    "heuristic.decisions": "count",
    "evaluation.evaluate_calls": "count",
    "fileio.bytes_written": "bytes",
}
_TIMES = [metric for _, _, metric, _ in tracing.LAYERS] + [tracing.ROOT[2], tracing.WRAPPER[1]]
PER_LAYER = {
    **{metric: "s" for metric in dict.fromkeys(_TIMES)},
    **_COUNTS,
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    validation: bool  # whether the run needs the validation split
    models: bool  # whether it reads the external models' prediction files
    commands: Callable[[str], list[list[str]]]  # work directory -> argv of each veracity command
    expectation: Callable[[gen.Corpus], checks.Expectation]


def _pipeline_commands(work: str) -> list[list[str]]:
    return [["pipeline", "--config", f"{work}/pipeline.ini"]]


def _ablate_commands(work: str) -> list[list[str]]:
    return [["ablate", "--config", f"{work}/pipeline.ini", "--tune-threshold"]]


def _staged_commands(work: str) -> list[list[str]]:
    data, out = f"{work}/data", f"{work}/out"
    models = [f"{data}/m{i + 1}.tsv" for i in range(len(gen.MODEL_ACCURACY))]
    return [
        ["stats", "--train", f"{data}/train.tsv", "--cache", f"{data}/cache.tsv",
         "--out-dir", out, "--summary-json", f"{out}/summary.json"],
        ["ensemble", "--predictions", *models, "--scheme", "hard", "--out", f"{out}/ensemble.tsv"],
        ["postprocess", "--data", f"{data}/test.tsv", "--predictions", *models,
         "--username-table", f"{out}/username_stats.tsv", "--domain-table", f"{out}/domain_stats.tsv",
         "--cache", f"{data}/cache.tsv", "--out", f"{out}/decisions.tsv"],
        ["evaluate", "--gold", f"{data}/test.tsv", "--pred", f"{out}/decisions.tsv",
         "--json-out", f"{out}/evaluate.json"],
    ]


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "pipeline-baseline": Workload(False, False, _pipeline_commands, checks.pipeline_expectation),
    "ablate-tuned": Workload(True, False, _ablate_commands, checks.ablate_expectation),
    "staged-external": Workload(False, True, _staged_commands, checks.staged_expectation),
}


class Spawner:
    """Client of bench/spawn.py, started before the harness grows."""

    def __init__(self, env: dict):
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH / "spawn.py")],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, commands: list[list[str]], log: Path) -> list[dict]:
        self.process.stdin.write(json.dumps({"commands": commands, "log": str(log)}) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("the spawn process ended unexpectedly")
        return json.loads(line)["results"]

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


@dataclass
class Round:
    traced: bool
    yardstick_s: list[float]  # the yardstick run just before each command run
    command_s: list[float]  # wall time of each command run
    setup_samples_s: list[float]  # set-up samples taken after the round's first yardstick run
    wall_s: float  # sum of command_s
    peak_rss_mb: float
    attempted: int
    failed: int
    digests: dict[str, str]
    layers: dict[str, float] | None = None
    problem: str | None = None


def layer_metrics(records: list[dict], wall_s: float) -> tuple[dict[str, float], str | None]:
    """Per-layer metrics of one traced round, and a problem if self times
    do not add up to the traced commands' durations."""
    metric_of = {f"{m}.{f}": metric for m, f, metric, _ in tracing.LAYERS}
    metric_of[".".join(tracing.ROOT[:2])] = tracing.ROOT[2]
    metric_of[tracing.WRAPPER[0]] = tracing.WRAPPER[1]
    values = {metric: 0.0 for metric in _TIMES}
    spans = [r for r in records if "start" in r]
    folded = [r for r in records if "calls" in r]
    for record in records:
        values[metric_of[record["name"]]] += record["self_s"]
    commands_s = sum(r["end"] - r["start"] for r in spans if r["parent"] is None)
    problem = None
    if abs(sum(values.values()) - commands_s) > 1e-3:
        problem = f"self times sum to {sum(values.values())} s, the traced commands took {commands_s} s"

    def span_count(*names: str) -> int:
        return sum(1 for r in spans if r["name"] in names)

    def calls(name: str) -> int:
        return sum(r["calls"] for r in folded if r["name"] == name)

    items = sum({r["path"]: r["items"] for r in spans if r["name"] == "corpus.load_dataset"}.values())
    values.update({
        "corpus.files_opened": span_count("corpus.load_dataset", "corpus.sniff_has_labels"),
        "preprocess.extract_calls_per_item": calls("preprocess.extract_attributes") / items if items else 0.0,
        "ensemble.rows_parsed": sum(r.get("rows", 0) for r in spans),
        "heuristic.decisions": calls("heuristic.decide"),
        "evaluation.evaluate_calls": span_count("evaluation.evaluate"),
        "fileio.bytes_written": sum(r.get("bytes", 0) for r in spans),
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - commands_s,
    })
    return values, problem


def git_sha() -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists():  # else git would answer for an enclosing repository
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _write_inputs(corpus: gen.Corpus, work: Path, data: str, out: str) -> None:
    gen.write_corpus(corpus, ROOT / data)
    lines = ["[data]", f"train = {data}/train.tsv", f"test = {data}/test.tsv", f"cache = {data}/cache.tsv"]
    if "validation" in corpus.splits:
        lines.append(f"validation = {data}/validation.tsv")
    lines += ["", "[output]", f"dir = {out}", ""]
    (work / "pipeline.ini").write_text("\n".join(lines), encoding="utf-8")


def _digests(out_dir: Path, artifacts: list[checks.Artifact]) -> dict[str, str]:
    digests = {}
    for artifact in artifacts:
        path = out_dir / artifact.path
        digests[artifact.path] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
    return digests


def run_workload(name: str, seed: int, seconds: float, trace: bool, n_items: int) -> dict:
    workload = WORKLOADS[name]
    work = ROOT / ".bench_work" / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "spans").mkdir(parents=True)
    work_rel = str(work.relative_to(ROOT))
    data, out = f"{work_rel}/data", f"{work_rel}/out"
    log = work / "commands.log"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    spawner = Spawner(env)
    try:
        phases = {"start": time.perf_counter()}
        reference.self_check()
        corpus = gen.generate(seed, n_items, validation=workload.validation, models=workload.models)
        _write_inputs(corpus, work, data, out)
        phases["generate"] = time.perf_counter()
        expectation = workload.expectation(corpus)
        expectation.facts["make_up"] = gen.describe(corpus)
        del corpus
        phases["reference"] = time.perf_counter()

        setup = spawner.run([[sys.executable, "-c", SETUP]] * (SETUP_SAMPLES + 1), log)
        if len(setup) != SETUP_SAMPLES + 1 or setup[-1]["rc"] != 0:
            raise RuntimeError(f"importing veracity.cli failed; see {log}")
        setup_samples_s = [r["end"] - r["start"] for r in setup[1:]]  # the first compiles
        phases["setup"] = time.perf_counter()

        commands = workload.commands(work_rel)
        rounds: list[Round] = []
        deadline = time.perf_counter() + seconds
        step_s = 0.0  # time of the last pass of the loop, to keep the next within the deadline
        while not rounds or time.perf_counter() + step_s <= deadline:
            step_started = time.perf_counter()
            for traced in (False, True) if trace else (False,):
                rounds.append(_round(spawner, commands, traced, len(rounds), work, out, expectation.artifacts))
                if rounds[-1].failed:
                    break
            if rounds[-1].failed:
                break
            step_s = time.perf_counter() - step_started
        last_yardstick_s, last_setup_s = _gauge(spawner, log, setup_samples=2)
    finally:
        spawner.close()

    phases["rounds"] = time.perf_counter()
    # Samples spread over the whole run, so that one slow phase of the host moves setup_s less.
    setup_samples_s += [sample for r in rounds for sample in r.setup_samples_s] + last_setup_s
    problems = expectation.problems + _check(expectation, ROOT / out, rounds)
    phases["check"] = time.perf_counter()
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced and r.layers]
    if trace:
        metrics = {
            metric: statistics.median(r.layers[metric] for r in traced) if traced else 0.0
            for metric in PER_LAYER
            if metric != "trace.overhead_s"
        }
        # rounds alternate untraced, traced: compare each traced round with the one before it
        metrics["trace.overhead_s"] = statistics.median(
            t.wall_s - u.wall_s for u, t in zip(rounds[::2], rounds[1::2])
        ) if traced else 0.0
        problems += [r.problem for r in traced if r.problem]
        units = PER_LAYER
    else:
        # each command run over the mean of the yardstick runs just before and after it
        yardsticks = [y for r in rounds for y in r.yardstick_s] + [last_yardstick_s]
        ratios = iter(2 * c / (before + after) for c, before, after in zip(
            (c for r in rounds for c in r.command_s), yardsticks, yardsticks[1:]
        ))
        metrics = {
            "wall_ratio": statistics.median(sum(next(ratios) for _ in r.command_s) for r in rounds),
            "setup_s": statistics.median(setup_samples_s),
            "peak_rss_mb": max(r.peak_rss_mb for r in untraced),
        }
        units = END_TO_END
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "items": n_items,
        "git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "rounds": len(rounds), "attempted": attempted, "failed": failed,
        "wall_s": statistics.median(r.wall_s for r in untraced),
        "round_wall_s": [round(r.wall_s, 4) for r in rounds],
        "command_s": [[round(c, 4) for c in r.command_s] for r in rounds],
        "yardstick_s": [[round(y, 4) for y in r.yardstick_s] for r in rounds] + [round(last_yardstick_s, 4)],
        "setup_samples_s": [round(sample, 4) for sample in setup_samples_s],
        "harness_s": {
            phase: round(phases[phase] - phases[previous], 3)
            for previous, phase in zip(list(phases), list(phases)[1:])
        },
        "inputs": expectation.facts, "artifact_sha256": rounds[0].digests, "problems": problems,
    }
    if not problems:  # keep the spans and the command log, drop the bulky inputs and outputs
        for bulky in ("data", "out"):
            shutil.rmtree(work / bulky, ignore_errors=True)
    return {
        "record": record,
        "result": {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        },
    }


def _round(spawner: Spawner, commands, traced: bool, index: int, work: Path, out: str, artifacts) -> Round:
    run_id = f"{work.name}-r{index}"
    if traced:
        span_files = [work / "spans" / f"r{index}-c{i}.jsonl" for i in range(len(commands))]
        argvs = [
            [sys.executable, str(BENCH / "tracing.py"), str(path), run_id, "--", *command]
            for path, command in zip(span_files, commands)
        ]
    else:
        argvs = [[sys.executable, "-c", LAUNCH, *command] for command in commands]
    log = work / "commands.log"
    yardstick_s, results, setup_samples_s = [], [], []
    for argv in argvs:  # a yardstick run before each command, as the host's speed drifts within a round
        y, samples = _gauge(spawner, log, setup_samples=0 if results else 2)
        yardstick_s.append(y)
        setup_samples_s += samples
        results += spawner.run([argv], log)
        if results[-1]["rc"] != 0:
            break
    failed = len(commands) - sum(1 for r in results if r["rc"] == 0)
    command_s = [r["end"] - r["start"] for r in results]
    wall = sum(command_s)
    result = Round(
        traced=traced,
        yardstick_s=yardstick_s,
        command_s=command_s,
        setup_samples_s=setup_samples_s,
        wall_s=wall,
        peak_rss_mb=max(r["maxrss_kb"] for r in results) / 1024,
        attempted=len(commands),
        failed=failed,
        digests=_digests(ROOT / out, artifacts),
    )
    if traced and not failed:
        records = []
        for path in span_files:
            with path.open(encoding="utf-8") as handle:
                records += [json.loads(line) for line in handle]
        result.layers, result.problem = layer_metrics(records, wall)
    return result


def _gauge(spawner: Spawner, log: Path, setup_samples: int) -> tuple[float, list[float]]:
    """Wall time of one run of bench/yardstick.py, then of `setup_samples` set-up samples."""
    results = spawner.run([YARDSTICK] + [[sys.executable, "-c", SETUP]] * setup_samples, log)
    if len(results) != setup_samples + 1 or results[-1]["rc"] != 0:
        raise RuntimeError(f"bench/yardstick.py or importing veracity.cli failed; see {log}")
    return results[0]["end"] - results[0]["start"], [r["end"] - r["start"] for r in results[1:]]


def _check(expectation: checks.Expectation, out_dir: Path, rounds: list[Round]) -> list[str]:
    problems = []
    if any(r.failed for r in rounds):
        return ["a command failed; see commands.log in the work directory"]
    for index, r in enumerate(rounds[1:], start=1):
        changed = [path for path, digest in r.digests.items() if digest != rounds[0].digests[path]]
        if changed:
            problems.append(f"round {index} wrote different bytes to {changed}")
    for artifact in expectation.artifacts:
        path = out_dir / artifact.path
        if not path.is_file():
            problems.append(f"{artifact.path} was not written")
            continue
        text = path.read_text(encoding="utf-8")
        try:
            artifact.check(text)
        except (checks.CheckFailed, KeyError, ValueError, IndexError, TypeError) as exc:
            problems.append(f"{artifact.path}: {exc}")
            continue
        try:
            artifact.check(artifact.mutate(text))
            problems.append(f"{artifact.path}: the check accepted a mutated copy")
        except checks.CheckFailed:
            pass
    return problems


def smoke() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = (
        [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
        and {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
        and {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    )
    if not ok:
        print("BENCHMARK.json does not list the workloads and metrics this harness reports", file=sys.stderr)
    for name in WORKLOADS:
        for trace in (False, True):
            run = run_workload(name, 1, 0, trace, SMOKE_ITEMS)
            ok = ok and run["result"]["correct"]
            print(json.dumps({"run": run["record"], **run["result"]}))
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured time; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload once, on a small corpus")
    args = parser.parse_args()
    if not (ROOT / "src" / "veracity" / "cli.py").is_file():
        print(f"no veracity sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), N_ITEMS)
    print(json.dumps({"run": run["record"]}))
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
