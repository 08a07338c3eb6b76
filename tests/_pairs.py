"""Alternating pairs of benchmark runs, a parent checkout against a
changed one, summed up per end-to-end metric. Standard library only:

    python3 tests/_pairs.py PARENT_DIR CHANGE_DIR --workload W [--seed 7] [--pairs 5]

PARENT_DIR and CHANGE_DIR are source checkouts. Each pair runs
`python3 bench/run.py --workload W --seed S --trace 0` once from each
checkout, one after the other; the side that runs first alternates, the
parent first in the first pair. Each run leaves its work directory
(.bench_work/) in its checkout, and nothing under bench/ is edited.

Per metric, the summary gives both sides' medians, the parent's
quartiles, every pair (parent/change), and the number of pairs in which
the change read lower. The exit code is 1 if a run failed or its result
was not correct; the pairs before that one are still summed up.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int) -> dict | None:
    """The result of one untraced bench run from checkout; None if the run
    failed or its result was not correct."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return None
    return result if done.returncode == 0 and result.get("correct") is True else None


def _spread(values: list[float]) -> str:
    """The median and quartiles of values, as "median (first-third)"."""
    quartiles = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return f"{statistics.median(values):.3f} ({quartiles[0]:.3f}-{quartiles[2]:.3f})"


def summarize(pairs: list[tuple[dict, dict]]) -> list[str]:
    """Two lines per metric of the pairs' (parent, change) bench results,
    in the parent's order: the spreads and the count of pairs in which the
    change read lower, then every pair as parent/change."""
    lines = []
    for name, first in pairs[0][0]["metrics"].items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        lower = sum(c < p for p, c in zip(parent, change))
        lines.append(f"{name} ({first['unit']}): parent {_spread(parent)} -> change {_spread(change)},"
                     f" change lower in {lower}/{len(pairs)}")
        lines.append("  pairs: " + " ".join(f"{p:.3f}/{c:.3f}" for p, c in zip(parent, change)))
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    pairs: list[tuple[dict, dict]] = []
    failed = []
    for index in range(args.pairs):
        order = list(checkouts) if index % 2 == 0 else list(checkouts)[::-1]
        results = {side: run_bench(checkouts[side], args.workload, args.seed) for side in order}
        failed = [side for side in order if results[side] is None]
        if failed:
            break
        pairs.append((results["parent"], results["change"]))
        print(f"pair {index + 1}/{args.pairs} done, {order[0]} first", file=sys.stderr, flush=True)
    print(f"{args.workload}, seed {args.seed}, {len(pairs)} alternating pairs, parent -> change:")
    if pairs:
        print("\n".join(summarize(pairs)))
    for side in failed:
        print(f"pair {len(pairs) + 1}: the {side} run failed or was not correct")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
