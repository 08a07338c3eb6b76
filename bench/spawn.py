"""Small process that starts the measured commands for the benchmark.

    python3 bench/spawn.py

It reads one JSON request per line on stdin, {"commands": [argv, ...],
"log": path}, runs the commands one after another in its working
directory, stopping at the first that fails, and answers with one JSON
line: {"results": [{"rc", "maxrss_kb", "start", "end"}, ...]}.

Commands are started from here rather than from the harness because a
child's peak resident set, as wait4 reports it, includes the resident
set of the process that started it: this process stays at a few MB,
while the harness holds a whole corpus and its reference results.
Times are time.perf_counter (CLOCK_MONOTONIC) readings around each
command, from just before it is started to just after it is reaped.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def run(commands: list[list[str]], log_path: str) -> list[dict]:
    results = []
    with open(log_path, "a", encoding="utf-8") as log:
        for argv in commands:
            start = time.perf_counter()
            child = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            _, status, usage = os.wait4(child.pid, 0)
            end = time.perf_counter()
            child.returncode = os.waitstatus_to_exitcode(status)
            results.append({"rc": child.returncode, "maxrss_kb": usage.ru_maxrss, "start": start, "end": end})
            if child.returncode != 0:
                break
    return results


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = {"results": run(request["commands"], request["log"])}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
