"""Each command's peak resident set, as wait4 reports it, on a generated
corpus. Run from anywhere, standard library only:

    python3 tests/_peaks.py [POSTS [SEED]]

POSTS defaults to 8,000 (the benchmark's smoke size) and SEED to 7. The
corpus (train, validation and test splits, URL cache, eight model files)
is written by bench/gen.py, in a child interpreter, to a temporary
directory that is removed at the end. Each command then starts as a fresh
interpreter that imports the package from src/: the staged chain
(stats, ensemble, postprocess, evaluate) over the model files, then
pipeline and ablate --tune-threshold with the built-in model. This
process holds no corpus, since a command's wait4 peak includes the
resident set of the process that starts it. One line per command; the
exit code is 1 if any command failed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = "import sys; from veracity.cli import main; sys.exit(main())"
GENERATE = """import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import gen
gen.write_corpus(gen.generate(int(sys.argv[3]), int(sys.argv[2]), True, True), Path(sys.argv[4]))
print(len(gen.MODEL_ACCURACY))
"""


def commands(data: Path, out: Path, config: Path, n_models: int) -> list[tuple[str, list[str]]]:
    """(name, argv after the launcher) of each measured command, in the order they run."""
    models = [str(data / f"m{i + 1}.tsv") for i in range(n_models)]
    tables = ["--username-table", str(out / "username_stats.tsv"),
              "--domain-table", str(out / "domain_stats.tsv")]
    return [
        ("stats", ["stats", "--train", str(data / "train.tsv"), "--cache", str(data / "cache.tsv"),
                   "--out-dir", str(out), "--summary-json", str(out / "summary.json")]),
        ("ensemble", ["ensemble", "--predictions", *models, "--scheme", "hard",
                      "--out", str(out / "ensemble.tsv")]),
        ("postprocess", ["postprocess", "--data", str(data / "test.tsv"), "--predictions", *models,
                         *tables, "--cache", str(data / "cache.tsv"), "--out", str(out / "decisions.tsv")]),
        ("evaluate", ["evaluate", "--gold", str(data / "test.tsv"), "--pred", str(out / "decisions.tsv"),
                      "--json-out", str(out / "evaluate.json")]),
        ("pipeline", ["pipeline", "--config", str(config)]),
        ("ablate --tune-threshold", ["ablate", "--config", str(config), "--tune-threshold"]),
    ]


def peak(argv: list[str], env: dict, cwd: Path) -> tuple[int, float]:
    """(exit code, peak resident set in MB) of one command in a fresh interpreter."""
    child = subprocess.Popen([sys.executable, "-c", LAUNCH, *argv], cwd=cwd, env=env,
                             stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss / 1024


def main(argv: list[str]) -> int:
    posts, seed = [int(arg) for arg in argv] + [8000, 7][len(argv):]
    with tempfile.TemporaryDirectory(prefix="veracity-peaks-") as tmp:
        work = Path(tmp)
        data, out = work / "data", work / "out"
        made = subprocess.run(
            [sys.executable, "-c", GENERATE, str(ROOT / "bench"), str(posts), str(seed), str(data)],
            check=True, capture_output=True, text=True,
        )
        config = work / "pipeline.ini"
        config.write_text(
            f"[data]\ntrain = {data}/train.tsv\ntest = {data}/test.tsv\n"
            f"validation = {data}/validation.tsv\ncache = {data}/cache.tsv\n[output]\ndir = {out}\n",
            encoding="utf-8",
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        failed = False
        print(f"peak RSS per command (wait4; {posts:,} posts, seed {seed}, Python {sys.version.split()[0]}):")
        for name, command in commands(data, out, config, int(made.stdout)):
            rc, peak_mb = peak(command, env, work)
            failed = failed or rc != 0
            print(f"- {name}: {peak_mb:.2f} MB" + (f" (exit {rc})" if rc else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
