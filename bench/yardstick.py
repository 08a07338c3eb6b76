"""Fixed pure-Python work that the benchmark times between rounds.

    python3 bench/yardstick.py

The host this benchmark was written on runs the same interpreter work at
speeds that differ by up to a factor of two, in phases of seconds to
minutes. Dividing a round's wall time by the wall time of this fixed
work, run just before and just after the round, takes the host's speed
out of `wall_ratio`. The work is the same kind the program does (build
short texts, tokenize them with a regular expression, count tokens in
dicts, score texts with logarithms) and depends on nothing in the
repository, so a change to the program does not change it. It must stay
fixed: editing it changes every `wall_ratio`.
"""

from __future__ import annotations

import math
import random
import re
from itertools import accumulate

VOCABULARY = 20_000
LINES = 10_000
WORDS_PER_LINE = 25
#: Lines that score higher under the first table; any other count means
#: the work is no longer the same.
EXPECTED = 5019


def main() -> int:
    rng = random.Random(0)
    letters = "abcdefghijklmnopqrstuvwxyz"
    vocab = ["".join(rng.choice(letters) for _ in range(rng.randint(3, 10))) for _ in range(VOCABULARY)]
    cumulative = list(accumulate(1.0 / (rank + 1) for rank in range(VOCABULARY)))
    lines = [
        " ".join(rng.choices(vocab, cum_weights=cumulative, k=WORDS_PER_LINE)) + (" #Tag @user" if i % 3 else "")
        for i in range(LINES)
    ]
    counts: list[dict[str, int]] = [{}, {}]
    for i, line in enumerate(lines):
        table = counts[i % 2]
        for token in re.findall(r"[a-z]+", line.lower()):
            table[token] = table.get(token, 0) + 1
    totals = [sum(table.values()) + VOCABULARY for table in counts]
    first = 0
    for line in lines:
        scores = [0.0, 0.0]
        for token in line.split():
            for k in (0, 1):
                scores[k] += math.log((counts[k].get(token, 0) + 1) / totals[k])
        first += scores[0] > scores[1]
    return 0 if first == EXPECTED else 1


if __name__ == "__main__":
    raise SystemExit(main())
