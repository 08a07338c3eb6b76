"""tests/_pairs.py sums up alternating benchmark pairs per metric."""

from __future__ import annotations

import _pairs


def _result(wall_ratio: float, peak_rss_mb: float) -> dict:
    """A bench result as bench/run.py prints it, with two of its metrics."""
    return {
        "correct": True,
        "metrics": {
            "wall_ratio": {"value": wall_ratio, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
    }


def test_summarize_gives_medians_quartiles_pairs_and_the_lower_count():
    pairs = [
        (_result(3.0, 30.0), _result(3.5, 29.0)),
        (_result(3.2, 31.0), _result(3.1, 29.5)),
        (_result(3.4, 30.5), _result(3.6, 30.5)),
        (_result(3.6, 32.0), _result(3.7, 31.0)),
        (_result(3.8, 30.2), _result(3.9, 30.0)),
    ]
    assert _pairs.summarize(pairs) == [
        "wall_ratio (ratio): parent 3.400 (3.200-3.600) -> change 3.600 (3.500-3.700), change lower in 1/5",
        "  pairs: 3.000/3.500 3.200/3.100 3.400/3.600 3.600/3.700 3.800/3.900",
        "peak_rss_mb (MB): parent 30.500 (30.200-31.000) -> change 30.000 (29.500-30.500), change lower in 4/5",
        "  pairs: 30.000/29.000 31.000/29.500 30.500/30.500 32.000/31.000 30.200/30.000",
    ]


def test_summarize_one_pair_has_its_value_as_quartiles():
    assert _pairs.summarize([(_result(2.5, 28.0), _result(2.5, 27.5))])[0] == (
        "wall_ratio (ratio): parent 2.500 (2.500-2.500) -> change 2.500 (2.500-2.500), change lower in 0/1"
    )


def test_a_failed_or_incorrect_run_stops_the_pairs(tmp_path, monkeypatch, capsys):
    # run_bench answers None for such a run; the second pair runs the change first
    runs = iter([_result(3.0, 30.0), _result(3.1, 30.1), None, _result(3.2, 30.2)])
    monkeypatch.setattr(_pairs, "run_bench", lambda checkout, workload, seed: next(runs))
    argv = [str(tmp_path / "p"), str(tmp_path / "c"), "--workload", "ablate-tuned", "--pairs", "3"]
    assert _pairs.main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "ablate-tuned, seed 7, 1 alternating pairs, parent -> change:"
    assert out[-1] == "pair 2: the change run failed or was not correct"
