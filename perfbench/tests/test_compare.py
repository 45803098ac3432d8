"""The compare mode's verdicts and claim rule on synthetic runs."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from compare import claim_passes, quartiles, report, verdict  # noqa: E402


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


def test_regression_beyond_the_bound():
    parent = [100.0, 101.0, 99.0, 100.5, 100.2]
    assert verdict(parent, [112.0, 113.0, 111.0, 112.5, 112.2],
                   "lower", 0.1) == "regression"
    assert verdict(parent, [105.0, 104.0, 106.0, 105.5, 104.8],
                   "lower", 0.1) == "ok"
    assert verdict(parent, [88.0, 87.0, 89.0, 88.5, 88.2],
                   "higher", 0.1) == "regression"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = [50.0, 100.0, 150.0, 80.0, 120.0]
    assert verdict(noisy, [60.0, 110.0, 140.0, 90.0, 115.0],
                   "lower", 0.1) == "unresolved"
    assert verdict(noisy, [10.0, 12.0, 11.0, 9.0, 10.5],
                   "lower", 0.1) == "ok"


def test_claim_needs_nine_of_ten_wins_and_a_gap_beyond_the_spread():
    parent = [100.0 + i for i in range(10)]
    better = [(p, p - 20.0) for p in parent]
    assert claim_passes(better, "lower") == (True, 10)
    nine = better[:9] + [(parent[9], parent[9] + 1.0)]
    assert claim_passes(nine, "lower")[0]
    eight = better[:8] + [(p, p + 1.0) for p in parent[8:]]
    assert not claim_passes(eight, "lower")[0]
    small = [(p, p - 0.5) for p in parent]          # wins, but within spread
    assert not claim_passes(small, "lower")[0]


def test_report_flags_a_regression_and_a_failed_claim():
    spec = {"end_to_end": [{"name": "sim_speedup", "unit": "x",
                            "better": "higher", "bound": 0.1}]}
    runs = []
    for i in range(10):
        runs.append({"workload": "w", "pair": i, "side": "parent",
                     "metrics": {"sim_speedup": 100.0 + i % 3}})
        runs.append({"workload": "w", "pair": i, "side": "change",
                     "metrics": {"sim_speedup": 80.0 + i % 3}})
    text, ok = report(runs, spec, ["sim_speedup@w"])
    assert not ok
    assert "regression" in text and "NOT MET" in text
