"""Throughput of the columnar analysis plane vs its scalar references.

The streaming detectors consume whole sweeps through numpy kernels over
struct-of-arrays state; the original per-sample implementations live
in ``tests/oracles/analysis.py`` (``Scalar*`` classes, ``*_slow``
functions).  This module
measures both at the machine scale the paper's Table 1 implies —
27,648-component sweeps (Titan: 18,688 nodes + GPUs in the monitored
set) — with pytest-benchmark fixtures for trend tracking plus a hard
>= 10x combined speedup floor for the vectorized plane.
"""

import time

import numpy as np
import pytest

from repro.analysis.anomaly import sweep_outliers
from repro.analysis.streaming import StreamingRateWatch, StreamingStats
from repro.core.metric import SeriesBatch
from tests.oracles.analysis import (
    ScalarStreamingRateWatch,
    ScalarStreamingStats,
    sweep_outliers_slow,
)

N = 27_648                      # Titan-scale component sweep
COMPS = np.array([f"c{i:05d}" for i in range(N)], dtype=object)
RNG = np.random.default_rng(7)

# power sweep with a handful of genuine z>=6 outliers planted
POWER = RNG.normal(250.0, 15.0, N)
POWER[RNG.choice(N, 5, replace=False)] += 400.0
POWER_SWEEP = SeriesBatch.sweep("node.power_w", 0.0, COMPS, POWER)

# error-counter baseline: creep of 0.05 counts / 60 s sweep stays far
# under the 0.01/s watch rate, so steady state emits no detections
# (detection *construction* cost is measured by the planted outliers
# above, not smeared across every ratewatch sample)
CTR_BASE = np.floor(RNG.uniform(0.0, 4.0, N))


def best_of(fn, repeats=5):
    """Minimum wall time over several runs (noise-robust point estimate)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def warm_stats(cls):
    s = cls()
    s.observe(POWER_SWEEP)         # rows registered; steady state after
    return s


def ratewatch_runner(cls):
    """A () -> None that feeds the watch one *fresh* monotonic sweep per
    call — rate watches are time-stateful, so replaying one sweep would
    measure the dt<=0 path instead of steady-state ingest."""
    watch = cls("gpu.ecc_dbe", 0.01)
    clock = {"t": 0.0, "k": 0}

    def observe_next():
        clock["t"] += 60.0
        clock["k"] += 1
        watch.observe(SeriesBatch("gpu.ecc_dbe", COMPS,
                                  np.full(N, clock["t"]),
                                  CTR_BASE + 0.05 * clock["k"]))
        watch.drain()

    observe_next()                 # seed: first sweep has no prev sample
    return observe_next


class TestAnalysisThroughput:
    def test_bench_streaming_stats(self, benchmark):
        stats = warm_stats(StreamingStats)
        benchmark(stats.observe, POWER_SWEEP)
        benchmark.extra_info["samples_per_s"] = N / benchmark.stats.stats.mean

    def test_bench_sweep_outliers(self, benchmark):
        out = benchmark(sweep_outliers, POWER_SWEEP, 6.0)
        assert len(out) == 5       # exactly the planted outliers
        benchmark.extra_info["samples_per_s"] = N / benchmark.stats.stats.mean

    def test_bench_ratewatch(self, benchmark):
        benchmark(ratewatch_runner(StreamingRateWatch))
        benchmark.extra_info["samples_per_s"] = N / benchmark.stats.stats.mean

    def test_columnar_beats_scalar_by_10x(self):
        pairs = [
            ("stats",
             best_of(lambda: warm_stats(ScalarStreamingStats)
                     .observe(POWER_SWEEP)),
             best_of(lambda: warm_stats(StreamingStats)
                     .observe(POWER_SWEEP))),
            ("sweep_outliers",
             best_of(lambda: sweep_outliers_slow(POWER_SWEEP, 6.0)),
             best_of(lambda: sweep_outliers(POWER_SWEEP, 6.0))),
            ("ratewatch",
             best_of(ratewatch_runner(ScalarStreamingRateWatch)),
             best_of(ratewatch_runner(StreamingRateWatch))),
        ]
        print()
        for name, slow, fast in pairs:
            print(f"{name:<16} {N:,}-comp sweep: scalar "
                  f"{N / slow / 1e6:6.2f} Msamples/s -> columnar "
                  f"{N / fast / 1e6:6.2f} Msamples/s ({slow / fast:.1f}x)")
        slow_total = sum(s for _, s, _ in pairs)
        fast_total = sum(f for _, _, f in pairs)
        speedup = slow_total / fast_total
        print(f"combined detector speedup: {speedup:.1f}x")
        assert speedup >= 10.0

    def test_columnar_and_scalar_agree_at_scale(self):
        """The floor is meaningless if the fast path computes something
        else; spot-check full-scale agreement here (the property suite
        covers the adversarial shapes)."""
        fast, slow = StreamingStats(), ScalarStreamingStats()
        fast.observe(POWER_SWEEP)
        slow.observe(POWER_SWEEP)
        got = fast.get("node.power_w", "c00000")
        ref = slow.get("node.power_w", "c00000")
        assert got.n == ref.n and got.mean == ref.mean
        assert sweep_outliers(POWER_SWEEP, 6.0) == \
            sweep_outliers_slow(POWER_SWEEP, 6.0)


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
