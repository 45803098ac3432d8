"""Freshness-trace propagation overhead: measured, documented, bounded.

The end-to-end freshness plane stamps every tracked batch at each
transport hop and folds the hop vector into histograms at ingest.  That
work rides the hot step loop, so its cost must be documented the same
way the self-monitoring plane's is (Table I: monitoring with documented
impact).  This bench runs the identical workload twice — once with
trace propagation + the freshness tracker, once with ``freshness=False``
— and asserts the step-loop regression stays under 5%.  Both arms run
with the tracer disabled and selfmon off, so the *only* difference
between them is the freshness plane.

A pytest-benchmark fixture records the traced step loop for trend
tracking (baseline ``BENCH_freshness.json``, diffed by
``scripts/bench_compare.py``).
"""

import gc
import time

from repro.cluster import JobGenerator, Machine, PackedPlacement, build_dragonfly
from repro.obs.trace import Tracer
from repro.pipeline import MonitoringPipeline, default_collectors
from repro.sites import SiteConfig

N_STEPS = 240
TRIALS = 15
ATTEMPTS = 3
MAX_REGRESSION = 0.05


def build_machine(seed=3):
    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    return Machine(
        topo,
        placement=PackedPlacement(),
        job_generator=JobGenerator(mean_interarrival_s=240,
                                   max_nodes=16, seed=seed),
        gpu_nodes="all",
        seed=seed,
    )


def build_pipeline(traced: bool):
    """Identical stacks except for the freshness plane: tracer spans and
    selfmon are off in both arms so the diff isolates trace propagation."""
    machine = build_machine()
    return MonitoringPipeline(
        machine,
        SiteConfig(selfmon_interval_s=None, freshness=traced),
        collectors=default_collectors(machine),
        tracer=Tracer(enabled=False),
    )


def one_step_loop(traced: bool) -> float:
    """CPU time of one N_STEPS step loop on a fresh pipeline.

    ``process_time`` (not wall time) so scheduler preemptions on a busy
    host don't land in one arm's window, and GC is held quiescent so a
    collection triggered by the allocation-heavier arm doesn't bill its
    pause to that arm.
    """
    pipeline = build_pipeline(traced)
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        for _ in range(N_STEPS):
            pipeline.step(10.0)
        return time.process_time() - t0
    finally:
        gc.enable()


def measure_regression() -> tuple[float, float, float]:
    """Median of paired per-trial ratios, trials interleaved.

    Arm-serialized timing confounds the diff with whatever the host was
    doing during one arm's window, so each trial times both arms
    back-to-back and contributes one traced/untraced ratio; the median
    ratio shrugs off the occasional trial where the scheduler parked us.
    Returns (regression, best_baseline, best_traced).
    """
    one_step_loop(traced=False)   # warmup pair, discarded
    one_step_loop(traced=True)
    ratios = []
    baseline = traced = float("inf")
    for i in range(TRIALS):
        # alternate which arm runs first so within-pair drift cancels
        if i % 2 == 0:
            b = one_step_loop(traced=False)
            t = one_step_loop(traced=True)
        else:
            t = one_step_loop(traced=True)
            b = one_step_loop(traced=False)
        ratios.append(t / b)
        baseline = min(baseline, b)
        traced = min(traced, t)
    ratios.sort()
    return ratios[len(ratios) // 2] - 1.0, baseline, traced


class TestFreshnessOverhead:
    def test_trace_propagation_overhead_is_bounded(self):
        # timing noise on a shared host is one-sided (interruptions only
        # inflate), so one sub-budget measurement proves the code fits
        # the budget; a real regression stays elevated across attempts
        best = float("inf")
        for attempt in range(ATTEMPTS):
            regression, baseline, traced = measure_regression()
            best = min(best, regression)
            print(f"\nstep loop ({N_STEPS} steps): untraced "
                  f"{baseline:.4f}s, freshness-traced {traced:.4f}s "
                  f"({100 * regression:+.2f}% median paired overhead, "
                  f"attempt {attempt + 1})")
            if best < MAX_REGRESSION:
                break
        assert best < MAX_REGRESSION, (
            f"freshness-trace overhead {100 * best:.1f}% exceeds the "
            f"{100 * MAX_REGRESSION:.0f}% budget in {ATTEMPTS} attempts"
        )

    def test_traced_run_actually_traced(self):
        pipeline = build_pipeline(traced=True)
        for _ in range(N_STEPS):
            pipeline.step(10.0)
        fr = pipeline.freshness
        assert fr is not None and fr.batches > 0
        # hop attribution telescopes to end-to-end with no epsilon
        assert fr.waterfall_exact()
        assert fr.hop_total() == fr.e2e_total()

    def test_untraced_run_left_no_trace(self):
        pipeline = build_pipeline(traced=False)
        for _ in range(20):
            pipeline.step(10.0)
        assert pipeline.freshness is None
        assert not pipeline.scheduler.trace_batches

    def test_bench_traced_step_loop(self, benchmark):
        pipeline = build_pipeline(traced=True)

        def run_steps():
            for _ in range(10):
                pipeline.step(10.0)

        benchmark(run_steps)
        benchmark.extra_info["steps_per_s"] = (
            10 / benchmark.stats.stats.mean
        )
