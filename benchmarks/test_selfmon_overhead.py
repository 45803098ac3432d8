"""Self-monitoring overhead: measured, documented, bounded.

Table I demands monitoring with documented impact; the same discipline
must apply to the monitoring of the monitoring.  This bench runs the
identical workload twice — once with the full self-observability plane
(tracer spans + selfmon cadence) and once with it disabled — and
asserts the step-loop regression stays under 10%.
"""

import time

from repro.cluster import JobGenerator, Machine, PackedPlacement, build_dragonfly
from repro.obs.trace import Tracer
from repro.pipeline import MonitoringPipeline, default_collectors
from repro.sites import SiteConfig

N_STEPS = 120
TRIALS = 5
MAX_REGRESSION = 0.10


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


def build_pipeline(observed: bool):
    machine = build_machine()
    if observed:
        return MonitoringPipeline(
            machine, collectors=default_collectors(machine)
        )
    return MonitoringPipeline(
        machine,
        SiteConfig(selfmon_interval_s=None),
        collectors=default_collectors(machine),
        tracer=Tracer(enabled=False),
    )


def time_step_loop(observed: bool) -> float:
    """Best-of-TRIALS wall time of an N_STEPS step loop."""
    best = float("inf")
    for _ in range(TRIALS):
        pipeline = build_pipeline(observed)
        t0 = time.perf_counter()
        for _ in range(N_STEPS):
            pipeline.step(10.0)
        best = min(best, time.perf_counter() - t0)
    return best


class TestSelfMonOverhead:
    def test_tracing_overhead_is_bounded(self):
        baseline = time_step_loop(observed=False)
        observed = time_step_loop(observed=True)
        regression = observed / baseline - 1.0
        print(f"\nstep loop ({N_STEPS} steps): disabled {baseline:.4f}s, "
              f"self-monitored {observed:.4f}s "
              f"({100 * regression:+.2f}% overhead)")
        assert regression < MAX_REGRESSION, (
            f"self-monitoring overhead {100 * regression:.1f}% exceeds "
            f"the {100 * MAX_REGRESSION:.0f}% budget"
        )

    def test_observed_run_actually_observed_itself(self):
        pipeline = build_pipeline(observed=True)
        for _ in range(N_STEPS):
            pipeline.step(10.0)
        agg = pipeline.tracer.aggregate()
        assert agg["tick"]["count"] == N_STEPS
        metrics = {k.metric for k in pipeline.tsdb.keys()}
        assert "selfmon.pipeline.tick_ms" in metrics
        # the documented cost of observing: spans per tick stay tiny
        assert agg["tick"]["mean_ms"] < 1000.0

    def test_disabled_run_left_no_trace(self):
        pipeline = build_pipeline(observed=False)
        for _ in range(20):
            pipeline.step(10.0)
        assert pipeline.tracer.aggregate() == {}
        metrics = {k.metric for k in pipeline.tsdb.keys()}
        assert not any(m.startswith("selfmon.") for m in metrics)
