"""Supervision overhead: the lifecycle plane must be nearly free.

The supervised lifecycle (circuit breakers on every collector and
stage, per-tick health observation of transport and store, ledger
stamping on every tracked publish) runs inside the hot tick loop, so
its cost is a standing tax on the whole monitoring plane.  This bench
runs the identical workload twice — supervision + ledger on vs off —
and asserts the step-loop regression stays under 5%.
"""

import time

from repro.cluster import JobGenerator, Machine, PackedPlacement, build_dragonfly
from repro.obs.trace import Tracer
from repro.pipeline import MonitoringPipeline, default_collectors
from repro.sites import SiteConfig

N_STEPS = 120
TRIALS = 5
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


def build_pipeline(supervised: bool):
    # tracer + selfmon off in both arms, so the measurement isolates
    # supervision itself rather than re-measuring the observability tax
    return MonitoringPipeline(
        build_machine(),
        SiteConfig(selfmon_interval_s=None, supervision=supervised),
        collectors=default_collectors(build_machine()),
        tracer=Tracer(enabled=False),
    )


def time_step_loop(supervised: bool) -> float:
    """Best-of-TRIALS wall time of an N_STEPS step loop."""
    best = float("inf")
    for _ in range(TRIALS):
        pipeline = build_pipeline(supervised)
        t0 = time.perf_counter()
        for _ in range(N_STEPS):
            pipeline.step(10.0)
        best = min(best, time.perf_counter() - t0)
    return best


class TestSupervisionOverhead:
    def test_supervision_overhead_is_bounded(self):
        baseline = time_step_loop(supervised=False)
        supervised = time_step_loop(supervised=True)
        regression = supervised / baseline - 1.0
        print(f"\nstep loop ({N_STEPS} steps): unsupervised "
              f"{baseline:.4f}s, supervised {supervised:.4f}s "
              f"({100 * regression:+.2f}% overhead)")
        assert regression < MAX_REGRESSION, (
            f"supervision overhead {100 * regression:.1f}% exceeds "
            f"the {100 * MAX_REGRESSION:.0f}% budget"
        )

    def test_supervised_run_actually_supervised(self):
        pipeline = build_pipeline(supervised=True)
        for _ in range(N_STEPS):
            pipeline.step(10.0)
        # every stage has a breaker record, and the fault-free run left
        # every one of them OK with zero transitions
        report = pipeline.health_report()
        assert any(name.startswith("stage:") for name in report)
        assert all(rec["state"] == "ok" for rec in report.values())
        assert pipeline.supervisor.transitions == []
        # the ledger accounted every tracked point with zero loss
        balance = pipeline.delivery_report()
        assert balance.balanced, balance.render()
        assert balance.lost == 0
        assert balance.published == balance.stored + balance.in_flight

    def test_unsupervised_run_pays_nothing(self):
        pipeline = build_pipeline(supervised=False)
        for _ in range(20):
            pipeline.step(10.0)
        assert pipeline.supervisor is None
        assert pipeline.ledger is None
        assert pipeline.delivery_report() is None
        assert pipeline.health_report() == {}
