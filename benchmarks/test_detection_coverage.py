"""Detection-coverage matrix: every fault class vs the detection paths.

The paper's premise is that sites monitor "according to perceived or
previously-experienced sources of sub-optimal operation" — coverage is
ad hoc.  This bench makes coverage explicit for this stack: for every
fault class the substrate can inject, run the default pipeline and
record which detection path catches it — attributed strictly, i.e. an
alert only counts if it names the faulted component (or, for benchmark
alerts, the benchmark that exercises the faulted subsystem).  The
printed matrix is the artifact a site review would ask for; the
assertions guarantee no fault class is silently uncovered.
"""

import pytest

from repro.analysis.streaming import StreamingOutlierDetector
from repro.cluster import (
    BerDegradation,
    ConfigDrift,
    CorrosionExcursion,
    HungNode,
    LinkFailure,
    LoadImbalance,
    Machine,
    MdsDegradation,
    MemoryLeak,
    MountLoss,
    PackedPlacement,
    QueueBlockage,
    ServiceDeath,
    SlowOst,
    build_dragonfly,
)
from repro.cluster.workload import JobGenerator
from repro.sites import SiteConfig, build_site

# which benchmark exercises the subsystem each fault class degrades
BENCH_FOR = {
    "slow_ost": {"ior_read"},
    "mds_degradation": {"mdtest"},
    "memory_leak": {"stream"},
    "link_failure": {"allreduce"},
}


def run_with_fault(fault_factory, *, gpu=False, seed=7, hours=1.0):
    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    machine = Machine(
        topo,
        placement=PackedPlacement(),
        job_generator=JobGenerator(mean_interarrival_s=240,
                                   max_nodes=24, seed=seed),
        gpu_nodes="all" if gpu else None,
        seed=seed,
    )
    fault = fault_factory(machine)
    machine.faults.add(fault)
    pipeline = build_site(SiteConfig(seed=seed, with_health_gate=False),
                          machine)
    # streaming outliers on metrics where an outlier is unambiguous
    # (raw power sweeps are bimodal busy/idle on a working machine; the
    # KAUST power detector cross-references allocations instead)
    pipeline.add_streaming(
        StreamingOutlierDetector(
            ("probe.io_latency_s", "node.mem_free_gb"),
            z_threshold=6.0,
        )
    )
    pipeline.run(hours=hours, dt=10.0)
    return pipeline, fault


def _related(component: str, target: str) -> bool:
    if not component or not target:
        return False
    return component in target or target in component


def caught_by(pipeline, fault, fault_name: str) -> set[str]:
    """Detection paths that named the faulted component specifically."""
    paths = set()
    relevant_benches = BENCH_FOR.get(fault_name, set())
    for a in pipeline.alerts.alerts:
        if a.rule.startswith("stream."):
            if _related(a.component, fault.target):
                paths.add("streaming")
        elif a.rule == "bench_degraded":
            if a.component in relevant_benches:
                paths.add("benchmark")
        elif _related(a.component, fault.target):
            paths.add("sec-log")
    for ev in pipeline.logs.search(["health", "check", "failed"]):
        if _related(ev.component, fault.target):
            paths.add("health")
    return paths


FAULT_MATRIX = [
    ("hung_node",
     lambda m: HungNode(start=600.0, node=m.topo.nodes[3]),
     False, {"sec-log", "health"}),
    ("load_imbalance",
     lambda m: LoadImbalance(start=900.0, frac_busy=0.3, wait_util=0.05),
     False, {"analysis"}),
    ("link_failure",
     lambda m: LinkFailure(start=600.0, link_index=1),
     False, {"sec-log"}),    # recovery watch times out -> alert
    ("ber_degradation",
     lambda m: BerDegradation(start=0.0, link_index=5,
                              decades_per_day=40.0),
     False, {"analysis"}),
    ("slow_ost",
     lambda m: SlowOst(start=600.0, ost=0, bw_factor=0.08),
     False, {"benchmark", "streaming"}),
    ("mds_degradation",
     lambda m: MdsDegradation(start=600.0, rate_factor=0.08),
     False, {"benchmark"}),
    ("service_death",
     lambda m: ServiceDeath(start=600.0, node=m.topo.nodes[5],
                            service="slurmd"),
     False, {"sec-log", "health"}),
    ("mount_loss",
     lambda m: MountLoss(start=600.0, node=m.topo.nodes[6]),
     False, {"sec-log", "health"}),
    ("memory_leak",
     lambda m: MemoryLeak(start=300.0, node=m.topo.nodes[7],
                          gb_per_s=0.2),
     False, {"health", "streaming"}),
    ("config_drift",
     lambda m: ConfigDrift(start=300.0, node=m.topo.nodes[8]),
     False, {"health"}),
    ("queue_blockage",
     lambda m: QueueBlockage(start=600.0, duration=1800.0),
     False, {"sec-log"}),
    ("corrosion_excursion",
     lambda m: CorrosionExcursion(start=300.0, rate=1600.0),
     True, {"sec-log"}),     # the ASHRAE rule alerts on the env event
]


@pytest.mark.parametrize(
    "name,factory,gpu,expected", FAULT_MATRIX,
    ids=[row[0] for row in FAULT_MATRIX],
)
def test_fault_detected(name, factory, gpu, expected):
    pipeline, fault = run_with_fault(factory, gpu=gpu)
    paths = caught_by(pipeline, fault, name)

    # two fault classes are covered by store-side analyses rather than
    # live alerts; run those analyses as the operator would
    if name == "load_imbalance":
        from repro.analysis.powersig import detect_load_imbalance
        from repro.core.metric import SeriesBatch
        cabs = pipeline.tsdb.components("cabinet.power_w")
        detected = False
        sys_series = pipeline.tsdb.query("system.power_w", "system")
        for t in sys_series.times:
            vals = []
            for c in cabs:
                b = pipeline.tsdb.query("cabinet.power_w", c, t - 1,
                                        t + 1)
                if len(b):
                    vals.append((c, float(b.values[0])))
            if len(vals) < 2:
                continue
            sweep = SeriesBatch.sweep("cabinet.power_w", t,
                                      [c for c, _ in vals],
                                      [v for _, v in vals])
            if detect_load_imbalance(sweep, spread_threshold=1.5).detected:
                detected = True
                break
        assert detected, "powersig analysis must catch the imbalance"
        paths.add("analysis")
    if name == "ber_degradation":
        from repro.analysis.trend import fit_trend
        link = pipeline.machine.topo.links[5].name
        series = pipeline.tsdb.query("link.ber", link)
        fit = fit_trend(series, log_space=True)
        assert fit.slope > 0, "trend analysis must see the BER growth"
        paths.add("analysis")

    missing = expected - paths
    assert not missing, (
        f"{name}: expected detection via {sorted(expected)}, "
        f"got {sorted(paths)}"
    )
    assert paths, f"{name}: no detection path caught the fault at all"
    print(f"\n  {name:22} -> caught by {sorted(paths)}")


def test_bench_coverage_run(benchmark):
    """Timing reference: one full fault-scenario pipeline run."""
    pipeline, _ = benchmark.pedantic(
        lambda: run_with_fault(
            lambda m: HungNode(start=600.0, node=m.topo.nodes[3]),
            hours=0.5,
        ),
        rounds=1, iterations=1,
    )
    assert pipeline.alerts.alerts
