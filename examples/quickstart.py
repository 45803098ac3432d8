#!/usr/bin/env python
"""Quickstart: a monitored machine, an injected fault, a caught alert.

Builds a small dragonfly machine with a realistic job mix, assembles the
full end-to-end monitoring pipeline (collectors -> bus -> stores ->
SEC rules -> actions), injects a hung node and a slow OST, and shows
what the monitoring surfaces: alerts, automated drains, the dashboard,
and the data trail in the stores.

Run:  python examples/quickstart.py
"""

from repro.cluster import (
    HungNode,
    JobGenerator,
    Machine,
    PackedPlacement,
    SlowOst,
    build_dragonfly,
)
from repro.sites import SiteConfig, build_site


def main() -> None:
    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    machine = Machine(
        topo,
        placement=PackedPlacement(),
        job_generator=JobGenerator(mean_interarrival_s=180,
                                   max_nodes=32, seed=2),
        gpu_nodes="all",
        seed=7,
    )
    print(f"machine: {len(topo.nodes)} nodes, {len(topo.links)} links, "
          f"{len(topo.cabinets)} cabinets")

    # ground truth: two faults the monitoring should catch
    victim = topo.nodes[5]
    machine.faults.add(HungNode(start=900.0, duration=1200.0, node=victim))
    machine.faults.add(SlowOst(start=1800.0, duration=1200.0, ost=0,
                               bw_factor=0.1))
    print(f"injected: hung node {victim} @t=900s, slow ost0 @t=1800s\n")

    pipeline = build_site(SiteConfig(seed=1), machine)
    pipeline.run(hours=1.0, dt=10.0)

    print("=== alerts raised ===")
    for a in pipeline.alerts.alerts:
        print(f"  t={a.time:6.0f}s [{a.severity.name:8}] {a.rule:18} "
              f"{a.component}: {a.message[:60]}")

    print("\n=== automated responses (audit trail) ===")
    for rec in pipeline.actions.audit:
        if rec.action != "alert":
            print(f"  t={rec.time:6.0f}s {rec.action:12} "
                  f"{rec.component:16} -> {rec.outcome}")

    print("\n" + pipeline.dashboard().render(machine.now, window_s=1200.0))

    stats = pipeline.tsdb.stats()
    print(f"\nstores: {stats.samples} samples across {stats.series} series "
          f"(compression {stats.compression_ratio:.1f}x), "
          f"{len(pipeline.logs)} log events, "
          f"{len(pipeline.jobs)} jobs indexed")

    print("\ncollection overhead per sweep:")
    for name, rep in sorted(pipeline.overhead_report().items()):
        print(f"  {name:20} {rep['sweeps']:4.0f} sweeps  "
              f"{rep['wall_per_sweep_ms']:6.2f} ms/sweep  "
              f"{rep['samples']:8.0f} samples")


if __name__ == "__main__":
    main()
