"""Command-line demo driver: ``python -m repro [scenario]``.

Runs a monitored machine scenario and prints the live outcome — the
fastest way to see the stack end to end without writing code.

Scenarios:

* ``demo``        (default) — mixed workload, hung node + slow OST,
                  full pipeline, alerts + dashboard;
* ``figures``     — regenerate Figure 3 and Figure 4 style output from
                  a fresh simulation;
* ``registry``    — print the metric data dictionary (every metric's
                  unit, meaning, and derivation);
* ``dashboard``   — run a workload and render the shareable operations
                  dashboard spec;
* ``obs``         — run a workload and introspect the monitoring plane
                  itself: per-stage span timings, data-path
                  completeness, slowest spans, and the ``selfmon.*``
                  meta-metric series it stored about itself;
* ``scale``       — run the same machine on all three transport tiers
                  (flat bus, partitioned bus, aggregator tree) and
                  print a comparison table: message volumes, drops,
                  completeness, stored samples, and wall time — plus a
                  storage-plane section (columnar ingest rate, cold vs
                  warm query latency, compression ratio) and an
                  analysis-plane section (streaming-detector sweep
                  throughput at 27,648 components, columnar vs scalar);
                  with ``--workers N``, also a parallel-runtime section
                  sweeping the threaded execution model from 1 to N
                  workers over a remote-RTT-dominated monitored run;
* ``chaos``       — break the monitoring plane itself (raising
                  collector, hung collector, transport stall, transport
                  drop storm, TSDB shard outage) and show the
                  supervised lifecycle riding it out: the
                  health-transition timeline, the self-alerts the SEC
                  raised about its own degradation — including the
                  freshness-SLO breach naming the stalled hop — and the
                  delivery ledger reconciling every published point as
                  stored or accounted loss;
* ``slo``         — run the same workload on all three transport tiers
                  and print the ingest-to-queryable latency waterfall
                  each produced: per-hop attribution whose hop sums
                  telescope *exactly* to the end-to-end latency, plus
                  the freshness-SLO burn status;
* ``store``       — out-of-core storage demo: run a sharded store with
                  a deliberately tiny hot-tier byte budget so sealed
                  chunks spill to mmap-backed segment files, snapshot,
                  then hard-crash the store (files truncated to the
                  last fsync) mid-campaign and recover from disk — the
                  delivery ledger accounts every point across the
                  crash, with unsynced loss a named cause, never a
                  silence;
* ``serve``       — ingest on a sharded store, then drive dashboard
                  query rounds for two tenants through the serving
                  plane: rollup-pyramid planner answers, result-cache
                  hit ratios, per-tenant admission accounting (a
                  burst-limited guest is shed), and an exactness
                  spot-check of every planner answer against the raw
                  decompress path;
* ``sites``       — stand up all ten paper sites from their declarative
                  configs on one simulated clock, run a short campaign,
                  and print the regenerated Table I capability matrix
                  (declared vs live-introspected, drift flagged), a
                  cross-site federated query answered exactly through
                  the partial-column merge, the merged health timeline,
                  and every site's delivery-ledger identity — exits
                  nonzero if any ledger fails to balance or any
                  declared capability drifts from the built stack.

``obs --json`` emits the full health report and the stored ``selfmon.*``
series as machine-readable JSON instead of text.
"""

from __future__ import annotations

import argparse
import sys


def _build_machine(seed: int):
    from .cluster import (
        HungNode,
        JobGenerator,
        Machine,
        PackedPlacement,
        SlowOst,
        build_dragonfly,
    )

    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    machine = Machine(
        topo,
        placement=PackedPlacement(),
        job_generator=JobGenerator(mean_interarrival_s=180,
                                   max_nodes=32, seed=seed),
        gpu_nodes="all",
        seed=seed,
    )
    machine.faults.add(HungNode(start=900.0, duration=1200.0,
                                node=topo.nodes[5]))
    machine.faults.add(SlowOst(start=1800.0, duration=1200.0, ost=0,
                               bw_factor=0.1))
    return machine


def cmd_demo(args) -> int:
    from .sites import SiteConfig, build_site

    machine = _build_machine(args.seed)
    print(f"simulating {len(machine.topo.nodes)} nodes for "
          f"{args.hours:g} h with a hung node and a slow OST...")
    pipeline = build_site(SiteConfig(seed=args.seed), machine)
    pipeline.run(hours=args.hours, dt=10.0)
    print("\nalerts:")
    for a in pipeline.alerts.alerts:
        print(f"  t={a.time:6.0f}s [{a.severity.name:8}] "
              f"{a.rule:18} {a.component}: {a.message[:54]}")
    print()
    print(pipeline.dashboard().render(machine.now, window_s=1200.0))
    stats = pipeline.tsdb.stats()
    print(f"\n{stats.samples} samples / {stats.series} series stored, "
          f"{len(pipeline.logs)} log events, "
          f"{len(pipeline.jobs)} jobs indexed")
    return 0


def cmd_figures(args) -> int:
    from .sites import SiteConfig, build_site
    from .viz.figures import figure3_power, figure4_drilldown

    machine = _build_machine(args.seed)
    pipeline = build_site(SiteConfig(seed=args.seed), machine)
    pipeline.run(hours=args.hours, dt=10.0)
    fig3 = figure3_power(pipeline.tsdb, 0.0, machine.now)
    print(fig3.render(height=7))
    fig4, result = figure4_drilldown(pipeline.tsdb, pipeline.jobs,
                                     0.0, machine.now)
    print()
    print(fig4.render(height=7))
    return 0


def cmd_registry(args) -> int:
    from .core.registry import default_registry

    print(default_registry().document())
    return 0


def cmd_dashboard(args) -> int:
    from .sites import SiteConfig, build_site
    from .viz.dashspec import operations_dashboard

    machine = _build_machine(args.seed)
    pipeline = build_site(SiteConfig(seed=args.seed), machine)
    pipeline.run(hours=args.hours, dt=10.0)
    spec = operations_dashboard()
    print("shareable spec (JSON):")
    print(spec.to_json())
    print()
    print(spec.render(pipeline.tsdb, machine.now))
    return 0


def cmd_obs(args) -> int:
    from .analysis.streaming import (
        StreamingOutlierDetector,
        StreamingRateWatch,
        StreamingStats,
    )
    from .sites import SiteConfig, build_site

    as_json = getattr(args, "json", False)
    machine = _build_machine(args.seed)
    if not as_json:
        print(f"simulating {len(machine.topo.nodes)} nodes for "
              f"{args.hours:g} h, monitoring the monitoring...")
    pipeline = build_site(SiteConfig(seed=args.seed), machine)
    # streaming detectors on the hot sweeps, so the analysis plane has
    # something to self-report (selfmon.analysis.* gauges below)
    pipeline.add_streaming(StreamingStats())
    pipeline.add_streaming(
        StreamingOutlierDetector(("node.power_w",), z_threshold=6.0))
    pipeline.add_streaming(
        StreamingRateWatch("gpu.ecc_dbe", max_rate_per_s=0.01))
    pipeline.run(hours=args.hours, dt=10.0)
    selfmon = sorted(
        {k.metric for k in pipeline.tsdb.keys()
         if k.metric.startswith("selfmon.")}
    )
    if as_json:
        import dataclasses
        import json

        report = pipeline.introspect().report()
        series = {}
        for name in selfmon:
            comps = pipeline.tsdb.components(name)
            b = pipeline.tsdb.query(name, comps[0])
            series[name] = {
                "components": len(comps),
                "latest": float(b.values[-1]),
            }
        print(json.dumps(
            {"report": dataclasses.asdict(report), "selfmon": series},
            indent=2, sort_keys=True, default=str,
        ))
        return 0
    print()
    print(pipeline.introspect().render())
    print()
    print(f"selfmon series stored ({len(selfmon)} metrics):")
    for name in selfmon:
        comps = pipeline.tsdb.components(name)
        b = pipeline.tsdb.query(name, comps[0])
        print(f"  {name:<35} {len(comps):3d} component(s), "
              f"latest={b.values[-1]:.3f}")
    return 0


def cmd_scale(args) -> int:
    import time as _time

    from .sites import SiteConfig, build_site

    specs = [
        ("flat", dict(transport="flat")),
        ("partitioned", dict(transport="partitioned", shards=4)),
        ("tree", dict(transport="tree", shards=4)),
    ]
    print(f"running the same {args.hours:g} h scenario on each "
          f"transport tier...")
    rows = []
    for label, kw in specs:
        machine = _build_machine(args.seed)
        pipeline = build_site(SiteConfig(seed=args.seed, **kw), machine)
        t0 = _time.perf_counter()
        pipeline.run(hours=args.hours, dt=10.0)
        pipeline.bus.flush()     # deliver anything still windowed
        wall = _time.perf_counter() - t0
        stats = pipeline.bus.stats()
        upstream = getattr(stats, "upstream_messages", stats.published)
        from .obs.selfmetrics import completeness_ratio
        rows.append((
            label,
            stats.published,
            upstream,
            stats.delivered,
            stats.dropped,
            completeness_ratio(stats.delivered, stats.dropped,
                               stats.errors),
            pipeline.tsdb.stats().samples,
            len(pipeline.alerts.alerts),
            wall,
        ))
    hdr = (f"{'transport':<12} {'published':>10} {'upstream':>10} "
           f"{'delivered':>10} {'dropped':>8} {'complete':>9} "
           f"{'samples':>9} {'alerts':>7} {'wall s':>7}")
    print()
    print(hdr)
    print("-" * len(hdr))
    for r in rows:
        print(f"{r[0]:<12} {r[1]:>10} {r[2]:>10} {r[3]:>10} {r[4]:>8} "
              f"{r[5]:>9.4f} {r[6]:>9} {r[7]:>7} {r[8]:>7.2f}")
    flat_up, tree_up = rows[0][2], rows[2][2]
    if tree_up:
        print(f"\naggregator tree upstream reduction: "
              f"{flat_up / tree_up:.1f}x fewer messages than flat "
              f"fan-out")
    _scale_storage_plane(args)
    _scale_analysis_plane(args)
    if getattr(args, "workers", None):
        _scale_parallel_plane(args)
    return 0


def _scale_storage_plane(args) -> None:
    """The storage-plane rows of ``scale``: sweep ingest rate, cold/warm
    query latency, and compression ratio of the columnar TSDB."""
    import time as _time

    import numpy as np

    from .core.metric import SeriesBatch, component_array
    from .storage.chunkcache import ChunkCache
    from .storage.tsdb import TimeSeriesStore

    n_comps, n_sweeps, chunk_size = 256, 2048, 512
    # one component array for every sweep, as collectors publish it
    comps = component_array(f"n{i:04d}" for i in range(n_comps))
    rng = np.random.default_rng(args.seed)
    store = TimeSeriesStore(chunk_size=chunk_size)
    t0 = _time.perf_counter()
    for s in range(n_sweeps):
        store.append(SeriesBatch("node.power_w", comps,
                                 np.full(n_comps, 60.0 * s),
                                 rng.normal(250.0, 15.0, n_comps)))
    ingest_wall = _time.perf_counter() - t0
    sealed = store.stats().sealed_chunks
    store.flush()
    stats = store.stats()
    span = n_sweeps * 60.0
    step = chunk_size * 60.0 * 2    # buckets swallow whole chunks

    def timed(prune, cache):
        st = TimeSeriesStore(chunk_size=chunk_size, cache=cache)
        st._series = store._series    # share the sealed data read-only
        best = float("inf")
        for _ in range(5):
            w0 = _time.perf_counter()
            for c in comps[:8]:
                st.downsample("node.power_w", str(c), 0.0, span, step,
                              "mean", prune=prune)
            best = min(best, _time.perf_counter() - w0)
        return best / 8.0

    cold = timed(prune=False, cache=ChunkCache(max_bytes=0))
    warm = timed(prune=True, cache=ChunkCache())
    print(f"\nstorage plane ({n_comps} series x {n_sweeps} sweeps, "
          f"chunk_size={chunk_size}):")
    print(f"  ingest rate       {stats.samples / ingest_wall:12,.0f} "
          f"samples/s (sweeps into 2-D heads, {sealed:,} chunks "
          f"batch-sealed)")
    print(f"  cold query        {1e3 * cold:12.3f} ms/series "
          f"(decompress every chunk)")
    print(f"  warm query        {1e3 * warm:12.3f} ms/series "
          f"(chunk summaries, {cold / warm:.1f}x faster)")
    print(f"  compression ratio {stats.compression_ratio:12.1f}x "
          f"({stats.compressed_bytes:,} B for "
          f"{stats.raw_bytes:,} B raw)")


def _scale_analysis_plane(args) -> None:
    """The analysis-plane rows of ``scale``: streaming-detector sweep
    throughput of the columnar kernels at Trinity scale (their speed-up
    over the scalar references is checked in
    ``benchmarks/test_analysis_throughput.py``)."""
    import time as _time

    import numpy as np

    from .analysis.anomaly import sweep_outliers
    from .analysis.streaming import StreamingRateWatch, StreamingStats
    from .core.metric import SeriesBatch

    n, n_sweeps = 27648, 3
    comps = np.array([f"n{i:05d}" for i in range(n)], dtype=object)
    rng = np.random.default_rng(args.seed)
    power = [SeriesBatch("node.power_w", comps, np.full(n, 60.0 * k),
                         rng.normal(250.0, 15.0, n))
             for k in range(n_sweeps)]
    base = rng.integers(0, 3, n).astype(float)
    counter = [SeriesBatch("gpu.ecc_dbe", comps, np.full(n, 60.0 * k),
                           base + 0.05 * k)
               for k in range(n_sweeps)]

    def best_of(fn, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            t0 = _time.perf_counter()
            fn()
            best = min(best, _time.perf_counter() - t0)
        return best

    def run_stats():
        st = StreamingStats()
        for b in power:
            st.observe(b)

    def run_outliers():
        for b in power:
            sweep_outliers(b, z_threshold=5.0)

    def run_watch():
        w = StreamingRateWatch("gpu.ecc_dbe", max_rate_per_s=0.5)
        for b in counter:
            w.observe(b)

    rows = [
        ("streaming stats", run_stats),
        ("sweep outliers", run_outliers),
        ("rate watch", run_watch),
    ]
    total = n * n_sweeps
    print(f"\nanalysis plane ({n:,}-component sweeps x {n_sweeps}):")
    for label, fn in rows:
        print(f"  {label:<17} columnar {total / best_of(fn):12,.0f}"
              f" samples/s")


def _scale_parallel_plane(args) -> None:
    """The parallel-runtime rows of ``scale --workers N``: the full
    monitored sweep at Trinity scale on 1, 2, ..., N workers, with the
    remote-I/O latency model on the scrape and store-write edges."""
    from .runtime.scaling import (
        DEFAULT_COMPONENTS,
        DEFAULT_FLEETS,
        sweep_workers,
    )

    top = max(1, int(args.workers))
    counts = sorted({1, min(2, top), top})
    n_steps = max(2, int(args.hours * 3600.0 / 10.0) // 18) \
        if args.hours < 1.0 else 20
    print(f"\nparallel runtime ({DEFAULT_COMPONENTS:,} components / "
          f"{DEFAULT_FLEETS} remote fleets, {n_steps} monitored steps "
          f"per arm):")
    rows = sweep_workers(counts, n_steps=n_steps, seed=args.seed)
    hdr = (f"  {'workers':>7} {'wall s':>8} {'steps/s':>8} "
           f"{'speedup':>8} {'busy':>6} {'samples':>9}")
    print(hdr)
    print("  " + "-" * (len(hdr) - 2))
    for r in rows:
        busy = r["executor"]["busy_fraction"]
        print(f"  {r['workers']:>7} {r['wall_s']:>8.2f} "
              f"{r['steps_per_s']:>8.2f} {r['speedup']:>7.2f}x "
              f"{busy:>6.2f} {r['samples']:>9,}")
    best = rows[-1]
    print(f"  -> {best['workers']} workers hide "
          f"{best['rtt_paid_s']:.1f} s of remote RTT per arm: "
          f"{best['speedup']:.1f}x the serial step loop")


def cmd_chaos(args) -> int:
    from .obs.chaos import (
        ChaosTransport,
        CollectorHang,
        CollectorRaise,
        MonitorFaultInjector,
        ShardOutage,
        TransportDropStorm,
        TransportStall,
    )
    from .sites import SiteConfig, build_site
    from .transport.partitioned import PartitionedBus

    machine = _build_machine(args.seed)
    print(f"simulating {len(machine.topo.nodes)} nodes for "
          f"{args.hours:g} h while injecting faults into the "
          f"monitoring plane itself...")
    pipeline = build_site(
        SiteConfig(seed=args.seed, shards=4, collector_budget_s=0.01),
        machine,
        overrides={"transport": ChaosTransport(PartitionedBus())},
    )
    inj = MonitorFaultInjector([
        CollectorRaise(start=600.0, duration=900.0, target="sedc"),
        CollectorHang(start=1200.0, duration=600.0,
                      target="node_counters"),
        TransportStall(start=1400.0, duration=400.0),
        TransportDropStorm(start=2000.0, duration=800.0, drop_every=3),
        ShardOutage(start=3000.0, duration=1000.0, shard=1),
    ])
    print("\nfault schedule (monitor-side ground truth):")
    for g in inj.ground_truth():
        tgt = f" target={g['target']}" if g["target"] else ""
        print(f"  {g['name']:<22} t=[{g['start']:.0f}, {g['end']:.0f})"
              f"{tgt}")

    dt = 10.0
    end = machine.now + args.hours * 3600.0
    while machine.now < end - 1e-9:
        inj.step(pipeline, machine.now)
        pipeline.step(dt)
    inj.step(pipeline, machine.now)   # revert anything still open
    pipeline.bus.flush()

    print("\nhealth-transition timeline:")
    print(pipeline.supervisor.timeline())

    impaired = [
        (name, rec) for name, rec in pipeline.health_report().items()
        if rec["state"] != "ok"
    ]
    n = len(pipeline.health_report())
    if impaired:
        print(f"\nfinal health: {len(impaired)}/{n} components "
              f"still impaired:")
        for name, rec in impaired:
            print(f"  {name}: {rec['state'].upper()} ({rec['reason']})")
    else:
        print(f"\nfinal health: all {n} supervised components OK "
              f"(every fault healed)")

    self_alerts = [a for a in pipeline.alerts.alerts
                   if a.rule.startswith("monitor_self")]
    print(f"\nself-alerts raised about the monitoring plane "
          f"({len(self_alerts)}):")
    for a in self_alerts[:8]:
        print(f"  t={a.time:6.0f}s [{a.severity.name:8}] "
              f"{a.rule:22} {a.message[:52]}")
    if len(self_alerts) > 8:
        print(f"  ... and {len(self_alerts) - 8} more")

    fresh_alerts = [a for a in pipeline.alerts.alerts
                    if a.rule.startswith("freshness_slo")]
    print(f"\nfreshness-SLO breaches escalated ({len(fresh_alerts)}):")
    for a in fresh_alerts[:4]:
        print(f"  t={a.time:6.0f}s [{a.severity.name:8}] "
              f"{a.rule:22} {a.message[:100]}")
    if len(fresh_alerts) > 4:
        print(f"  ... and {len(fresh_alerts) - 4} more")
    stall_named = any("worst hop pump" in a.message
                      for a in fresh_alerts)
    if stall_named:
        print("  -> the breach exemplar names the stalled hop (pump): "
              "the alert points at where the latency lives")

    report = pipeline.delivery_report()
    print()
    print(report.render())
    ok = (impaired == [] and report.balanced and inj.all_reverted()
          and stall_named)
    print()
    if ok:
        print("chaos campaign PASSED: zero uncaught exceptions, all "
              "components recovered, ledger reconciles exactly, "
              "freshness breach attributed to the stalled hop")
    else:
        print("chaos campaign FAILED: see above")
    return 0 if ok else 1


def cmd_store(args) -> int:
    import tempfile

    from .obs.chaos import MonitorFaultInjector, StoreCrash
    from .sites import SiteConfig, build_site
    from .storage.rollup import DEFAULT_LEVELS
    from .storage.sharded import ShardedTimeSeriesStore

    machine = _build_machine(args.seed)
    store_dir = tempfile.mkdtemp(prefix="repro-store-")
    hot_budget = 16 << 10    # deliberately tiny: force spill to disk
    print(f"simulating {len(machine.topo.nodes)} nodes for "
          f"{args.hours:g} h on a disk-backed sharded store\n"
          f"  store dir   {store_dir}\n"
          f"  hot budget  {hot_budget} B/shard (sealed chunks past "
          f"this spill to mmap-backed segments)")
    # small chunks + small fsync batches so a short demo run actually
    # seals, spills, and syncs (the defaults are sized for long runs)
    tsdb = ShardedTimeSeriesStore(
        shards=4, chunk_size=24, pyramid_levels=DEFAULT_LEVELS,
        disk_dir=store_dir, hot_bytes=hot_budget,
        sync_every_bytes=64 << 10,
    )
    pipeline = build_site(SiteConfig(seed=args.seed), machine,
                          overrides={"tsdb": tsdb})

    dt = 10.0
    total_s = args.hours * 3600.0
    snap_at = machine.now + total_s * 0.5
    crash_at = machine.now + total_s * 0.75
    inj = MonitorFaultInjector([StoreCrash(start=crash_at)])
    crash = inj.faults[0]

    end = machine.now + total_s
    snapped = False
    while machine.now < end - 1e-9:
        if not snapped and machine.now >= snap_at:
            paths = pipeline.tsdb.snapshot()
            print(f"\nt={machine.now:6.0f}s snapshot: "
                  f"{len(paths)} per-shard manifests written "
                  f"(series index + pyramid partials + heads)")
            snapped = True
        was_applied = crash.applied
        if not was_applied and machine.now >= crash_at:
            d0 = pipeline.tsdb.disk_stats()
            print(f"\nt={machine.now:6.0f}s pre-crash tier: "
                  f"{d0.spills} spills, {d0.hot_bytes} hot B in "
                  f"{d0.hot_chunks} chunks, {d0.disk_bytes} B on disk")
        inj.step(pipeline, machine.now)
        if crash.applied and not was_applied:
            r = crash.recovery
            print(f"t={machine.now:6.0f}s CRASH: files truncated to "
                  f"last fsync, store rebuilt from disk")
            print(f"  recovered {r.points} points in {r.series} series "
                  f"({r.manifest_chunks} manifest chunks, "
                  f"{r.scanned_chunks} scanned from segments, "
                  f"{r.wal_points_replayed} WAL points replayed, "
                  f"{r.wal_points_skipped} deduped)")
            print(f"  torn tails truncated: "
                  f"{r.torn_segment_bytes} segment B, "
                  f"{r.torn_wal_bytes} WAL B")
            print(f"  {crash.points_accounted} unsynced points moved "
                  f"to accounted loss ('crash-unsynced')")
        pipeline.step(dt)
    inj.step(pipeline, machine.now)
    pipeline.bus.flush()

    # cold query sweep: full-range reads hit spilled chunks through the
    # mmap (decode straight from the mapped buffer, no staging copy)
    pipeline.tsdb.cache.clear()
    metrics = sorted(pipeline.tsdb.points_by_metric())[:50]
    swept = sum(
        len(pipeline.tsdb.query(m, c, 0.0, machine.now + 1.0).times)
        for m in metrics
        for c in pipeline.tsdb.components(m)
    )
    print(f"\ncold query sweep: {swept} points read back over "
          f"{len(metrics)} metrics (spilled chunks decoded from mmap)")

    d = pipeline.tsdb.disk_stats()
    print(f"\ndisk tier after {args.hours:g} h:")
    print(f"  on disk     {d.disk_bytes:10d} B "
          f"({d.segments} segments, {d.wal_bytes} B WAL)")
    print(f"  hot tier    {d.hot_bytes:10d} B in {d.hot_chunks} chunks "
          f"(budget {4 * hot_budget} B across 4 shards)")
    print(f"  spills {d.spills}  loads {d.loads}  "
          f"map_hits {d.map_hits}  remaps {d.remaps}")
    print(f"  wal records {d.wal_records}  wal fsync batches "
          f"{d.wal_syncs}")
    budget_held = d.hot_bytes <= 4 * hot_budget

    report = pipeline.delivery_report()
    print()
    print(report.render())

    ok = (crash.applied and report.balanced and budget_held
          and "crash-unsynced" in report.lost_by_cause)
    print()
    if ok:
        print("store scenario PASSED: hot tier held its byte budget, "
              "the store survived a hard crash, and the ledger "
              "reconciles exactly — crash loss is a named number, "
              "not a silence")
    else:
        print("store scenario FAILED: see above")
    return 0 if ok else 1


def cmd_slo(args) -> int:
    from .sites import SiteConfig, build_site
    from .transport.base import make_transport

    # a 120 s aggregation window makes the tree's merge latency visible
    # in the waterfall (the flat/partitioned tiers deliver same-tick)
    specs = [
        ("flat", lambda: make_transport("flat")),
        ("partitioned", lambda: make_transport("partitioned")),
        ("tree", lambda: make_transport("tree", window_s=120.0)),
    ]
    print(f"tracing ingest-to-queryable freshness over {args.hours:g} h "
          f"on each transport tier...")
    all_exact = True
    for label, build in specs:
        machine = _build_machine(args.seed)
        pipeline = build_site(SiteConfig(seed=args.seed), machine,
                              overrides={"transport": build()})
        pipeline.run(hours=args.hours, dt=10.0)
        pipeline.bus.flush()     # deliver anything still windowed
        fr = pipeline.freshness
        fr.tier = label
        print()
        print(fr.render_waterfall())
        for s in fr.slo_status():
            state = "BREACHED" if s["active"] else "ok"
            print(f"  slo {s['name']}: p{100 * s['quantile']:g} <= "
                  f"{s['max_latency_s']:g}s  burn={s['burn_rate']:.2f}x"
                  f"  breaches={s['breaches']}  [{state}]")
        # the acceptance bar: hop attribution telescopes to the
        # end-to-end latency with no epsilon — exact equality on the
        # simulated clock
        exact = (fr.hop_total() == fr.e2e_total()
                 and fr.waterfall_exact())
        all_exact = all_exact and exact
        if not exact:
            print(f"  !! hop sums diverge from end-to-end on {label}")
    print()
    if all_exact:
        print("all tiers: sum(per-hop latency) == end-to-end latency "
              "exactly (no epsilon)")
    else:
        print("EXACTNESS VIOLATION: at least one tier's hop sums "
              "diverge from its end-to-end latency")
    return 0 if all_exact else 1


def cmd_serve(args) -> int:
    import numpy as np

    from .serve.quota import TenantQuota
    from .sites import SiteConfig, build_site

    machine = _build_machine(args.seed)
    print(f"ingesting {args.hours:g} h across 4 shards, then serving "
          f"dashboard queries through the multi-tenant front end...")
    pipeline = build_site(SiteConfig(
        seed=args.seed, shards=4,
        quotas={
            "ops": TenantQuota(qps=1000.0),
            # the sim clock is frozen between ticks, so the guest's
            # bucket never refills mid-burst: burst admissions, then shed
            "guest": TenantQuota(qps=1.0, burst=8.0),
        },
    ), machine)
    pipeline.run(hours=args.hours, dt=10.0)
    fe = pipeline.frontend
    t1 = machine.now
    metrics = ["node.load1", "node.power_w", "node.temp_c",
               "fs.read_bps", "queue.depth"]
    # two dashboard refresh rounds per tenant: round two should be
    # all result-cache hits (no ingest between them)
    for tenant in ("ops", "guest"):
        for _round in range(2):
            for m in metrics:
                fe.aggregate_across(m, t0=0.0, t1=t1, step=60.0,
                                    agg="mean", tenant=tenant)
                fe.aggregate_across(m, t0=0.0, t1=t1, step=600.0,
                                    agg="max", tenant=tenant)
                comps = fe.components(m, tenant=tenant)
                if comps:
                    fe.downsample(m, comps[0], 0.0, t1, 60.0,
                                  agg="mean", tenant=tenant)
    # exactness spot-check: planner answers against the store's
    # forced-decompress raw path
    exact = True
    for m in metrics:
        got = fe.aggregate_across(m, t0=0.0, t1=t1, step=60.0, agg="max",
                                  tenant="ops")
        want = pipeline.tsdb.aggregate_across(m, t0=0.0, t1=t1,
                                              step=60.0, agg="max")
        ok = (np.array_equal(got.times, want.times)
              and np.array_equal(got.values, want.values, equal_nan=True))
        exact = exact and ok
        if not ok:
            print(f"  !! serving-plane answer diverges from raw on {m}")
    s = fe.stats()
    print()
    print(f"queries: {s.queries} total, {s.admitted} admitted, "
          f"{s.rejected} shed")
    print(f"planner: {s.pyramid_answers} pyramid answers, "
          f"{s.raw_answers} raw fallbacks "
          f"({100 * s.pyramid_ratio:.0f}% from rollups)")
    print(f"result cache: {s.cache.hits} hits / "
          f"{s.cache.hits + s.cache.misses} lookups "
          f"(hit ratio {s.cache_hit_ratio:.2f}), "
          f"{s.cache.bytes} B resident")
    print()
    print(f"{'tenant':<10} {'admitted':>9} {'shed(rate)':>11} "
          f"{'shed(conc)':>11}")
    for t in fe.tenants():
        ts = fe.tenant_stats(t)
        print(f"{t:<10} {ts.admitted:>9} {ts.rejected_rate:>11} "
              f"{ts.rejected_concurrency:>11}")
    print()
    if exact:
        print("serving-plane answers match the raw decompress path "
              "exactly")
    else:
        print("EXACTNESS VIOLATION: serving plane diverged from the "
              "raw path")
    return 0 if exact else 1


def cmd_sites(args) -> int:
    from .sites import Federation, site_capabilities
    from .viz.sitematrix import capability_matrix

    fed = Federation.from_presets(executor=args.workers)
    nodes = sum(len(p.machine.topo.nodes)
                for p in fed.pipelines.values())
    print(f"standing up {len(fed.pipelines)} paper sites "
          f"({nodes} nodes total) on one simulated clock, "
          f"{args.hours:g} h campaign...")
    fed.run(hours=args.hours)
    fed.flush()
    t1 = fed.now

    # Table I, regenerated: declared capabilities checked cell-by-cell
    # against live introspection of each built stack
    rows, drift = [], {}
    for name, p in fed.pipelines.items():
        declared = p.site_config.capabilities()
        live = site_capabilities(p)
        rows.append(live)
        bad = sorted(k for k in declared if declared[k] != live.get(k))
        if bad:
            drift[name] = bad
    print()
    print(capability_matrix(rows, drift))

    fe = fed.frontend()
    metric = "cabinet.power_w"
    comps = fe.components(metric)
    batch = fe.aggregate_across(metric, t0=0.0, t1=t1, step=600.0,
                                agg="sum")
    print()
    print(f"federated query: sum({metric}) across {len(comps)} "
          f"cabinets at {len(fed.pipelines)} sites, 600 s buckets -> "
          f"{len(batch)} buckets")
    if len(batch):
        import numpy as np

        finite = batch.values[np.isfinite(batch.values)]
        if len(finite):
            print(f"  cross-site power envelope: "
                  f"min {finite.min():,.0f} W, "
                  f"mean {finite.mean():,.0f} W, "
                  f"max {finite.max():,.0f} W")
    s = fe.stats()
    print(f"  fan-out: {s.fanouts} site calls over {s.queries} "
          f"federated queries, {s.partial_answers} partial, "
          f"{sum(s.site_errors.values())} site errors")

    timeline = fed.timeline()
    print()
    print("merged health timeline (site-qualified):")
    lines = timeline.splitlines()
    for line in lines[:12]:
        print(f"  {line}")
    if len(lines) > 12:
        print(f"  ... {len(lines) - 12} more transitions")

    print()
    print(f"{'site':<8} {'published':>10} {'stored':>10} {'lost':>6} "
          f"{'pending':>8} {'in_flight':>9} {'unacct':>6}")
    balanced = True
    for name, r in fed.delivery_reports().items():
        if r is None:
            print(f"{name:<8} (unsupervised)")
            continue
        ok = r.balanced and r.unaccounted == 0
        balanced = balanced and ok
        print(f"{name:<8} {r.published:>10} {r.stored:>10} {r.lost:>6} "
              f"{r.pending:>8} {r.in_flight:>9} {r.unaccounted:>6}"
              f"{'' if ok else '  !! IMBALANCED'}")
    fed.shutdown()

    print()
    if balanced and not drift:
        print("every site's delivery identity holds exactly and the "
              "built stacks match their declared capabilities")
        return 0
    if not balanced:
        print("LEDGER VIOLATION: a site's delivery identity failed "
              "to balance")
    if drift:
        print("CAPABILITY DRIFT: built stacks diverge from declared "
              f"configs at {', '.join(sorted(drift))}")
    return 1


COMMANDS = {
    "demo": cmd_demo,
    "figures": cmd_figures,
    "registry": cmd_registry,
    "dashboard": cmd_dashboard,
    "obs": cmd_obs,
    "scale": cmd_scale,
    "chaos": cmd_chaos,
    "store": cmd_store,
    "slo": cmd_slo,
    "serve": cmd_serve,
    "sites": cmd_sites,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("scenario", nargs="?", default="demo",
                        choices=sorted(COMMANDS))
    parser.add_argument("--hours", type=float, default=1.0,
                        help="simulated hours (default 1.0)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output (obs scenario)")
    parser.add_argument("--workers", type=int, default=None,
                        help="scale scenario: also sweep the parallel "
                             "runtime up to N workers; sites scenario: "
                             "fan site ticks over N threads")
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.scenario](args)
    except BrokenPipeError:
        # output piped into head/less that closed early: not an error
        return 0


if __name__ == "__main__":
    sys.exit(main())
