"""Reference self-monitoring views: one hand-written reader per view.

Before the stack read its vitals once per emission
(``repro.obs.selfmetrics.read_vitals``), ``SelfMonitor.sample`` and
``PipelineIntrospector.report`` each walked every component's stats
surface on their own, with duck-typed probes.  Those two readers are
kept here unchanged (imports aside, and one guard marked "adapted"),
so the equivalence suite can hold the table-driven sweep and the report
built from the shared read to exactly the batches and the report the
hand-written code produced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.metric import SeriesBatch
from repro.core.registry import MetricRegistry
from repro.core.tracectx import TraceContext
from repro.obs.introspect import STAGES, HealthReport, StageReport
from repro.obs.selfmetrics import SELFMON_METRICS, completeness_ratio

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline import MonitoringPipeline

__all__ = ["OracleIntrospector", "OracleSelfMonitor"]


def _tsdb_stats(tsdb):
    """Stats of the numeric store, tolerating swapped-in backends.

    ``pipeline.tsdb`` is replaceable (e.g. by a ``TieredStore`` whose
    hot tier holds the stats surface); self-monitoring must observe
    whatever is installed rather than constrain it.
    """
    stats = getattr(tsdb, "stats", None)
    if callable(stats):
        return stats()
    hot = getattr(tsdb, "hot", None)
    if hot is not None and callable(getattr(hot, "stats", None)):
        return hot.stats()
    return None


def _cache_stats(tsdb):
    """Chunk-cache counters of the numeric store, if it has any.

    Duck-typed like :func:`_tsdb_stats`: plain, sharded, and tiered
    stores all expose ``cache_stats()``; anything else (or a store
    built without a cache) simply reports nothing.
    """
    cache_stats = getattr(tsdb, "cache_stats", None)
    if callable(cache_stats):
        return cache_stats()
    hot = getattr(tsdb, "hot", None)
    if hot is not None and callable(getattr(hot, "cache_stats", None)):
        return hot.cache_stats()
    return None


class OracleSelfMonitor:
    """The hand-written self-metric sweep (reference copy)."""

    metrics = SELFMON_METRICS

    def __init__(
        self,
        pipeline: "MonitoringPipeline",
        interval_s: float = 60.0,
        source: str = "selfmon",
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.pipeline = pipeline
        self.interval_s = float(interval_s)
        self.source = source
        self.emissions = 0
        self._last_t: float | None = None
        self._next_due = 0.0
        self._prev_bus: tuple[int, int, int] = (0, 0, 0)
        self._prev_tsdb_samples = 0
        self._prev_tick: tuple[int, float] = (0, 0.0)
        self._prev_serve_queries = 0
        self._prev_disk: tuple[int, int] = (0, 0)   # (spills, loads)

    def verify_registered(self, registry: MetricRegistry) -> None:
        """Fail fast if any self-metric is undocumented (Table I)."""
        for m in self.metrics:
            registry.get(m)

    def _streaming_detectors(self) -> list:
        """Instrumented detectors on the streaming stage (duck-typed:
        custom detectors without the self-report surface are skipped)."""
        for stage in getattr(self.pipeline, "stages", ()):
            if getattr(stage, "name", "") == "streaming":
                return [d for d in getattr(stage, "detectors", ())
                        if hasattr(d, "latency") and hasattr(d, "name")]
        return []

    # -- cadence -----------------------------------------------------------

    def maybe_emit(self, now: float) -> list[SeriesBatch]:
        """Emit one self-metric sweep when the cadence is due.

        The first call only establishes the counter baseline (rates need
        a prior sample); returns the batches published, empty when not
        due.
        """
        if self._last_t is None:
            self._baseline(now)
            return []
        if now + 1e-9 < self._next_due:
            return []
        batches = self.sample(now, elapsed_s=now - self._last_t)
        p = self.pipeline
        bus = p.bus
        traced = getattr(p, "freshness", None) is not None
        for b in batches:
            if traced:
                # the selfmon plane's own batches are freshness-traced
                # too — meta-metrics get the same timeliness guarantee
                b.trace = TraceContext.start(
                    now, tick=getattr(p, "ticks", 0)
                )
            bus.publish(b.metric, b, source=self.source)
        self.emissions += 1
        return batches

    def _baseline(self, now: float) -> None:
        p = self.pipeline
        stats = p.bus.stats()
        self._prev_bus = (stats.published, stats.delivered, stats.dropped)
        tstats = _tsdb_stats(p.tsdb)
        self._prev_tsdb_samples = tstats.samples if tstats else 0
        agg = p.tracer.snapshot_counts().get("tick")
        self._prev_tick = agg if agg is not None else (0, 0.0)
        fe = getattr(p, "frontend", None)
        self._prev_serve_queries = fe.stats().queries if fe is not None else 0
        disk = getattr(p.tsdb, "disk_stats", None)
        dstats = disk() if callable(disk) else None
        self._prev_disk = ((dstats.spills, dstats.loads)
                           if dstats is not None else (0, 0))
        self._last_t = now
        self._next_due = now + self.interval_s

    # -- one sweep ---------------------------------------------------------

    def sample(self, now: float, elapsed_s: float) -> list[SeriesBatch]:
        """Build (without publishing) one full self-metric sweep.

        The counters read here also become the next baseline — one
        stats walk per cadence, not two.
        """
        p = self.pipeline
        elapsed = max(float(elapsed_s), 1e-9)
        out: list[SeriesBatch] = []

        def one(metric: str, component: str, value: float) -> None:
            out.append(SeriesBatch.sweep(metric, now, [component], [value]))

        # -- bus -----------------------------------------------------------
        stats = p.bus.stats()
        d_pub = stats.published - self._prev_bus[0]
        d_del = stats.delivered - self._prev_bus[1]
        d_drop = stats.dropped - self._prev_bus[2]
        one("selfmon.bus.publish_rate", "bus", d_pub / elapsed)
        one("selfmon.bus.deliver_rate", "bus", d_del / elapsed)
        one("selfmon.bus.drop_rate", "bus", d_drop / elapsed)
        one("selfmon.bus.dropped", "bus", float(stats.dropped))
        one("selfmon.bus.errors", "bus", float(stats.errors))
        one("selfmon.bus.completeness", "bus",
            completeness_ratio(stats.delivered, stats.dropped, stats.errors))
        self._prev_bus = (stats.published, stats.delivered, stats.dropped)
        depths = stats.queue_depths
        if depths:
            out.append(SeriesBatch.sweep(
                "selfmon.bus.queue_depth", now,
                list(depths), [float(v) for v in depths.values()],
            ))

        # -- partitioned transports expose per-partition surfaces ---------
        # (duck-typed: the flat bus has neither, the tree reports leaves)
        part_depths = getattr(p.bus, "partition_depths", None)
        if callable(part_depths):
            d = part_depths()
            if d:
                out.append(SeriesBatch.sweep(
                    "selfmon.bus.partition_depth", now,
                    list(d), [float(v) for v in d.values()],
                ))
        part_drops = getattr(p.bus, "partition_drops", None)
        if callable(part_drops):
            d = part_drops()
            if d:
                out.append(SeriesBatch.sweep(
                    "selfmon.bus.partition_dropped", now,
                    list(d), [float(v) for v in d.values()],
                ))
        leaf_depths = getattr(p.bus, "leaf_depths", None)
        if callable(leaf_depths):
            d = leaf_depths()
            if d:
                out.append(SeriesBatch.sweep(
                    "selfmon.bus.partition_depth", now,
                    list(d), [float(v) for v in d.values()],
                ))

        # -- collectors ----------------------------------------------------
        names, p50, p95, mx, sweeps = [], [], [], [], []
        for c in p.scheduler.collectors:
            hist = p.scheduler.latency.get(c.name)
            if hist is None or not len(hist):
                continue
            s = hist.summary()
            names.append(c.name)
            p50.append(1000.0 * s["p50_s"])
            p95.append(1000.0 * s["p95_s"])
            mx.append(1000.0 * s["max_s"])
            sweeps.append(float(c.sweeps))
        if names:
            out.append(SeriesBatch.sweep(
                "selfmon.collector.sweep_p50_ms", now, names, p50))
            out.append(SeriesBatch.sweep(
                "selfmon.collector.sweep_p95_ms", now, names, p95))
            out.append(SeriesBatch.sweep(
                "selfmon.collector.sweep_max_ms", now, names, mx))
            out.append(SeriesBatch.sweep(
                "selfmon.collector.sweeps", now, names, sweeps))

        # -- stores --------------------------------------------------------
        tstats = _tsdb_stats(p.tsdb)
        if tstats is not None:
            d_samples = tstats.samples - self._prev_tsdb_samples
            self._prev_tsdb_samples = tstats.samples
            one("selfmon.store.tsdb_ingest_rate", "tsdb",
                d_samples / elapsed)
            one("selfmon.store.tsdb_points", "tsdb", float(tstats.samples))
            one("selfmon.store.tsdb_bytes", "tsdb",
                float(tstats.compressed_bytes))
        per_shard = getattr(p.tsdb, "per_shard_stats", None)
        # adapted: the unsharded store now answers [] instead of lacking
        # the method, and an empty list published nothing before either
        if callable(per_shard) and per_shard():
            shard_stats = per_shard()
            names = [f"shard-{i}" for i in range(len(shard_stats))]
            out.append(SeriesBatch.sweep(
                "selfmon.store.shard_points", now, names,
                [float(s.samples) for s in shard_stats],
            ))
            out.append(SeriesBatch.sweep(
                "selfmon.store.shard_series", now, names,
                [float(s.series) for s in shard_stats],
            ))
            out.append(SeriesBatch.sweep(
                "selfmon.store.shard_bytes", now, names,
                [float(s.compressed_bytes) for s in shard_stats],
            ))
        cstats = _cache_stats(p.tsdb)
        if cstats is not None:
            one("selfmon.store.cache_hits", "chunk-cache", float(cstats.hits))
            one("selfmon.store.cache_misses", "chunk-cache",
                float(cstats.misses))
            one("selfmon.store.cache_evictions", "chunk-cache",
                float(cstats.evictions))
            one("selfmon.store.cache_bytes", "chunk-cache",
                float(cstats.bytes))
        disk = getattr(p.tsdb, "disk_stats", None)
        dstats = disk() if callable(disk) else None
        if dstats is not None:
            d_spills = dstats.spills - self._prev_disk[0]
            d_loads = dstats.loads - self._prev_disk[1]
            self._prev_disk = (dstats.spills, dstats.loads)
            one("selfmon.store.disk_bytes", "disk-tier",
                float(dstats.disk_bytes))
            one("selfmon.store.disk_hot_bytes", "disk-tier",
                float(dstats.hot_bytes))
            one("selfmon.store.disk_spill_rate", "disk-tier",
                d_spills / elapsed)
            one("selfmon.store.disk_load_rate", "disk-tier",
                d_loads / elapsed)
            one("selfmon.store.disk_map_hits", "disk-tier",
                float(dstats.map_hits))
        one("selfmon.store.log_events", "logstore", float(len(p.logs)))
        one("selfmon.store.sql_bytes", "sqlstore",
            float(p.sql.footprint_bytes()))

        # -- response plane ------------------------------------------------
        one("selfmon.sec.rule_fires", "sec", float(len(p.sec.requests)))
        one("selfmon.sec.events_seen", "sec", float(p.sec.events_seen))
        one("selfmon.actions.executed", "actions", float(len(p.actions.audit)))

        # -- streaming analysis plane --------------------------------------
        dets = self._streaming_detectors()
        if dets:
            names = [d.name for d in dets]
            out.append(SeriesBatch.sweep(
                "selfmon.analysis.batches", now, names,
                [float(d.batches_observed) for d in dets]))
            out.append(SeriesBatch.sweep(
                "selfmon.analysis.detections", now, names,
                [float(d.detections_total) for d in dets]))
            timed = [d for d in dets if len(d.latency)]
            if timed:
                tnames = [d.name for d in timed]
                summaries = [d.latency.summary() for d in timed]
                out.append(SeriesBatch.sweep(
                    "selfmon.analysis.sweep_p50_ms", now, tnames,
                    [1000.0 * s["p50_s"] for s in summaries]))
                out.append(SeriesBatch.sweep(
                    "selfmon.analysis.sweep_p95_ms", now, tnames,
                    [1000.0 * s["p95_s"] for s in summaries]))
                out.append(SeriesBatch.sweep(
                    "selfmon.analysis.sweep_max_ms", now, tnames,
                    [1000.0 * s["max_s"] for s in summaries]))

        # -- supervised lifecycle + delivery ledger ------------------------
        sup = getattr(p, "supervisor", None)
        if sup is not None and sup.components:
            names = sorted(sup.components)
            out.append(SeriesBatch.sweep(
                "selfmon.health.state", now, names,
                [float(sup.components[n].health.code) for n in names]))
            one("selfmon.health.transitions", "supervisor",
                float(len(sup.transitions)))
        report = (p.delivery_report()
                  if callable(getattr(p, "delivery_report", None)) else None)
        if report is not None:
            one("selfmon.ledger.published_points", "ledger",
                float(report.published))
            one("selfmon.ledger.stored_points", "ledger",
                float(report.stored))
            one("selfmon.ledger.lost_points", "ledger", float(report.lost))
            one("selfmon.ledger.pending_points", "ledger",
                float(report.pending))
            one("selfmon.ledger.inflight_points", "ledger",
                float(report.in_flight))
            one("selfmon.ledger.unaccounted_points", "ledger",
                float(report.unaccounted))

        # -- freshness plane -----------------------------------------------
        fr = getattr(p, "freshness", None)
        if fr is not None and fr.batches:
            e2e = fr.e2e.summary()
            one("selfmon.freshness.e2e_p50_s", "freshness", e2e["p50_s"])
            one("selfmon.freshness.e2e_p99_s", "freshness", e2e["p99_s"])
            one("selfmon.freshness.e2e_max_s", "freshness", e2e["max_s"])
            one("selfmon.freshness.batches", "freshness",
                float(fr.batches))
            hops = fr.hop_summaries()
            if hops:
                hnames = list(hops)
                out.append(SeriesBatch.sweep(
                    "selfmon.freshness.hop_mean_s", now, hnames,
                    [hops[h]["mean_s"] for h in hnames]))
                out.append(SeriesBatch.sweep(
                    "selfmon.freshness.hop_p99_s", now, hnames,
                    [hops[h]["p99_s"] for h in hnames]))
            slos = fr.slo_status()
            if slos:
                snames = [s["name"] for s in slos]
                out.append(SeriesBatch.sweep(
                    "selfmon.freshness.slo_burn_rate", now, snames,
                    [s["burn_rate"] for s in slos]))
                out.append(SeriesBatch.sweep(
                    "selfmon.freshness.slo_breaches", now, snames,
                    [float(s["breaches"]) for s in slos]))

        # -- execution model (worker topology vitals) ----------------------
        ex = getattr(p, "executor", None)
        if ex is not None:
            snap = ex.snapshot()
            one("selfmon.exec.busy_fraction", ex.name,
                float(snap["busy_fraction"]))
            one("selfmon.exec.barrier_wait_ms", ex.name,
                float(snap["barrier_wait_ms"]))
            one("selfmon.exec.handoff_depth", ex.name,
                float(snap["handoff_depth"]))

        # -- trace exporter loss (ring evictions are accounted) ------------
        one("selfmon.trace.dropped", "tracer", float(p.tracer.dropped))

        # -- serving plane (front end, result cache, planner) --------------
        fe = getattr(p, "frontend", None)
        if fe is not None:
            sstats = fe.stats()
            d_queries = sstats.queries - self._prev_serve_queries
            self._prev_serve_queries = sstats.queries
            one("selfmon.serve.qps", "frontend", d_queries / elapsed)
            one("selfmon.serve.queries", "frontend", float(sstats.queries))
            one("selfmon.serve.rejected", "frontend", float(sstats.rejected))
            one("selfmon.serve.cache_hit_ratio", "result-cache",
                sstats.cache_hit_ratio)
            one("selfmon.serve.cache_bytes", "result-cache",
                float(sstats.cache.bytes))
            one("selfmon.serve.pyramid_answers", "planner",
                float(sstats.pyramid_answers))
            one("selfmon.serve.raw_answers", "planner",
                float(sstats.raw_answers))

        # -- pipeline tick time (from the tracer's root spans) -------------
        agg = p.tracer.snapshot_counts().get("tick")
        if agg is not None:
            d_count = agg[0] - self._prev_tick[0]
            d_total = agg[1] - self._prev_tick[1]
            self._prev_tick = agg
            if d_count > 0:
                one("selfmon.pipeline.tick_ms", "pipeline",
                    1000.0 * d_total / d_count)
        self._last_t = now
        self._next_due = now + self.interval_s
        return out


class OracleIntrospector:
    """The hand-written health report (reference copy)."""

    def __init__(self, pipeline: "MonitoringPipeline") -> None:
        self.pipeline = pipeline

    def report(self, slowest_n: int = 5) -> HealthReport:
        p = self.pipeline
        agg = p.tracer.aggregate()
        ticks = int(agg.get("tick", {}).get("count", 0))
        stages = tuple(
            StageReport(
                name=name,
                calls=int(a["count"]),
                total_s=a["total_s"],
                mean_ms=a["mean_ms"],
                max_ms=1000.0 * a["max_s"],
            )
            for name in STAGES
            if (a := agg.get(name)) is not None
        )
        stats = p.bus.stats()
        slowest = tuple(
            (
                s.name,
                1000.0 * s.duration_s,
                ",".join(f"{k}={v}" for k, v in s.attrs.items()),
            )
            for s in p.tracer.slowest(slowest_n)
        )
        collectors = {}
        for c in p.scheduler.collectors:
            entry: dict[str, float] = {
                "sweeps": float(c.sweeps),
                "samples": float(c.samples_produced),
                "wall_per_sweep_ms": (
                    1000.0 * c.collect_wall_s / c.sweeps if c.sweeps else 0.0
                ),
            }
            hist = p.scheduler.latency.get(c.name)
            if hist is not None and len(hist):
                s = hist.summary()
                entry["p50_ms"] = 1000.0 * s["p50_s"]
                entry["p95_ms"] = 1000.0 * s["p95_s"]
                entry["max_ms"] = 1000.0 * s["max_s"]
            collectors[c.name] = entry
        tstats = _tsdb_stats(p.tsdb)
        stores = {
            "log_events": float(len(p.logs)),
            "sql_bytes": float(p.sql.footprint_bytes()),
        }
        if tstats is not None:
            stores.update(
                tsdb_points=float(tstats.samples),
                tsdb_series=float(tstats.series),
                tsdb_bytes=float(tstats.compressed_bytes),
            )
        # tiered-transport / sharded-store surfaces (duck-typed: absent
        # on the flat bus and the single store)
        partitions: dict[str, int] = {}
        for probe in ("partition_depths", "leaf_depths"):
            fn = getattr(p.bus, probe, None)
            if callable(fn):
                partitions.update(fn())
        shards: dict[str, dict[str, float]] = {}
        per_shard = getattr(p.tsdb, "per_shard_stats", None)
        if callable(per_shard):
            shards = {
                f"shard-{i}": {
                    "points": float(s.samples),
                    "series": float(s.series),
                    "bytes": float(s.compressed_bytes),
                }
                for i, s in enumerate(per_shard())
            }
        analysis: dict[str, dict[str, float]] = {}
        for stage_obj in p.stages:
            if getattr(stage_obj, "name", "") != "streaming":
                continue
            for det in getattr(stage_obj, "detectors", ()):
                entry = {
                    "batches": float(getattr(det, "batches_observed", 0)),
                    "samples": float(getattr(det, "samples_observed", 0)),
                    "detections": float(getattr(det, "detections_total", 0)),
                }
                hist = getattr(det, "latency", None)
                if hist is not None and len(hist):
                    s = hist.summary()
                    entry["p50_ms"] = 1000.0 * s["p50_s"]
                    entry["p95_ms"] = 1000.0 * s["p95_s"]
                    entry["max_ms"] = 1000.0 * s["max_s"]
                analysis[getattr(det, "name", type(det).__name__)] = entry
        chunk_cache: dict[str, float] = {}
        cstats = _cache_stats(p.tsdb)
        if cstats is not None:
            chunk_cache = {
                "hits": float(cstats.hits),
                "misses": float(cstats.misses),
                "evictions": float(cstats.evictions),
                "bytes": float(cstats.bytes),
                "hit_ratio": cstats.hit_ratio,
            }
        disk: dict[str, float] = {}
        dfn = getattr(p.tsdb, "disk_stats", None)
        dstats = dfn() if callable(dfn) else None
        if dstats is not None:
            disk = {
                "segments": float(dstats.segments),
                "disk_bytes": float(dstats.disk_bytes),
                "wal_bytes": float(dstats.wal_bytes),
                "hot_bytes": float(dstats.hot_bytes),
                "hot_chunks": float(dstats.hot_chunks),
                "spills": float(dstats.spills),
                "loads": float(dstats.loads),
                "map_hits": float(dstats.map_hits),
                "remaps": float(dstats.remaps),
                "wal_records": float(dstats.wal_records),
                "wal_syncs": float(dstats.wal_syncs),
            }
        health = (p.health_report()
                  if callable(getattr(p, "health_report", None)) else {})
        fresh: dict = {}
        tracker = getattr(p, "freshness", None)
        if tracker is not None and tracker.batches:
            fresh = tracker.snapshot()
        ledger: dict[str, float] = {}
        balance = (p.delivery_report()
                   if callable(getattr(p, "delivery_report", None)) else None)
        if balance is not None:
            ledger = {
                "published": float(balance.published),
                "stored": float(balance.stored),
                "lost": float(balance.lost),
                "pending": float(balance.pending),
                "in_flight": float(balance.in_flight),
                "unaccounted": float(balance.unaccounted),
            }
        executor: dict = {}
        ex = getattr(p, "executor", None)
        if ex is not None:
            executor = ex.snapshot()
        serve: dict = {}
        fe = getattr(p, "frontend", None)
        if fe is not None:
            sstats = fe.stats()
            serve = {
                "queries": float(sstats.queries),
                "rejected": float(sstats.rejected),
                "pyramid_answers": float(sstats.pyramid_answers),
                "raw_answers": float(sstats.raw_answers),
                "cache_hits": float(sstats.cache.hits),
                "cache_misses": float(sstats.cache.misses),
                "cache_stale": float(sstats.cache.stale),
                "cache_bytes": float(sstats.cache.bytes),
                "cache_hit_ratio": sstats.cache.hit_ratio,
                "tenants": {
                    t: {
                        "admitted": float(ts.admitted),
                        "rejected_rate": float(ts.rejected_rate),
                        "rejected_concurrency":
                            float(ts.rejected_concurrency),
                    }
                    for t in fe.tenants()
                    for ts in (fe.tenant_stats(t),)
                },
            }
        return HealthReport(
            ticks=ticks,
            stages=stages,
            completeness=completeness_ratio(
                stats.delivered, stats.dropped, stats.errors
            ),
            bus={
                "published": stats.published,
                "delivered": stats.delivered,
                "dropped": stats.dropped,
                "errors": stats.errors,
                "subscriptions": stats.subscriptions,
            },
            queue_depths=p.bus.queue_depths(),
            slowest_spans=slowest,
            collectors=collectors,
            stores=stores,
            counts={
                "sec_rule_fires": len(p.sec.requests),
                "sec_events_seen": p.sec.events_seen,
                "actions_executed": len(p.actions.audit),
                "alerts": len(p.alerts.alerts),
            },
            partitions=partitions,
            shards=shards,
            chunk_cache=chunk_cache,
            disk=disk,
            analysis=analysis,
            health=health,
            ledger=ledger,
            freshness=fresh,
            executor=executor,
            serve=serve,
        )
