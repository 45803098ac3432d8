"""Meta-metrics: the stack's own vitals as ordinary telemetry.

DCDB (Netti et al.) treats the monitoring system's own overhead and
throughput as first-class monitoring data.  :class:`SelfMonitor` does
the same here: on a configurable cadence it samples the pipeline's
vitals — bus publish/deliver/drop rates and callback errors,
per-subscription queue depth, per-collector sweep-latency percentiles,
TSDB ingest rate and resident points, LogStore/SqlStore sizes, SEC
rule-fire and action-execution counts, and the pipeline tick time —
and publishes them as ordinary :class:`~repro.core.metric.SeriesBatch`es
on ``selfmon.*`` topics.

Every component's counters are read once per emission by
:func:`read_vitals`; the gauges are one ordered table over that read
(:data:`GAUGES`), and :class:`~repro.obs.introspect.PipelineIntrospector`
builds its health report from the same read.  Because the gauges ride
the same bus, they land in the same TSDB, dashboards, streaming
detectors, and analysis hooks as machine telemetry: the monitoring
plane is monitored by itself, with no parallel plumbing.  Unit, class
and meaning of every name live in :mod:`repro.core.registry` so the
``verify_registered`` discipline covers the self-monitoring plane too.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING

import numpy as np

from ..core.metric import SeriesBatch, component_array
from ..core.registry import MetricRegistry
from ..core.tracectx import TraceContext

if TYPE_CHECKING:  # pragma: no cover
    from ..core.ledger import BalanceReport
    from ..obs.freshness import FreshnessTracker
    from ..pipeline import MonitoringPipeline
    from ..serve.frontend import ServeStats
    from ..storage.chunkcache import ChunkCacheStats
    from ..storage.diskier import DiskTierStats
    from ..storage.tsdb import StoreStats
    from ..transport.base import BusStats

__all__ = [
    "GAUGES",
    "SELFMON_METRICS",
    "SelfMonitor",
    "Vitals",
    "completeness_ratio",
    "read_vitals",
]


def completeness_ratio(delivered: int, dropped: int, errors: int) -> float:
    """Data-path completeness: fraction of attempted deliveries that
    reached (or still await) a consumer.

    ``delivered`` counts successful hand-offs (callback returned, or the
    envelope was enqueued); ``dropped`` counts envelopes later evicted
    by the drop-oldest policy; ``errors`` counts callback raises.  Under
    no-drop, no-error conditions the ratio is exactly 1.0.
    """
    attempted = delivered + errors
    if attempted <= 0:
        return 1.0
    return (delivered - dropped) / attempted


@dataclass(slots=True)
class Vitals:
    """One read of every component's counters.

    Single-valued planes are the stats objects the components expose
    (``None`` when the plane is absent); per-component planes are dicts
    keyed by the label their gauges publish under (empty when absent).
    """

    bus: "BusStats"
    completeness: float
    queue_depths: dict[str, int]
    partition_depths: dict[str, int]
    partition_drops: dict[str, int]
    leaf_depths: dict[str, int]
    collectors: list
    #: per timed collector: p50/p95/max sweep latency (ms) and sweeps
    collector_latency: dict[str, dict[str, float]]
    store: "StoreStats"
    #: per shard: points/series/bytes (empty for the single store)
    shards: dict[str, dict[str, float]]
    cache: "ChunkCacheStats"
    disk: "DiskTierStats | None"
    log_events: int
    sql_bytes: int
    sec_rule_fires: int
    sec_events_seen: int
    actions_executed: int
    alerts: int
    #: per streaming detector: batches/samples/detections
    detectors: dict[str, dict[str, float]]
    #: per timed streaming detector: p50/p95/max latency (ms)
    detector_latency: dict[str, dict[str, float]]
    #: supervised component -> health code (sorted by name)
    health: dict[str, int]
    transitions: int | None
    balance: "BalanceReport | None"
    #: the freshness tracker once it has folded a traced batch
    freshness: "FreshnessTracker | None"
    e2e: dict[str, float] | None
    hops: dict[str, dict[str, float]]
    slos: dict[str, dict]
    #: execution-model snapshot, keyed by the executor's name
    executor: dict[str, dict]
    serve: "ServeStats"
    #: (count, total_s) of the tracer's root ``tick`` spans
    tick: tuple[int, float] | None
    trace_dropped: int


def _latency_ms(hist) -> dict[str, float]:
    s = hist.summary()
    return {
        "p50_ms": 1000.0 * s["p50_s"],
        "p95_ms": 1000.0 * s["p95_s"],
        "max_ms": 1000.0 * s["max_s"],
    }


def read_vitals(p: "MonitoringPipeline") -> Vitals:
    """Read every component's counters once (direct attribute access)."""
    bus = p.bus
    stats = bus.stats()
    latency = p.scheduler.latency
    collectors = p.scheduler.collectors
    collector_latency = {}
    for c in collectors:
        hist = latency.get(c.name)
        if hist is not None and len(hist):
            entry = _latency_ms(hist)
            entry["sweeps"] = float(c.sweeps)
            collector_latency[c.name] = entry
    tsdb = p.tsdb
    shards = {
        f"shard-{i}": {
            "points": float(s.samples),
            "series": float(s.series),
            "bytes": float(s.compressed_bytes),
        }
        for i, s in enumerate(tsdb.per_shard_stats())
    }
    detectors, detector_latency = {}, {}
    for stage in p.stages:
        if stage.name == "streaming":
            for d in stage.detectors:
                detectors[d.name] = {
                    "batches": float(d.batches_observed),
                    "samples": float(d.samples_observed),
                    "detections": float(d.detections_total),
                }
                if len(d.latency):
                    detector_latency[d.name] = _latency_ms(d.latency)
    sup = p.supervisor
    supervised = sup is not None and bool(sup.components)
    health = ({n: sup.components[n].health.code for n in sorted(sup.components)}
              if supervised else {})
    fr = p.freshness
    if fr is None or not fr.batches:
        fr = None
    ex = p.executor
    return Vitals(
        bus=stats,
        completeness=completeness_ratio(
            stats.delivered, stats.dropped, stats.errors),
        queue_depths=stats.queue_depths,
        partition_depths=bus.partition_depths(),
        partition_drops=bus.partition_drops(),
        leaf_depths=bus.leaf_depths(),
        collectors=collectors,
        collector_latency=collector_latency,
        store=tsdb.stats(),
        shards=shards,
        cache=tsdb.cache_stats(),
        disk=tsdb.disk_stats(),
        log_events=len(p.logs),
        sql_bytes=p.sql.footprint_bytes(),
        sec_rule_fires=len(p.sec.requests),
        sec_events_seen=p.sec.events_seen,
        actions_executed=len(p.actions.audit),
        alerts=len(p.alerts.alerts),
        detectors=detectors,
        detector_latency=detector_latency,
        health=health,
        transitions=len(sup.transitions) if supervised else None,
        balance=p.delivery_report(),
        freshness=fr,
        e2e=fr.e2e.summary() if fr is not None else None,
        hops=fr.hop_summaries() if fr is not None else {},
        slos=({s["name"]: s for s in fr.slo_status()}
              if fr is not None else {}),
        executor={ex.name: ex.snapshot()},
        serve=p.frontend.stats(),
        tick=p.tracer.snapshot_counts().get("tick"),
        trace_dropped=p.tracer.dropped,
    )


LEVEL, RATE, TICK_MS = "level", "rate", "tick-ms"

#: The selfmon gauge table, in emission order:
#: ``(metric, source, component, kind)``.  ``source`` is a
#: :class:`Vitals` field, optionally followed by ``.field`` of it; a
#: ``None`` component fans a per-component field out into one sample
#: per key (``.field`` then picks from each record; fan-outs are
#: levels).  An absent (``None``) or empty source publishes nothing.
#: ``LEVEL`` publishes the value, ``RATE`` its change per second since
#: the last emission, ``TICK_MS`` the mean tick wall time (ms) since
#: then.
GAUGES: tuple[tuple[str, str, str | None, str], ...] = (
    ("selfmon.bus.publish_rate", "bus.published", "bus", RATE),
    ("selfmon.bus.deliver_rate", "bus.delivered", "bus", RATE),
    ("selfmon.bus.drop_rate", "bus.dropped", "bus", RATE),
    ("selfmon.bus.dropped", "bus.dropped", "bus", LEVEL),
    ("selfmon.bus.errors", "bus.errors", "bus", LEVEL),
    ("selfmon.bus.completeness", "completeness", "bus", LEVEL),
    ("selfmon.bus.queue_depth", "queue_depths", None, LEVEL),
    ("selfmon.bus.partition_depth", "partition_depths", None, LEVEL),
    ("selfmon.bus.partition_dropped", "partition_drops", None, LEVEL),
    ("selfmon.bus.partition_depth", "leaf_depths", None, LEVEL),
    ("selfmon.collector.sweep_p50_ms", "collector_latency.p50_ms", None, LEVEL),
    ("selfmon.collector.sweep_p95_ms", "collector_latency.p95_ms", None, LEVEL),
    ("selfmon.collector.sweep_max_ms", "collector_latency.max_ms", None, LEVEL),
    ("selfmon.collector.sweeps", "collector_latency.sweeps", None, LEVEL),
    ("selfmon.store.tsdb_ingest_rate", "store.samples", "tsdb", RATE),
    ("selfmon.store.tsdb_points", "store.samples", "tsdb", LEVEL),
    ("selfmon.store.tsdb_bytes", "store.compressed_bytes", "tsdb", LEVEL),
    ("selfmon.store.shard_points", "shards.points", None, LEVEL),
    ("selfmon.store.shard_series", "shards.series", None, LEVEL),
    ("selfmon.store.shard_bytes", "shards.bytes", None, LEVEL),
    ("selfmon.store.cache_hits", "cache.hits", "chunk-cache", LEVEL),
    ("selfmon.store.cache_misses", "cache.misses", "chunk-cache", LEVEL),
    ("selfmon.store.cache_evictions", "cache.evictions", "chunk-cache", LEVEL),
    ("selfmon.store.cache_bytes", "cache.bytes", "chunk-cache", LEVEL),
    ("selfmon.store.disk_bytes", "disk.disk_bytes", "disk-tier", LEVEL),
    ("selfmon.store.disk_hot_bytes", "disk.hot_bytes", "disk-tier", LEVEL),
    ("selfmon.store.disk_spill_rate", "disk.spills", "disk-tier", RATE),
    ("selfmon.store.disk_load_rate", "disk.loads", "disk-tier", RATE),
    ("selfmon.store.disk_map_hits", "disk.map_hits", "disk-tier", LEVEL),
    ("selfmon.store.log_events", "log_events", "logstore", LEVEL),
    ("selfmon.store.sql_bytes", "sql_bytes", "sqlstore", LEVEL),
    ("selfmon.sec.rule_fires", "sec_rule_fires", "sec", LEVEL),
    ("selfmon.sec.events_seen", "sec_events_seen", "sec", LEVEL),
    ("selfmon.actions.executed", "actions_executed", "actions", LEVEL),
    ("selfmon.analysis.batches", "detectors.batches", None, LEVEL),
    ("selfmon.analysis.detections", "detectors.detections", None, LEVEL),
    ("selfmon.analysis.sweep_p50_ms", "detector_latency.p50_ms", None, LEVEL),
    ("selfmon.analysis.sweep_p95_ms", "detector_latency.p95_ms", None, LEVEL),
    ("selfmon.analysis.sweep_max_ms", "detector_latency.max_ms", None, LEVEL),
    ("selfmon.health.state", "health", None, LEVEL),
    ("selfmon.health.transitions", "transitions", "supervisor", LEVEL),
    ("selfmon.ledger.published_points", "balance.published", "ledger", LEVEL),
    ("selfmon.ledger.stored_points", "balance.stored", "ledger", LEVEL),
    ("selfmon.ledger.lost_points", "balance.lost", "ledger", LEVEL),
    ("selfmon.ledger.pending_points", "balance.pending", "ledger", LEVEL),
    ("selfmon.ledger.inflight_points", "balance.in_flight", "ledger", LEVEL),
    ("selfmon.ledger.unaccounted_points", "balance.unaccounted", "ledger",
     LEVEL),
    ("selfmon.freshness.e2e_p50_s", "e2e.p50_s", "freshness", LEVEL),
    ("selfmon.freshness.e2e_p99_s", "e2e.p99_s", "freshness", LEVEL),
    ("selfmon.freshness.e2e_max_s", "e2e.max_s", "freshness", LEVEL),
    ("selfmon.freshness.batches", "freshness.batches", "freshness", LEVEL),
    ("selfmon.freshness.hop_mean_s", "hops.mean_s", None, LEVEL),
    ("selfmon.freshness.hop_p99_s", "hops.p99_s", None, LEVEL),
    ("selfmon.freshness.slo_burn_rate", "slos.burn_rate", None, LEVEL),
    ("selfmon.freshness.slo_breaches", "slos.breaches", None, LEVEL),
    ("selfmon.exec.busy_fraction", "executor.busy_fraction", None, LEVEL),
    ("selfmon.exec.barrier_wait_ms", "executor.barrier_wait_ms", None, LEVEL),
    ("selfmon.exec.handoff_depth", "executor.handoff_depth", None, LEVEL),
    ("selfmon.trace.dropped", "trace_dropped", "tracer", LEVEL),
    ("selfmon.serve.qps", "serve.queries", "frontend", RATE),
    ("selfmon.serve.queries", "serve.queries", "frontend", LEVEL),
    ("selfmon.serve.rejected", "serve.rejected", "frontend", LEVEL),
    ("selfmon.serve.cache_hit_ratio", "serve.cache_hit_ratio", "result-cache",
     LEVEL),
    ("selfmon.serve.cache_bytes", "serve.cache.bytes", "result-cache", LEVEL),
    ("selfmon.serve.pyramid_answers", "serve.pyramid_answers", "planner",
     LEVEL),
    ("selfmon.serve.raw_answers", "serve.raw_answers", "planner", LEVEL),
    ("selfmon.pipeline.tick_ms", "tick", "pipeline", TICK_MS),
)

#: every metric the self-monitoring plane publishes (registry contract)
SELFMON_METRICS: tuple[str, ...] = tuple(dict.fromkeys(g[0] for g in GAUGES))


def _compile(source: str, fan_out: bool):
    """``"section.field"`` -> (section getter, field reader).

    Fan-out records are dicts; a fixed row's section is a stats object,
    or a dict where :class:`Vitals` declares one.  The reader is the
    identity when the source names a whole section.
    """
    section, _, field = source.partition(".")
    if not field:
        return attrgetter(section), lambda x: x
    keyed = fan_out or Vitals.__annotations__[section].startswith("dict")
    return attrgetter(section), (itemgetter if keyed else attrgetter)(field)


#: GAUGES with sources compiled: (metric, section, read, components,
#: kind).  A fixed component label becomes one read-only array reused by
#: every emission, so the store's per-array memos hit on selfmon batches
#: as they do on collector sweeps.
_COMPILED = tuple(
    (metric, *_compile(source, component is None),
     None if component is None else component_array([component]), kind)
    for metric, source, component, kind in GAUGES
)


class SelfMonitor:
    """Samples the pipeline's vitals on a cadence and publishes them."""

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
        #: counter baselines of the RATE/TICK_MS gauges, by gauge index
        self._prev: dict[int, float | tuple[int, float]] = {}

    def verify_registered(self, registry: MetricRegistry) -> None:
        """Fail fast if any self-metric is undocumented (Table I)."""
        for m in self.metrics:
            registry.get(m)

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
        traced = p.freshness is not None
        for b in batches:
            if traced:
                # the selfmon plane's own batches are freshness-traced
                # too — meta-metrics get the same timeliness guarantee
                b.trace = TraceContext.start(now, tick=p.ticks)
            bus.publish(b.metric, b, source=self.source)
        self.emissions += 1
        return batches

    def _baseline(self, now: float) -> None:
        v = read_vitals(self.pipeline)
        for i, (_, section, read, _, kind) in enumerate(_COMPILED):
            if kind is not LEVEL:
                sec = section(v)
                if sec is not None:
                    self._prev[i] = read(sec)
        self._last_t = now
        self._next_due = now + self.interval_s

    # -- one sweep ---------------------------------------------------------

    def sample(self, now: float, elapsed_s: float) -> list[SeriesBatch]:
        """Build (without publishing) one full self-metric sweep.

        The counters read here also become the next baseline — one
        stats walk per cadence, not two.
        """
        v = read_vitals(self.pipeline)
        elapsed = max(float(elapsed_s), 1e-9)
        prev = self._prev
        sweep = SeriesBatch.sweep
        # every one-component batch of this sweep shares one read-only
        # timestamp array
        at = np.full(1, float(now))
        at.flags.writeable = False
        out: list[SeriesBatch] = []
        for i, (metric, section, read, components, kind) in enumerate(
                _COMPILED):
            sec = section(v)
            if sec is None or (components is None and not sec):
                continue
            if components is None:
                out.append(sweep(metric, now, list(sec),
                                 [float(read(r)) for r in sec.values()]))
                continue
            value = read(sec)
            if kind is RATE:
                prev[i], value = value, (value - prev.get(i, 0)) / elapsed
            elif kind is TICK_MS:
                count, total = prev.get(i, (0, 0.0))
                prev[i] = value
                if value[0] - count <= 0:
                    continue
                value = 1000.0 * (value[1] - total) / (value[0] - count)
            out.append(SeriesBatch(metric, components, at, [float(value)]))
        self._last_t = now
        self._next_due = now + self.interval_s
        return out
