"""End-to-end monitoring pipeline: the system Table I specifies.

One :class:`MonitoringPipeline` wires together every layer against a
:class:`~repro.cluster.machine.Machine`:

  sources  — collectors on synchronized intervals (counters, SEDC,
             probes, benchmarks, health, queue, power, environment)
  events   — the ERD-analog router draining machine events, decoded by
             a Deluge-style tap
  transport— any :class:`~repro.transport.base.Transport` fanning data
             to *multiple consumers* (Table I: "direct the data and
             analysis results to multiple consumers"): the flat bus,
             the partitioned bus, or the LDMS-style aggregator tree
  storage  — TSDB (single or sharded) for numeric series, log store
             for events, job index for per-job extraction, relational
             store for jobs/tests
  response — SEC rule engine + action engine with alert dedup
  analysis — hooks that run user-supplied analyses on a cadence

The tick loop itself is a sequence of :class:`~repro.stages.Stage`
objects iterated under trace spans — each plane of the data path is a
swappable unit.  Every deployment knob (transport tier, store layout,
workers, cadences, quotas) is read from one
:class:`~repro.sites.config.SiteConfig`, so changing a data path is a
config edit (Table I: "Extensibility and modularity are fundamental").
:func:`~repro.sites.build.build_site` adds the machine, the default
collectors and the health gate around the same constructor.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .analysis.anomaly import Detection
from .cluster.machine import Machine
from .core.events import Event
from .core.ledger import BalanceReport, DeliveryLedger
from .core.lifecycle import Supervisor
from .core.metric import SeriesBatch
from .core.registry import MetricRegistry, default_registry
from .core.tracectx import HOP_INGEST
from .obs.freshness import FreshnessSLO, FreshnessTracker, default_slos
from .obs.introspect import PipelineIntrospector
from .obs.selfmetrics import SelfMonitor
from .obs.trace import Tracer
from .response.actions import ActionEngine, AlertManager
from .response.policy import default_sec_engine
from .response.sec import ActionRequest, SecEngine
from .runtime.executor import ExecutionModel, make_executor
from .serve.frontend import QueryFrontend
from .sites.config import SiteConfig
from .sources.base import CollectionScheduler, Collector
from .sources.benchmarks import BenchmarkSuite
from .sources.counters import (
    InjectionCollector,
    NetLinkCollector,
    NodeCounterCollector,
)
from .sources.environment import EnvironmentCollector
from .sources.erd import DelugeTap, EventRouter
from .sources.fsprobes import FsProbeCollector, OstCounterCollector
from .sources.health import HealthGate, NodeHealthSuite
from .sources.powermon import PowerCollector
from .sources.queuestats import QueueStatsCollector
from .sources.sedc import SedcCollector
from .stages import (
    AnalysisHooksStage,
    Stage,
    StreamingStage,
    default_stages,
    schedule_stages,
)
from .storage.diskier import DiskTier
from .storage.jobstore import JobIndex
from .storage.logstore import LogStore
from .storage.sharded import ShardedTimeSeriesStore
from .storage.sqlstore import SqlStore
from .storage.tsdb import TimeSeriesStore
from .transport.base import Transport, make_transport
from .viz.dashboard import Dashboard

__all__ = ["MonitoringPipeline", "default_collectors"]

AnalysisHook = Callable[["MonitoringPipeline", float], Sequence[Detection]]


def _build_store(config: SiteConfig):
    """The numeric-store tier ``config`` declares: K shards or one
    store, each with the out-of-core disk tier when ``store_dir`` is
    set."""
    if config.shards is not None:
        return ShardedTimeSeriesStore(
            shards=config.shards,
            chunk_size=config.chunk_size,
            pyramid_levels=config.pyramid_levels,
            disk_dir=config.store_dir,
            hot_bytes=config.hot_bytes,
        )
    disk = None
    if config.store_dir is not None:
        disk = DiskTier(config.store_dir, hot_bytes=config.hot_bytes)
    return TimeSeriesStore(
        chunk_size=config.chunk_size,
        pyramid_levels=config.pyramid_levels,
        disk=disk,
    )


class MonitoringPipeline:
    """The assembled end-to-end monitoring system over one machine.

    Every declarative knob (loop cadences, transport tier, store
    layout, worker count, tenant quotas, site name) is read from
    ``config``.  The keyword arguments are live objects; each one
    replaces the part the config would otherwise build.
    """

    #: build_site installs the CSCS health gate here when the config
    #: asks for one
    health_gate: HealthGate | None = None

    def __init__(
        self,
        machine: Machine,
        config: SiteConfig = SiteConfig(),
        *,
        collectors: Sequence[Collector] = (),
        transport: Transport | None = None,
        tsdb=None,
        executor: "ExecutionModel | int | str | None" = None,
        registry: MetricRegistry | None = None,
        sec: SecEngine | None = None,
        tracer: Tracer | None = None,
        stages: Sequence[Stage] | None = None,
        freshness_slos: Sequence[FreshnessSLO] | None = None,
    ) -> None:
        if tsdb is not None:
            if config.store_dir is not None:
                raise ValueError("pass either tsdb= or store_dir=, not both")
            if config.shards is not None:
                raise ValueError("pass either tsdb= or shards=, not both")
        if executor is not None and config.workers is not None:
            raise ValueError("pass either workers= or executor=, not both")
        self.machine = machine
        self.site_config = config
        # federation identity: non-empty when this stack is one site of
        # several in a process; namespaces the selfmon publisher and the
        # merged supervisor/ledger views (per-site surfaces stay local,
        # so a site federated with others reports identically to solo)
        self.site = config.name
        self.registry = registry or default_registry()
        self.tick_s = float(config.tick_s)

        # execution model: how the data-parallel planes run each tick.
        # Serial (the default) is today's behaviour, bit-identical;
        # a parallel executor fans collection / shard ingest / aggtree
        # coalescing across workers between tick barriers.
        self.executor: ExecutionModel = make_executor(
            executor if executor is not None else config.workers
        )
        # envelope staging buffer used by parallel_sweep: non-None only
        # while a parallel metric-plane sweep is routing store appends
        # through the shard-concurrent ingest path
        self._staged_ingest: list | None = None

        # transport and numeric store are pluggable tiers, built from
        # the config unless a live one is passed in
        self.bus: Transport = (
            transport if transport is not None
            else make_transport(config.transport)
        )
        self.tsdb = tsdb if tsdb is not None else _build_store(config)
        if self.executor.parallel:
            # transports that fan out internal work (aggtree leaf
            # coalescing) pick the executor up from this attribute
            self.bus.executor = self.executor
        self.logs = LogStore()
        self.jobs = JobIndex()
        self.sql = SqlStore()

        # supervised lifecycle + exact delivery accounting: every plane
        # reports into one Supervisor, every tracked point into one
        # DeliveryLedger (attached to the transport's publish edge and
        # the store's redo path)
        self.supervisor: Supervisor | None = (
            Supervisor() if config.supervision else None
        )
        self.ledger: DeliveryLedger | None = (
            DeliveryLedger() if config.supervision else None
        )
        if self.ledger is not None:
            self.bus.ledger = self.ledger
            self.tsdb.ledger = self.ledger

        # self-observability plane: span tracing + meta-metrics
        # identity check: an empty tracer is falsy (len == ring size),
        # and a disabled one must stay disabled
        self.tracer = tracer if tracer is not None else Tracer()
        self.scheduler = CollectionScheduler(
            self.bus, self.registry, tracer=self.tracer,
            supervisor=self.supervisor, budget_s=config.collector_budget_s,
        )
        for c in collectors:
            self.scheduler.add(c)

        # the freshness stamps and the serving governor read the sim
        # clock's slot directly: the stamp clock fires three times per
        # traced batch, so it skips two property descriptors
        # (Machine.now -> SimClock.now)
        try:
            sim = self.machine.clock
            sim._now
            clock = lambda c=sim: c._now   # noqa: E731
        except AttributeError:             # custom machine/clock
            clock = lambda: self.machine.now   # noqa: E731

        # freshness plane: collectors open a trace context per batch,
        # transports and the store stamp their hop edges against the
        # simulated clock, _on_metric folds the finished journey
        self.ticks = 0
        self.freshness: FreshnessTracker | None = None
        if config.freshness:
            slos = (list(freshness_slos) if freshness_slos is not None
                    else default_slos(self.tick_s))
            self.freshness = FreshnessTracker(
                slos=slos, tier=type(self.bus).__name__
            )
            self.bus.clock = clock
            try:
                self.tsdb.clock = clock
            except AttributeError:      # slotted custom store
                pass
            self.scheduler.trace_batches = True

        # serving plane: the multi-tenant read path every dashboard-shaped
        # consumer goes through (pipeline.dashboard() reads via this);
        # the governor runs on the simulated clock so quota behavior is
        # deterministic in scenarios and tests
        self.frontend = QueryFrontend(self.tsdb, quotas=config.quotas,
                                      clock=clock)

        self.router = EventRouter()
        self.tap = self.router.attach(DelugeTap())

        self.sec = sec or default_sec_engine()
        self.alerts = AlertManager(renotify_s=config.renotify_s)
        self.actions = ActionEngine(machine, self.alerts)

        # the tick loop: stages ordered by their declared data
        # dependencies (declaration order breaks ties, so the default
        # set schedules into the historic Table I order)
        self.stages: list[Stage] = schedule_stages(
            list(stages) if stages is not None else default_stages()
        )
        self._pending_requests: list[ActionRequest] = []
        # supervision component names, built lazily (hot loop: no
        # per-tick string formatting)
        self._stage_keys: dict[str, str] = {}

        # metric fan-out: one subscription stores everything numeric;
        # selfmon.* meta-metrics ride the same path into the same TSDB
        self.bus.subscribe(
            "metrics.*", callback=self._on_metric, name="tsdb-ingest"
        )
        self.bus.subscribe(
            "selfmon.*", callback=self._on_metric, name="selfmon-ingest"
        )
        self.bus.subscribe(
            "events.*", callback=self._on_event, name="log-ingest"
        )

        self.selfmon: SelfMonitor | None = None
        if config.selfmon_interval_s is not None:
            self.selfmon = SelfMonitor(
                self, interval_s=config.selfmon_interval_s,
                source=f"{self.site}/selfmon" if self.site else "selfmon",
            )
            self.selfmon.verify_registered(self.registry)

    # -- bus sinks ---------------------------------------------------------------

    def _on_metric(self, env) -> None:
        payload = env.payload
        if not isinstance(payload, SeriesBatch):
            return
        staged = self._staged_ingest
        if staged is not None:
            # parallel metric-plane sweep in progress: park the
            # envelope; _ingest_staged appends shard-concurrently at
            # the barrier and applies the identical ledger/freshness
            # accounting in publish order
            staged.append(env)
            return
        try:
            stored = self.tsdb.append(payload)
        except Exception as exc:
            # a raising store degrades the tick, never kills ingest of
            # later batches; the points become accounted loss
            self._account_store_error(env.topic, payload, exc)
            return
        self._account_stored(env.topic, payload, stored)

    def _account_store_error(self, topic, payload, exc) -> None:
        """Ledger + supervision accounting for one failed store append."""
        ledger = self.ledger
        if ledger is not None and ledger.tracks(topic):
            ledger.lost_batch("store-error", payload)
        if self.supervisor is not None:
            self.supervisor.record(
                "store", False, self.machine.now,
                reason=f"append raised {type(exc).__name__}",
            )

    def _account_stored(self, topic, payload, stored: int) -> None:
        """Ledger + freshness accounting for one successful append."""
        ledger = self.ledger
        if ledger is not None and ledger.tracks(topic):
            ledger.stored_batch(payload, stored)
            # points the store neither stored nor parked in a redo
            # buffer (single-store partial ingest) would surface here
            # as unaccounted; the sharded store defers the difference,
            # so nothing extra to stamp
        fr = self.freshness
        if fr is not None:
            ctx = payload.trace
            if ctx is not None:
                if not ctx.hops or ctx.hops[-1][0] != HOP_INGEST:
                    # custom store without a clock hook: stamp
                    # queryable-at here so the journey still closes
                    ctx.stamp(HOP_INGEST, self.machine.now)
                stack = self.tracer._stack
                fr.record(payload, span=stack[-1].name if stack else "")

    def _on_event(self, env) -> None:
        payload = env.payload
        if isinstance(payload, Event):
            self.logs.append(payload)

    # -- parallel metric plane ---------------------------------------------------

    def parallel_sweep(self, now: float, executor: ExecutionModel):
        """One metric-plane sweep with worker fan-out at both ends.

        Collection fans out inside :meth:`CollectionScheduler.poll`;
        store appends are *staged* — ``_on_metric`` parks each delivered
        envelope instead of appending inline — and executed
        shard-concurrently at the barrier when the store supports it
        (``append_parallel``).  All ledger, supervision, and freshness
        accounting happens here afterwards, in publish order, so the
        totals are identical to the serial path.
        """
        if hasattr(self.tsdb, "append_parallel"):  # probe: allowed sharded only
            self._staged_ingest = []
        try:
            collected = self.scheduler.poll(
                self.machine, now, tick=self.ticks, executor=executor
            )
            self.bus.pump(now)
        finally:
            staged, self._staged_ingest = self._staged_ingest, None
        if staged:
            self._ingest_staged(staged, executor)
        return collected

    def _ingest_staged(self, staged, executor: ExecutionModel) -> None:
        """Append the staged envelopes shard-concurrently, then account.

        ``append_parallel`` preserves per-shard append order (every
        series lives on exactly one shard, and each shard consumes its
        pieces in publish order), so query results match the serial
        path; the accounting loop below runs in publish order, so the
        ledger and freshness totals match too.
        """
        results = self.tsdb.append_parallel(
            [env.payload for env in staged], executor
        )
        for env, res in zip(staged, results):
            if isinstance(res, BaseException):
                self._account_store_error(env.topic, env.payload, res)
            else:
                self._account_stored(env.topic, env.payload, res)

    # -- stage access ---------------------------------------------------------------

    def stage(self, name: str) -> Stage:
        """Look up an installed stage by its span name."""
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(
            f"no stage named {name!r}; installed: "
            f"{[s.name for s in self.stages]}"
        )

    def take_pending(self) -> list[ActionRequest]:
        """Drain the requests accumulated by earlier stages this tick."""
        out = self._pending_requests
        self._pending_requests = []
        return out

    # -- analysis hooks ---------------------------------------------------------------

    def add_analysis(self, interval_s: float, hook: AnalysisHook) -> None:
        """Run ``hook(pipeline, now)`` every ``interval_s``; returned
        detections flow through the response policy into actions."""
        stage = self.stage("analysis-hooks")
        assert isinstance(stage, AnalysisHooksStage)
        stage.add(interval_s, hook)

    def add_streaming(self, detector, pattern: str = "metrics.*"):
        """Attach a streaming analysis operator (Table I's "streaming"
        analysis location): it observes every matching batch at ingest,
        and any detections it queues drain into the response path each
        tick.  Detector names are uniquified before attaching, so the
        per-detector ``selfmon.analysis.*`` gauges stay unambiguous when
        two detectors of the same class are installed."""
        stage = self.stage("streaming")
        assert isinstance(stage, StreamingStage)
        base = getattr(detector, "name", type(detector).__name__)  # probe: allowed user code
        taken = {getattr(d, "name", "") for d in stage.detectors}  # probe: allowed user code
        name, k = base, 2
        while name in taken:
            name = f"{base}-{k}"
            k += 1
        try:
            detector.name = name
        except AttributeError:     # read-only / slotted custom detector
            pass
        detector.attach(self.bus, pattern)
        stage.detectors.append(detector)
        return detector

    # -- main loop -------------------------------------------------------------------------

    def step(self, dt: float | None = None) -> None:
        """Advance the machine one tick and run the monitoring plane.

        The tick body lives on the installed execution model
        (:meth:`~repro.runtime.executor.ExecutionModel.run_tick`): the
        stage loop itself always runs serially under trace spans, and
        parallel executors fan out inside the data-parallel planes,
        synchronizing at the tick barrier.
        """
        self.executor.run_tick(self, self.tick_s if dt is None else dt)

    def run(
        self,
        duration_s: float | None = None,
        hours: float | None = None,
        dt: float | None = None,
    ) -> None:
        if (duration_s is None) == (hours is None):
            raise ValueError("pass exactly one of duration_s or hours")
        total = duration_s if duration_s is not None else hours * 3600.0
        end = self.machine.now + total
        while self.machine.now < end - 1e-9:
            self.step(dt)

    # -- supervision / accounting surfaces ------------------------------------------------------

    def delivery_report(self) -> BalanceReport | None:
        """Reconcile the ledger against live pending/in-flight gauges.

        ``pending`` is whatever is parked in the store's redo buffers,
        ``in_flight`` whatever sits in transport queues/windows — after
        ``bus.flush()`` with all shards recovered, both are zero and the
        identity collapses to ``published == stored + accounted_lost``.
        """
        if self.ledger is None:
            return None
        return self.ledger.balance(
            pending=self.tsdb.redo_pending_points(),
            in_flight=self.bus.in_flight_points(),
        )

    def health_report(self) -> dict[str, dict]:
        """Per-component supervision summary (empty when unsupervised)."""
        if self.supervisor is None:
            return {}
        return self.supervisor.report()

    # -- convenience surfaces -------------------------------------------------------------------

    def dashboard(self) -> Dashboard:
        # viz reads go through the serving plane: cached, planned,
        # quota-accounted — and provably identical to direct store reads
        return Dashboard(self.frontend)

    def active_alerts(self):
        return self.alerts.active()

    def overhead_report(self) -> dict:
        return self.scheduler.overhead_report()

    def introspect(self) -> PipelineIntrospector:
        """Health-report view over the monitoring plane itself."""
        return PipelineIntrospector(self)


def default_collectors(
    machine: Machine,
    metric_interval_s: float = 60.0,
    probe_interval_s: float = 60.0,
    bench_interval_s: float = 600.0,
    health_interval_s: float = 600.0,
    seed: int = 0,
) -> list[Collector]:
    """The full collector complement the sites describe."""
    return [
        NodeCounterCollector(metric_interval_s),
        InjectionCollector(metric_interval_s),
        NetLinkCollector(metric_interval_s),
        SedcCollector(metric_interval_s),
        PowerCollector(machine, metric_interval_s),
        FsProbeCollector(probe_interval_s),
        OstCounterCollector(probe_interval_s),
        QueueStatsCollector(metric_interval_s),
        EnvironmentCollector(max(probe_interval_s, 300.0)),
        BenchmarkSuite(interval_s=bench_interval_s, seed=seed),
        NodeHealthSuite(interval_s=health_interval_s),
    ]
