"""Monitor-side fault injection: breaking the monitoring system itself.

:mod:`repro.cluster.faults` injects *machine* conditions so detectors
can be tested against ground truth.  This module injects faults into
the *monitoring pipeline* — a raising collector, a hung (over-budget)
collector, dropped or duplicated transport deliveries, a failed TSDB
shard — so the supervised lifecycle (:mod:`repro.core.lifecycle`) and
the delivery ledger (:mod:`repro.core.ledger`) can be exercised with
known ground truth: the paper's sites report silent syslog/LDMS loss as
a top pain point precisely because nothing ever *tested* the monitoring
plane's failure modes.

:class:`MonitorFault` mirrors the machine-fault idiom (active over
``[start, start + duration)``, ``apply``/``revert``), but targets a
:class:`~repro.pipeline.MonitoringPipeline`.  The
:class:`MonitorFaultInjector` steps the schedule each tick, *before*
``pipeline.step`` — injection is part of the experiment loop, not a
pipeline stage.

:class:`ChaosTransport` wraps any transport with deterministic drop and
duplicate injection.  Drops are stamped on the ledger as accounted loss
(``chaos-drop``); duplicates are delivered through the inner transport
(stamped ``published`` twice there) with the extra copy recorded on the
diagnostic ``duplicated`` counter, so the balance identity holds under
both fault kinds.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from ..core.metric import SeriesBatch
from ..transport.base import BusStats, Subscription, Transport

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline import MonitoringPipeline

__all__ = [
    "ChaosTransport",
    "MonitorFault",
    "CollectorRaise",
    "CollectorHang",
    "TransportDropStorm",
    "TransportDuplication",
    "TransportStall",
    "ShardOutage",
    "StoreCrash",
    "crash_and_recover",
    "MonitorFaultInjector",
]


class ChaosTransport(Transport):
    """Transport wrapper injecting deterministic delivery faults.

    ``drop_every=N`` swallows every Nth tracked batch publish (counted
    and ledger-stamped as ``chaos-drop`` loss); ``duplicate_every=M``
    publishes every Mth tracked batch twice.  Both default to off; the
    drop/duplicate fault objects toggle them over their windows.
    Determinism on purpose: same seed, same losses, same ledger.
    """

    def __init__(self, inner: Transport) -> None:
        self.inner = inner
        self.drop_every = 0        # 0 = off
        self.duplicate_every = 0   # 0 = off
        self.stall_pumps = False   # freeze delivery (backlog builds)
        self._publish_count = 0
        self.chaos_dropped = 0
        self.chaos_duplicated = 0

    # the pipeline assigns `bus.ledger = ...`; forward it to the inner
    # transport, whose publish edge does the actual stamping
    @property
    def ledger(self):
        return self.inner.ledger

    @ledger.setter
    def ledger(self, value) -> None:
        self.inner.ledger = value

    # same forwarding for the freshness clock and the parallel
    # executor: Transport declares both as class attributes, so without
    # these properties the pipeline's assignment would land on the
    # wrapper (shadowing __getattr__) and the inner transport would
    # never see it
    @property
    def clock(self):
        return self.inner.clock

    @clock.setter
    def clock(self, value) -> None:
        self.inner.clock = value

    @property
    def executor(self):
        return self.inner.executor

    @executor.setter
    def executor(self, value) -> None:
        self.inner.executor = value

    def subscribe(
        self,
        pattern: str,
        callback: Callable | None = None,
        maxlen: int | None = None,
        name: str = "",
    ) -> Subscription:
        return self.inner.subscribe(pattern, callback, maxlen, name)

    def unsubscribe(self, sub: Subscription) -> None:
        self.inner.unsubscribe(sub)

    def publish(self, topic: str, payload, source: str = "") -> int:
        target = (isinstance(payload, SeriesBatch)
                  and (self.drop_every > 0 or self.duplicate_every > 0))
        if target:
            self._publish_count += 1
            if (self.drop_every > 0
                    and self._publish_count % self.drop_every == 0):
                self.chaos_dropped += 1
                ledger = self.inner.ledger
                if ledger is not None and ledger.tracks(topic):
                    # the producer believes it published; account the
                    # point as published-then-lost, never as silence
                    ledger.published_batch(source, payload)
                    ledger.lost_batch("chaos-drop", payload)
                return 0
            if (self.duplicate_every > 0
                    and self._publish_count % self.duplicate_every == 0):
                self.chaos_duplicated += 1
                ledger = self.inner.ledger
                if ledger is not None and ledger.tracks(topic):
                    ledger.duplicated_batch(payload)
                self.inner.publish(topic, payload, source)
        return self.inner.publish(topic, payload, source)

    def pump(self, now: float | None = None) -> int:
        if self.stall_pumps:
            return 0           # delivery frozen: backlog accumulates
        return self.inner.pump(now)

    def stats(self) -> BusStats:
        """Inner stats with injected drops folded into ``dropped`` —
        from the pipeline's perspective a chaos drop *is* a transport
        drop, so supervision sees the storm."""
        inner = self.inner.stats()
        if self.chaos_dropped == 0:
            return inner
        return replace(inner, dropped=inner.dropped + self.chaos_dropped)

    def queue_depths(self) -> dict[str, int]:
        return self.inner.queue_depths()

    def in_flight_points(self) -> int:
        return self.inner.in_flight_points()

    def partition_depths(self) -> dict[str, int]:
        return self.inner.partition_depths()

    def partition_drops(self) -> dict[str, int]:
        return self.inner.partition_drops()

    def leaf_depths(self) -> dict[str, int]:
        return self.inner.leaf_depths()

    def __getattr__(self, name: str):
        # transport-specific surfaces (match_cache_info, partition_of,
        # ...) pass through to the wrapped transport
        return getattr(self.inner, name)


@dataclass
class MonitorFault:
    """Base monitor fault: active over [start, start + duration)."""

    start: float
    duration: float | None = None
    name: str = "monitor-fault"
    target: str = ""

    applied: bool = field(default=False, init=False)
    reverted: bool = field(default=False, init=False)

    def apply(self, p: "MonitoringPipeline") -> None:  # pragma: no cover
        raise NotImplementedError

    def revert(self, p: "MonitoringPipeline") -> None:
        """Default: nothing to undo."""

    def active_at(self, t: float) -> bool:
        if t < self.start:
            return False
        return self.duration is None or t < self.start + self.duration


def _find_collector(p: "MonitoringPipeline", name: str):
    for c in p.scheduler.collectors:
        if c.name == name:
            return c
    raise KeyError(
        f"no collector named {name!r}; installed: "
        f"{[c.name for c in p.scheduler.collectors]}"
    )


@dataclass
class CollectorRaise(MonitorFault):
    """Make one collector raise on every sweep during the window."""

    name: str = "collector-raise"
    _orig: Callable = field(default=None, init=False, repr=False)

    def apply(self, p):
        c = _find_collector(p, self.target)
        self._orig = c.collect

        def broken(machine, now):
            raise RuntimeError(
                f"injected fault: collector {c.name} is broken"
            )

        c.collect = broken

    def revert(self, p):
        _find_collector(p, self.target).collect = self._orig


@dataclass
class CollectorHang(MonitorFault):
    """Make one collector stall past the sweep budget (hang signature).

    The stall is a real (tiny) wall-clock sleep so the scheduler's
    ``budget_s`` over-budget detection fires; pair with a pipeline built
    with a smaller ``collector_budget_s``.
    """

    name: str = "collector-hang"
    stall_s: float = 0.02
    _orig: Callable = field(default=None, init=False, repr=False)

    def apply(self, p):
        c = _find_collector(p, self.target)
        self._orig = c.collect
        stall, orig = self.stall_s, self._orig

        def hanging(machine, now):
            _time.sleep(stall)
            return orig(machine, now)

        c.collect = hanging

    def revert(self, p):
        _find_collector(p, self.target).collect = self._orig


@dataclass
class TransportDropStorm(MonitorFault):
    """Drop every Nth tracked batch at the transport edge."""

    name: str = "transport-drop-storm"
    drop_every: int = 3

    def apply(self, p):
        if not isinstance(p.bus, ChaosTransport):
            raise TypeError(
                "TransportDropStorm needs the pipeline built over a "
                "ChaosTransport wrapper"
            )
        p.bus.drop_every = self.drop_every

    def revert(self, p):
        p.bus.drop_every = 0


@dataclass
class TransportDuplication(MonitorFault):
    """Deliver every Nth tracked batch twice."""

    name: str = "transport-duplication"
    duplicate_every: int = 5

    def apply(self, p):
        if not isinstance(p.bus, ChaosTransport):
            raise TypeError(
                "TransportDuplication needs the pipeline built over a "
                "ChaosTransport wrapper"
            )
        p.bus.duplicate_every = self.duplicate_every

    def revert(self, p):
        p.bus.duplicate_every = 0


@dataclass
class TransportStall(MonitorFault):
    """Freeze pumps: nothing is lost, everything arrives *late*.

    The backlog sits in the inner transport's queues as ledger
    ``in_flight`` (the balance identity keeps holding); on revert the
    flood of stale batches lands with hop latencies up to the stall
    duration — the freshness-SLO breach signature, as opposed to the
    loss signature of :class:`TransportDropStorm`.
    """

    name: str = "transport-stall"

    def apply(self, p):
        if not isinstance(p.bus, ChaosTransport):
            raise TypeError(
                "TransportStall needs the pipeline built over a "
                "ChaosTransport wrapper"
            )
        p.bus.stall_pumps = True

    def revert(self, p):
        p.bus.stall_pumps = False


@dataclass
class ShardOutage(MonitorFault):
    """Fail one TSDB shard; recovery replays its redo buffer."""

    name: str = "shard-outage"
    shard: int = 0

    def apply(self, p):
        p.tsdb.fail_shard(self.shard)

    def revert(self, p):
        p.tsdb.recover_shard(self.shard)
        if p.supervisor is not None:
            p.supervisor.heal(
                f"store:shard-{self.shard}", p.machine.now,
                reason="shard recovered, redo replayed",
            )


def crash_and_recover(
    p: "MonitoringPipeline", cause: str = "crash-unsynced"
) -> int:
    """Hard-kill the pipeline's disk-backed store and recover from disk.

    Models a power-loss crash: every disk tier is truncated to its last
    fsynced extent (:meth:`~repro.storage.diskier.DiskTier.simulate_crash`
    — pessimistic versus a plain SIGKILL, which would leave the OS page
    cache intact), a fresh store is rebuilt from the surviving manifest,
    segments and WAL, and the pipeline is rewired onto it.  Points that
    were acknowledged ``stored`` but sat past the fsync horizon are moved
    to accounted loss under ``cause`` via
    :meth:`~repro.core.ledger.DeliveryLedger.account_crash` — the balance
    identity stays exact across the crash.  Returns ``(moved, report)``:
    the number of points so accounted and the
    :class:`~repro.storage.diskier.RecoveryReport`.

    Requires the pipeline's store to have been built with a disk tier
    (a :class:`~repro.sites.config.SiteConfig` with ``store_dir``);
    raises :class:`TypeError` otherwise.
    """
    from pathlib import Path

    from ..storage.diskier import recover_sharded, recover_store
    from ..storage.sharded import ShardedTimeSeriesStore

    old = p.tsdb
    if isinstance(old, ShardedTimeSeriesStore):
        tiers = [s.disk for s in old.shards]
        if any(t is None for t in tiers):
            raise TypeError("crash_and_recover needs a disk-backed store")
        root = Path(old.disk_dir)
        for t in tiers:
            t.simulate_crash()
        first = tiers[0]
        new, report = recover_sharded(
            root,
            shards=old.n_shards,
            hot_bytes=first.hot_bytes,
            segment_bytes=first.segment_bytes,
            sync_every_bytes=first.sync_every_bytes,
            redo_points=old.redo_points,
        )
    else:
        tier = old.disk
        if tier is None:
            raise TypeError("crash_and_recover needs a disk-backed store")
        tier.simulate_crash()
        new, report = recover_store(
            tier.root,
            hot_bytes=tier.hot_bytes,
            segment_bytes=tier.segment_bytes,
            sync_every_bytes=tier.sync_every_bytes,
        )

    # Rewire the pipeline onto the recovered store, mirroring the wiring
    # in MonitoringPipeline.__init__.
    new.clock = old.clock
    new.ledger = p.ledger
    p.tsdb = new
    fe = p.frontend
    fe.store = new
    # recovered stores restart query epochs at 0 — stale cache entries
    # would otherwise validate against the wrong store generation
    fe._epoch_of = new.query_epoch
    fe.result_cache.clear()

    moved = p.ledger.account_crash(new.points_by_metric(), cause=cause)
    if p.supervisor is not None:
        p.supervisor.heal(
            "store", p.machine.now,
            reason=f"store recovered from disk, {moved} points to {cause}",
        )
    return moved, report


@dataclass
class StoreCrash(MonitorFault):
    """Kill-and-recover the disk-backed store at ``start``.

    A point-in-time fault: ``duration`` defaults to ``0.0`` so the
    injector applies *and* reverts it inside the same step —
    :func:`crash_and_recover` does the whole crash, restore and ledger
    reconciliation in ``apply``; there is nothing left to revert.
    """

    name: str = "store-crash"
    duration: float | None = 0.0
    cause: str = "crash-unsynced"
    points_accounted: int = field(default=0, init=False)
    recovery: object = field(default=None, init=False, repr=False)

    def apply(self, p):
        self.points_accounted, self.recovery = crash_and_recover(
            p, cause=self.cause
        )


class MonitorFaultInjector:
    """Applies scheduled monitor faults as the experiment loop advances.

    Call :meth:`step` *before* ``pipeline.step`` each tick (mirrors
    :class:`repro.cluster.faults.FaultInjector` driven against the
    machine).
    """

    def __init__(self, faults: list[MonitorFault] | None = None) -> None:
        self.faults: list[MonitorFault] = list(faults or [])

    def add(self, fault: MonitorFault) -> MonitorFault:
        self.faults.append(fault)
        return fault

    def step(self, p: "MonitoringPipeline", now: float) -> None:
        for f in self.faults:
            if not f.applied and now >= f.start:
                f.apply(p)
                f.applied = True
            if (
                f.applied
                and not f.reverted
                and f.duration is not None
                and now >= f.start + f.duration
            ):
                f.revert(p)
                f.reverted = True

    def clear(self, p: "MonitoringPipeline", fault: MonitorFault) -> None:
        """Explicitly end an open-ended fault."""
        if fault.applied and not fault.reverted:
            fault.revert(p)
            fault.reverted = True

    def all_reverted(self) -> bool:
        return all(f.reverted or not f.applied for f in self.faults)

    def ground_truth(self) -> list[dict]:
        return [
            {
                "name": f.name,
                "target": f.target,
                "start": f.start,
                "end": None if f.duration is None else f.start + f.duration,
                "applied": f.applied,
            }
            for f in self.faults
        ]
