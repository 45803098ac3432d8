"""Span tracing from outside the program, with exact self-time accounting.

The benchmark wraps the public entry point of every layer on the live
objects of a built stack (instance attributes shadow the class methods,
so nothing under ``src/`` changes) and keeps one span stack in memory.
A span's self time is its duration minus the durations of its direct
children, in integer ``perf_counter_ns`` units, so over every span of
one root the self times telescope to the root's wall time exactly: the
layers account for the whole tick, with ``==`` and no epsilon.

Only spans on the thread that built the recorder are recorded.  Work a
parallel executor runs on its worker threads passes straight through,
and its wall time stays with the main-thread span that waited for it
(the collection sweep or the shard-parallel append).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

__all__ = ["SpanRecorder", "instrument_pipeline", "instrument_federation",
           "HEALTH_COLLECTORS"]

#: collectors whose spans count as ``sources.health`` (the 600 s suites)
HEALTH_COLLECTORS = frozenset({"node_health", "benchmark_suite"})


class SpanRecorder:
    """An in-memory span stack and per-(root kind, layer) self-time sums."""

    def __init__(self) -> None:
        self._main = threading.get_ident()
        self._stack: list[list] = []          # [layer, child_ns] frames
        self._root_kind = ""
        self._wrapped: list[tuple[Any, str, Any]] = []
        #: self ns per (root kind, layer)
        self.self_ns: dict[tuple[str, str], int] = defaultdict(int)
        #: summed wall ns of the root spans of each kind
        self.root_ns: dict[str, int] = defaultdict(int)
        #: number of root spans of each kind
        self.roots: dict[str, int] = defaultdict(int)
        #: free-form counters taken at span boundaries
        self.counts: dict[str, int] = defaultdict(int)

    # -- the span itself ----------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, root: str,
              count: Callable[[tuple, Any], None] | None) -> Callable:
        stack = self._stack
        main = self._main
        clock = time.perf_counter_ns
        self_ns, root_ns, roots = self.self_ns, self.root_ns, self.roots

        def traced(*args, **kwargs):
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            if not stack:
                self._root_kind = root or "loose"
            kind = self._root_kind
            frame = [layer, 0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_ns[(kind, layer)] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    root_ns[kind] += dur
                    roots[kind] += 1
            if count is not None:
                count(args, out)
            return out

        return traced

    def wrap(self, obj: Any, attr: str, layer: str, root: str = "",
             count: Callable[[tuple, Any], None] | None = None) -> None:
        """Shadow ``obj.attr`` with a traced call (undone by :meth:`unwrap`).

        ``root`` names the root kind when this call opens a span tree
        (a tick, an aggregate query, a drill-down); ``count(args, out)``
        runs after the call to take counters at the same boundary.
        """
        saved = vars(obj).get(attr, _MISSING)
        setattr(obj, attr, self._wrap(getattr(obj, attr), layer, root, count))
        self._wrapped.append((obj, attr, saved))

    def unwrap(self) -> None:
        """Restore every wrapped attribute (tracing off, zero overhead)."""
        while self._wrapped:
            obj, attr, saved = self._wrapped.pop()
            if saved is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, saved)

    # -- derived views ------------------------------------------------------

    def layer_ns(self, kinds: Iterable[str], layer: str) -> int:
        return sum(self.self_ns.get((k, layer), 0) for k in kinds)

    def exactness_errors(self) -> list[str]:
        """Root kinds whose layer self times do not sum to the root wall."""
        errors = []
        for kind, wall in self.root_ns.items():
            total = sum(ns for (k, _), ns in self.self_ns.items() if k == kind)
            if total != wall:
                errors.append(f"{kind}: sum(self)={total} ns != "
                              f"sum(root)={wall} ns")
        if self._stack:
            errors.append(f"{len(self._stack)} spans still open")
        return errors


_MISSING = object()


# -- what to wrap ------------------------------------------------------------

def instrument_pipeline(rec: SpanRecorder, pipeline, root: bool = True) -> None:
    """Wrap every layer entry point of one monitoring pipeline.

    ``root=False`` for a site stepped by a federation: its ``step`` is a
    child of the federation tick rather than a root of its own.
    """
    counts = rec.counts

    def count_flows(args, _out):
        counts["flows"] += len(args[1])

    rec.wrap(pipeline, "step", "tick", root="tick" if root else "")
    machine = pipeline.machine
    rec.wrap(machine, "step", "cluster.step")
    rec.wrap(machine.network, "step", "cluster.network", count=count_flows)
    rec.wrap(machine.scheduler, "tick", "cluster.scheduler")
    for stage in pipeline.stages:
        rec.wrap(stage, "run", f"stages.{stage.name}")
    rec.wrap(pipeline.scheduler, "poll", "sources.poll")
    for c in pipeline.scheduler.collectors:
        layer = ("sources.health" if c.name in HEALTH_COLLECTORS
                 else "sources.collect")
        rec.wrap(c, "collect", layer)
    rec.wrap(pipeline.bus, "publish", "transport.publish")
    rec.wrap(pipeline.bus, "pump", "transport.pump")
    rec.wrap(pipeline.tsdb, "append", "storage.append")
    if hasattr(pipeline.tsdb, "append_parallel"):
        rec.wrap(pipeline.tsdb, "append_parallel", "storage.append")
    for det in pipeline.stage("streaming").detectors:
        rec.wrap(det, "observe", "analysis.observe")
    rec.wrap(pipeline.sec, "feed", "response.sec")
    rec.wrap(pipeline.sec, "tick", "response.sec")
    rec.wrap(pipeline.actions, "execute", "response.actions")
    if pipeline.selfmon is not None:
        rec.wrap(pipeline.selfmon, "maybe_emit", "obs.selfmon")
    if pipeline.freshness is not None:
        rec.wrap(pipeline.freshness, "record", "obs.freshness")
        rec.wrap(pipeline.freshness, "evaluate", "obs.freshness")
    fe = pipeline.frontend
    rec.wrap(fe, "aggregate_across", "serve", root="agg" if root else "")
    rec.wrap(fe, "downsample", "serve", root="drill" if root else "")
    rec.wrap(fe, "query", "serve")
    for name in ("query", "downsample", "aggregate_across"):
        rec.wrap(pipeline.tsdb, name, "storage.read")


def instrument_federation(rec: SpanRecorder, fed) -> None:
    """A federation tick or federated query is the root; every site's
    stack and front end nests under it."""
    rec.wrap(fed, "step", "tick", root="tick")
    ffe = fed.frontend()
    rec.wrap(ffe, "aggregate_across", "sites", root="agg")
    rec.wrap(ffe, "downsample", "sites", root="drill")
    for p in fed.pipelines.values():
        instrument_pipeline(rec, p, root=False)
