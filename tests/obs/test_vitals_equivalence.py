"""The table-driven selfmon sweep and the vitals-built health report
are held exactly to the hand-written readers they replaced.

Every stack below runs with both readers attached to the same pipeline:
at each selfmon emission the new ``SelfMonitor.sample`` and the
reference (``tests/oracles/selfmon.py``) read the same state, so every
batch must match bit for bit — wall-clock gauges included — and
``dataclasses.asdict`` of the two health reports must be equal.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest

from repro.analysis.streaming import StreamingOutlierDetector, StreamingStats
from repro.obs.chaos import ChaosTransport
from repro.obs.selfmetrics import GAUGES, LEVEL, SELFMON_METRICS
from repro.sites import SiteConfig, build_site
from repro.storage.rollup import DEFAULT_LEVELS
from repro.storage.sharded import ShardedTimeSeriesStore
from repro.storage.tsdb import TimeSeriesStore
from repro.transport.bus import MessageBus
from tests.oracles.selfmon import OracleIntrospector, OracleSelfMonitor
from tests.test_pipeline import make_machine

TRANSPORTS = ("flat", "partitioned", "tree")
# small chunks, so the run seals, caches, spills and reloads chunks and
# every store gauge moves
STORES = {
    "single": lambda tmp: TimeSeriesStore(chunk_size=8,
                                          pyramid_levels=DEFAULT_LEVELS),
    "3-shards": lambda tmp: ShardedTimeSeriesStore(
        shards=3, chunk_size=8, pyramid_levels=DEFAULT_LEVELS),
    "2-shards-disk": lambda tmp: ShardedTimeSeriesStore(
        shards=2, chunk_size=8, pyramid_levels=DEFAULT_LEVELS,
        disk_dir=str(tmp), hot_bytes=4096),
}
MATRIX = [f"{t}/{s}" for t in TRANSPORTS for s in STORES]
EXTRAS = ["chaos", "workers-2", "site-named"]


def same(a, b) -> bool:
    """Deep equality with NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return (list(a) == list(b)
                and all(same(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


def assert_same_batches(got, want) -> None:
    assert [b.metric for b in got] == [b.metric for b in want]
    for g, w in zip(got, want):
        assert list(g.components) == list(w.components), g.metric
        assert g.times.dtype == w.times.dtype == np.float64
        assert g.values.dtype == w.values.dtype == np.float64
        assert g.times.tobytes() == w.times.tobytes(), g.metric
        assert g.values.tobytes() == w.values.tobytes(), (
            g.metric, g.values, w.values)


def build(stack: str, tmp):
    kw: dict = {"seed": 3}
    overrides: dict = {}
    if stack in EXTRAS:
        if stack == "chaos":
            bus = ChaosTransport(MessageBus())
            bus.drop_every = 7
            overrides["transport"] = bus
        elif stack == "workers-2":
            kw.update(workers=2, shards=2)
        else:
            kw["name"] = "lanl"
    else:
        transport, store = stack.split("/")
        kw["transport"] = transport
        overrides["tsdb"] = STORES[store](tmp)
    p = build_site(SiteConfig(**kw), make_machine(), overrides=overrides)
    p.add_streaming(StreamingStats())
    p.add_streaming(
        StreamingOutlierDetector(("node.power_w",), z_threshold=4.0))
    return p


@lru_cache(maxsize=None)
def run_stack(stack: str, tmp) -> tuple[frozenset, frozenset]:
    """Run one stack with the reference readers riding along; returns
    the selfmon metric names it emitted, and those it emitted a
    non-zero value for."""
    p = build(stack, tmp)
    sm = p.selfmon
    oracle = OracleSelfMonitor(p, interval_s=sm.interval_s, source=sm.source)
    new_sample, new_baseline = sm.sample, sm._baseline
    emitted: set[str] = set()
    moved: set[str] = set()
    checks = []

    def baseline(now):
        new_baseline(now)
        oracle._baseline(now)

    def sample(now, elapsed_s):
        # the stage loop is supervised and would swallow a raise here,
        # so comparisons are recorded and asserted after the run
        got = new_sample(now, elapsed_s)
        want = oracle.sample(now, elapsed_s)
        reports = (dataclasses.asdict(p.introspect().report()),
                   dataclasses.asdict(OracleIntrospector(p).report()))
        checks.append((now, got, want, reports))
        return got

    sm._baseline, sm.sample = baseline, sample
    for _ in range(12):
        p.run(duration_s=120.0, dt=10.0)
        # full-history reads: decode (and reload spilled) chunks, and
        # hit the result cache on the repeat
        for comp in p.frontend.components("node.power_w")[:4]:
            p.frontend.query("node.power_w", comp)
            p.frontend.query("node.power_w", comp)
    assert len(checks) >= 20
    for now, got, want, (new, ref) in checks:
        assert_same_batches(got, want)
        assert same(new, ref), (stack, now)
        emitted.update(b.metric for b in got)
        moved.update(b.metric for b in got if np.any(b.values != 0))
    return frozenset(emitted), frozenset(moved)


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    return tmp_path_factory.mktemp("vitals")


@pytest.mark.parametrize("stack", MATRIX + EXTRAS)
def test_sample_and_report_match_reference(stack, store_root):
    run_stack(stack, store_root / stack.replace("/", "-"))


def test_matrix_exercises_every_gauge(store_root):
    emitted, moved = set(), set()
    for stack in MATRIX + EXTRAS:
        e, m = run_stack(stack, store_root / stack.replace("/", "-"))
        emitted |= e
        moved |= m
    assert emitted == set(SELFMON_METRICS)
    # every rate and per-tick gauge read a counter that actually moved
    assert {g[0] for g in GAUGES if g[3] != LEVEL} <= moved
