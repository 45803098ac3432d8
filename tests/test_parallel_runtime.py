"""The parallel runtime: execution models, staged scheduling, and the
serial-vs-threaded determinism contract.

The tentpole guarantee: running the *same seeded scenario* on the
threaded executor produces the *same monitoring data* as the serial
executor — exactly equal delivery-ledger totals, health-transition
timelines, store contents, and query results.  Only wall-clock timing
gauges (``*_ms`` histograms, ``selfmon.exec.*`` vitals) may differ,
because they measure the real machine, not the simulated one.
"""

import numpy as np
import pytest

from repro.cluster import (
    HungNode,
    LinkFailure,
    Machine,
    PackedPlacement,
    build_dragonfly,
)
from repro.cluster.workload import JobGenerator
from repro.runtime.executor import (
    ExecutionModel,
    SerialExecutor,
    ThreadedExecutor,
    make_executor,
)
from repro.stages import default_stages, schedule_stages


# -- make_executor ----------------------------------------------------------


class TestMakeExecutor:
    def test_default_is_serial(self):
        ex = make_executor(None)
        assert isinstance(ex, SerialExecutor)
        assert ex.name == "serial"
        assert ex.workers == 1
        assert not ex.parallel

    def test_instance_passes_through(self):
        ex = ThreadedExecutor(workers=2)
        assert make_executor(ex) is ex
        ex.shutdown()

    def test_int_picks_model(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(0), SerialExecutor)
        ex = make_executor(3)
        assert isinstance(ex, ThreadedExecutor)
        assert ex.workers == 3
        assert ex.parallel
        ex.shutdown()

    def test_string_specs(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        ex = make_executor("threaded")
        assert isinstance(ex, ThreadedExecutor)
        ex.shutdown()
        ex = make_executor("threaded:6")
        assert ex.workers == 6
        ex.shutdown()

    def test_bool_is_rejected(self):
        # bool would silently collapse to 0/1 workers; demand intent
        with pytest.raises(TypeError):
            make_executor(True)

    def test_bad_specs_are_rejected(self):
        with pytest.raises(ValueError):
            make_executor("warp-drive")
        with pytest.raises(TypeError):
            make_executor(3.5)


class TestMapOrdered:
    def test_serial_preserves_order(self):
        ex = SerialExecutor()
        out = ex.map_ordered([lambda i=i: i * i for i in range(8)])
        assert out == [i * i for i in range(8)]

    def test_threaded_preserves_submission_order(self):
        import time

        ex = ThreadedExecutor(workers=4)
        try:
            # later tasks finish first; results must still come back in
            # submission order
            def task(i):
                time.sleep(0.002 * (8 - i))
                return i

            out = ex.map_ordered([lambda i=i: task(i) for i in range(8)])
            assert out == list(range(8))
        finally:
            ex.shutdown()

    def test_snapshot_shape(self):
        ex = ThreadedExecutor(workers=2)
        try:
            ex.map_ordered([lambda i=i: i for i in range(5)])
            snap = ex.snapshot()
            assert set(snap) == {
                "name", "workers", "barriers", "tasks", "busy_fraction",
                "barrier_wait_ms", "handoff_depth",
            }
            assert snap["name"] == "threaded"
            assert snap["workers"] == 2
            assert snap["barriers"] == 1
            assert snap["tasks"] == 5
            # handoff depth = backlog handed past the worker count
            assert snap["handoff_depth"] == 3
        finally:
            ex.shutdown()

    def test_single_task_runs_inline(self):
        ex = ThreadedExecutor(workers=2)
        try:
            assert ex.map_ordered([lambda: 41]) == [41]
            # the inline short-circuit never spins the pool up
            assert ex._pool is None
            assert ex.snapshot()["tasks"] == 1
        finally:
            ex.shutdown()


# -- dependency-declared stage scheduling -----------------------------------


class _FakeStage:
    def __init__(self, name, plane=None, after=None):
        self.name = name
        if plane is not None:
            self.plane = plane
        if after is not None:
            self.after = after

    def run(self, pipeline, now):  # pragma: no cover - never ticked
        return None


class TestScheduleStages:
    def test_default_stages_keep_historic_order(self):
        ordered = [s.name for s in schedule_stages(default_stages())]
        assert ordered == [
            "event-plane", "metric-plane", "job-tracking", "streaming",
            "analysis-hooks", "supervision", "freshness", "response",
            "selfmon",
        ]

    def test_attrless_stages_keep_declaration_order(self):
        stages = [_FakeStage("a"), _FakeStage("b"), _FakeStage("c")]
        assert [s.name for s in schedule_stages(stages)] == ["a", "b", "c"]

    def test_dependencies_reorder(self):
        stages = [
            _FakeStage("late", after=("early",)),
            _FakeStage("early"),
        ]
        assert [s.name for s in schedule_stages(stages)] == [
            "early", "late",
        ]

    def test_missing_dependencies_are_tolerated(self):
        # a stage set without the freshness plane still schedules
        stages = [_FakeStage("only", after=("absent-plane",))]
        assert [s.name for s in schedule_stages(stages)] == ["only"]

    def test_cycle_is_rejected(self):
        stages = [
            _FakeStage("a", after=("b",)),
            _FakeStage("b", after=("a",)),
        ]
        with pytest.raises(ValueError, match="cycle"):
            schedule_stages(stages)

    def test_duplicate_names_are_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            schedule_stages([_FakeStage("x"), _FakeStage("x")])


# -- concurrent shard ingest ------------------------------------------------


def _batches(seed, n_batches=6, n=96):
    from repro.core.metric import SeriesBatch

    rng = np.random.default_rng(seed)
    comps = np.array([f"n{i:04d}" for i in range(n)], dtype=object)
    return [
        SeriesBatch("node.power_w", comps, np.full(n, 60.0 * k),
                    rng.normal(250.0, 15.0, n))
        for k in range(n_batches)
    ]


class TestAppendParallel:
    def test_matches_serial_append(self):
        from repro.storage.sharded import ShardedTimeSeriesStore

        serial = ShardedTimeSeriesStore(shards=4)
        concurrent = ShardedTimeSeriesStore(shards=4)
        ex = ThreadedExecutor(workers=4)
        try:
            for b in _batches(11):
                serial.append(b)
            results = concurrent.append_parallel(_batches(11), ex)
        finally:
            ex.shutdown()
        assert all(isinstance(r, int) for r in results)
        assert sum(results) == serial.stats().samples
        assert serial.stats() == concurrent.stats()
        for key in serial.keys():
            a = serial.query(key.metric, key.component)
            b = concurrent.query(key.metric, key.component)
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.values, b.values)

    def test_failed_shard_defers_identically(self):
        from repro.storage.sharded import ShardedTimeSeriesStore

        serial = ShardedTimeSeriesStore(shards=4)
        concurrent = ShardedTimeSeriesStore(shards=4)
        serial.fail_shard(2)
        concurrent.fail_shard(2)
        ex = ThreadedExecutor(workers=4)
        try:
            for b in _batches(13):
                serial.append(b)
            concurrent.append_parallel(_batches(13), ex)
        finally:
            ex.shutdown()
        assert serial.redo_deferred == concurrent.redo_deferred
        assert serial.redo_pending_points() == \
            concurrent.redo_pending_points()
        serial.recover_shard(2)
        concurrent.recover_shard(2)
        assert serial.stats() == concurrent.stats()


# -- the determinism contract ----------------------------------------------


def _fresh_machine(seed):
    # Job ids are per-generator, so two seeded machines already see
    # identical job names — no global state to reset between runs
    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    machine = Machine(
        topo,
        placement=PackedPlacement(),
        job_generator=JobGenerator(mean_interarrival_s=200, max_nodes=24,
                                   seed=seed),
        gpu_nodes="all",
        seed=seed,
    )
    machine.faults.add(HungNode(start=600.0, duration=900.0,
                                node=topo.nodes[3]))
    machine.faults.add(LinkFailure(start=1200.0, duration=600.0,
                                   link_index=0))
    return machine


def _run(seed, executor):
    from repro.sites import SiteConfig, build_site

    machine = _fresh_machine(seed)
    pipeline = build_site(
        SiteConfig(seed=seed, transport="partitioned", shards=4),
        machine, overrides={"executor": executor})
    pipeline.run(hours=0.5, dt=10.0)
    pipeline.bus.flush()
    return pipeline


def _timing_metric(name):
    """Gauges allowed to differ serial vs parallel: wall-clock timings
    (``*_ms`` histograms, executor vitals), compressed-size gauges
    (their values fold in the stored bytes *of* those timing series),
    and per-shard distribution gauges (the ``selfmon.exec.*`` series
    carry the executor name as component, so they hash onto different
    shards under each model)."""
    return ("_ms" in name or name.startswith("selfmon.exec.")
            or "bytes" in name
            or name.startswith("selfmon.store.shard_"))


class TestSerialParallelEquivalence:
    @pytest.fixture(scope="class")
    def runs(self):
        serial = _run(29, executor=None)
        threaded = _run(29, executor=4)
        yield serial, threaded
        threaded.executor.shutdown()

    def test_ledger_reports_identical_and_balanced(self, runs):
        serial, threaded = runs
        a, b = serial.delivery_report(), threaded.delivery_report()
        assert a == b
        assert a.balanced and a.unaccounted == 0

    def test_health_timelines_identical(self, runs):
        serial, threaded = runs
        assert serial.supervisor.transitions == \
            threaded.supervisor.transitions
        assert serial.health_report() == threaded.health_report()

    def test_store_stats_identical(self, runs):
        serial, threaded = runs
        sa, sb = serial.tsdb.stats(), threaded.tsdb.stats()
        assert sa.samples == sb.samples
        assert sa.series == sb.series

    def test_every_simulated_series_identical(self, runs):
        serial, threaded = runs
        keys_a = {k for k in serial.tsdb.keys()
                  if not _timing_metric(k.metric)}
        keys_b = {k for k in threaded.tsdb.keys()
                  if not _timing_metric(k.metric)}
        assert keys_a == keys_b
        assert len(keys_a) > 500     # the harness actually monitored
        for key in sorted(keys_a, key=lambda k: (k.metric, k.component)):
            a = serial.tsdb.query(key.metric, key.component)
            b = threaded.tsdb.query(key.metric, key.component)
            assert np.array_equal(a.times, b.times), key
            assert np.array_equal(a.values, b.values), key

    def test_alerts_identical(self, runs):
        serial, threaded = runs
        assert [(a.time, a.rule, a.component) for a in
                serial.alerts.alerts] == \
            [(a.time, a.rule, a.component) for a in
             threaded.alerts.alerts]

    def test_threaded_run_actually_fanned_out(self, runs):
        _, threaded = runs
        snap = threaded.executor.snapshot()
        assert snap["workers"] == 4
        assert snap["barriers"] > 0
        assert snap["tasks"] > snap["barriers"]
