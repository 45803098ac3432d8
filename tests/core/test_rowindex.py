"""The shared identity-memoized row index, and the stable component
arrays that keep it (and every other per-array memo) hitting."""

import numpy as np
import pytest

from repro.analysis.streaming import StreamingStats
from repro.cluster import Machine, build_dragonfly
from repro.core.metric import SeriesBatch, component_array
from repro.core.rowindex import IdentityMemo, RowIndex
from repro.sources import (
    FsProbeCollector,
    NetLinkCollector,
    NodeCounterCollector,
    OstCounterCollector,
    SedcCollector,
)
from repro.storage.diskier import DiskTier
from repro.storage.sharded import ShardedTimeSeriesStore
from repro.storage.tsdb import TimeSeriesStore


class TestIdentityMemo:
    def test_hits_only_on_the_same_object(self):
        memo = IdentityMemo()
        a = np.array(["x", "y"], dtype=object)
        assert memo.get(a) is None
        memo.put(a, "value")
        assert memo.get(a) == "value"
        assert memo.get(a.copy()) is None
        assert (memo.hits, memo.misses) == (1, 2)

    def test_clear_forgets(self):
        memo = IdentityMemo()
        a = np.array(["x"], dtype=object)
        memo.put(a, 1)
        memo.clear()
        assert memo.get(a) is None


class TestRowIndex:
    def test_dense_rows_in_first_seen_order(self):
        idx = RowIndex()
        rows, unique = idx.rows(np.array(["b", "a", "b"], dtype=object))
        assert rows.tolist() == [0, 1, 0] and not unique
        rows, unique = idx.rows(np.array(["a", "c"], dtype=object))
        assert rows.tolist() == [1, 2] and unique
        assert idx.names == ["b", "a", "c"] and idx.row("c") == 2

    def test_rows_are_read_only_and_memoized(self):
        idx = RowIndex()
        comps = np.array(["a", "b"], dtype=object)
        rows, _ = idx.rows(comps)
        with pytest.raises(ValueError):
            rows[0] = 5
        assert idx.rows(comps)[0] is rows
        assert idx.memo.hits == 1

    def test_keys_are_strings(self):
        idx = RowIndex()
        rows, _ = idx.rows(np.array([7, "7"], dtype=object))
        assert rows.tolist() == [0, 0] and idx.names == ["7"]

    def test_add_registers_one_component(self):
        idx = RowIndex()
        assert idx.add("a") == 0 and idx.add("b") == 1 and idx.add("a") == 0
        assert idx.rows(np.array(["b"], dtype=object))[0].tolist() == [1]

    def test_forget_gives_a_fresh_row(self):
        idx = RowIndex()
        comps = np.array(["a", "b"], dtype=object)
        idx.rows(comps)
        idx.forget("a")
        assert idx.row("a") is None
        assert idx.rows(comps)[0].tolist() == [2, 1]


@pytest.fixture()
def machine():
    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    return Machine(topo, gpu_nodes="all", seed=3)


class TestStableComponentArrays:
    def test_component_array_is_read_only(self):
        arr = component_array(["a", "b"])
        assert arr.dtype == object and not arr.flags.writeable

    @pytest.mark.parametrize("collector", [
        SedcCollector(), NodeCounterCollector(), NetLinkCollector(),
        FsProbeCollector(), OstCounterCollector(),
    ], ids=lambda c: type(c).__name__)
    def test_consecutive_sweeps_share_components(self, machine, collector):
        first = collector.collect(machine, 60.0).batches
        machine.run(60.0, dt=10.0)
        second = collector.collect(machine, 120.0).batches
        for a, b in zip(first, second):
            if len(a) > 1:
                assert a.components is b.components, a.metric
                assert not a.components.flags.writeable

    def test_every_memo_hits_on_the_second_sedc_sweep(self, machine,
                                                      tmp_path):
        sedc = SedcCollector()
        stats = StreamingStats()
        store = TimeSeriesStore(chunk_size=16,
                                disk=DiskTier(tmp_path / "t"))
        sharded = ShardedTimeSeriesStore(shards=3, chunk_size=16)
        try:
            for now in (60.0, 120.0):
                batches = sedc.collect(machine, now).batches
                for b in batches:
                    stats.observe(b)
                    store.append(b)
                    sharded.append(b)
            for b in batches:
                assert stats._tables[b.metric]._rows.memo.hits == 1
                assert store._blocks[b.metric].index.memo.hits == 1
                assert store.disk._comp_memo[b.metric].hits == 1
                assert sharded._route_memo[b.metric].hits == 1
                for shard in sharded.shards:
                    blk = shard._blocks.get(b.metric)
                    if blk is not None:
                        assert blk.index.memo.hits == 1
        finally:
            store.disk.close()

    def test_fresh_arrays_still_ingest_exactly(self):
        """The memo is an optimisation: equal arrays that are not the
        same object give the same store."""
        comps = ["n0", "n1", "n2"]
        a, b = TimeSeriesStore(chunk_size=2), TimeSeriesStore(chunk_size=2)
        shared = component_array(comps)
        for s in range(5):
            a.append(SeriesBatch.sweep("m", 60.0 * s, shared, [s] * 3))
            b.append(SeriesBatch.sweep("m", 60.0 * s, list(comps), [s] * 3))
        for c in comps:
            qa, qb = a.query("m", c), b.query("m", c)
            assert np.array_equal(qa.times, qb.times)
            assert np.array_equal(qa.values, qb.values)
