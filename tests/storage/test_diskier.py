"""Unit tests for the out-of-core disk tier (spill, WAL, recovery)."""

import numpy as np
import pytest

from repro.core.metric import MetricKey, SeriesBatch
from repro.storage.diskier import (
    DiskTier,
    DiskTierStats,
    RecoveryReport,
    merge_disk_stats,
    recover_sharded,
    recover_store,
)
from repro.storage.sharded import ShardedTimeSeriesStore
from repro.storage.tsdb import TimeSeriesStore


def sweep(metric, t, comps, vals):
    return SeriesBatch.sweep(metric, t, comps, vals)


def fill(store, n=400, metrics=("m1", "m2"), comps=("a", "b", "c")):
    rng = np.random.default_rng(7)
    for i in range(n):
        for m in metrics:
            store.append(sweep(m, i * 10.0, list(comps),
                               rng.normal(size=len(comps))))


def disk_store(tmp_path, **kw):
    kw.setdefault("hot_bytes", 1 << 12)
    kw.setdefault("sync_every_bytes", 1 << 12)
    return TimeSeriesStore(chunk_size=16,
                           disk=DiskTier(tmp_path / "tier", **kw))


class TestHotBudget:
    def test_hot_bytes_never_exceed_budget(self, tmp_path):
        store = disk_store(tmp_path)
        rng = np.random.default_rng(1)
        for i in range(600):
            store.append(sweep("m", i * 10.0, ["a", "b", "c", "d"],
                               rng.normal(size=4)))
            d = store.disk_stats()
            assert d.hot_bytes <= store.disk.hot_bytes
        d = store.disk_stats()
        assert d.spills > 0                   # the budget actually bit
        assert d.disk_bytes > 10 * store.disk.hot_bytes

    def test_spilled_chunks_still_answer_exactly(self, tmp_path):
        store = disk_store(tmp_path)
        oracle = TimeSeriesStore(chunk_size=16)
        fill(store)
        fill(oracle)
        assert store.disk_stats().spills > 0
        for m in ("m1", "m2"):
            for c in ("a", "b", "c"):
                got = store.query(m, c)
                want = oracle.query(m, c)
                assert np.array_equal(got.times, want.times)
                assert np.array_equal(got.values.view(np.uint64),
                                      want.values.view(np.uint64))
                for prune in (False, True):
                    g = store.downsample(m, c, 0.0, 4000.0, 300.0,
                                         prune=prune)
                    w = oracle.downsample(m, c, 0.0, 4000.0, 300.0,
                                          prune=prune)
                    assert np.array_equal(g.times, w.times)
                    assert np.array_equal(g.values, w.values)

    def test_mmap_reads_hit_established_map(self, tmp_path):
        store = disk_store(tmp_path, hot_bytes=1 << 10)
        fill(store, n=300, metrics=("m",), comps=("a",))
        store.cache.clear()
        store.query("m", "a")
        store.cache.clear()
        store.query("m", "a")
        d = store.disk_stats()
        assert d.loads > 0
        assert d.map_hits > 0                 # second pass reused the map


class TestEvictionBecomesDemotion:
    def test_evict_demotes_with_tier(self, tmp_path):
        store = disk_store(tmp_path, hot_bytes=1 << 20)
        fill(store, n=200, metrics=("m",), comps=("a",))
        key = MetricKey("m", "a")
        oracle = TimeSeriesStore(chunk_size=16)
        fill(oracle, n=200, metrics=("m",), comps=("a",))
        before = store.stats()
        epoch = store.query_epoch("m")
        n = store.evict_chunks_before(key, 1000.0)
        assert n > 0
        # demotion, not loss: counts, epoch, and answers all unchanged
        after = store.stats()
        assert after.samples == before.samples
        assert after.sealed_chunks == before.sealed_chunks
        assert store.query_epoch("m") == epoch
        got = store.query("m", "a")
        want = oracle.query("m", "a")
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.values.view(np.uint64),
                              want.values.view(np.uint64))
        # a second call finds nothing newly demotable
        assert store.evict_chunks_before(key, 1000.0) == 0

    def test_evict_discards_without_tier(self, tmp_path):
        store = TimeSeriesStore(chunk_size=16)
        fill(store, n=200, metrics=("m",), comps=("a",))
        key = MetricKey("m", "a")
        before = store.stats()
        epoch = store.query_epoch("m")
        n = store.evict_chunks_before(key, 1000.0)
        assert n > 0
        after = store.stats()
        assert after.samples < before.samples          # truly discarded
        assert store.query_epoch("m") == epoch + 1     # epoch bumped
        # only a partial chunk straddling the cut may remain
        assert len(store.query("m", "a", 0.0, 999.0)) < 16


class TestSnapshotRecover:
    def test_synced_crash_loses_nothing(self, tmp_path):
        store = disk_store(tmp_path)
        fill(store)
        store.snapshot()
        fill_more = np.random.default_rng(9)
        for i in range(400, 450):
            store.append(sweep("m1", i * 10.0, ["a", "b", "c"],
                               fill_more.normal(size=3)))
        store.flush()                          # fsync everything
        want = {(m, c): store.query(m, c)
                for m in ("m1", "m2") for c in ("a", "b", "c")}
        want_ds = {(m, c, prune): store.downsample(m, c, 0.0, 5000.0,
                                                   300.0, prune=prune)
                   for m in ("m1", "m2") for c in ("a", "b", "c")
                   for prune in (False, True)}
        n_points = store.points_by_metric()
        store.disk.simulate_crash()
        recovered, report = recover_store(tmp_path / "tier",
                                          hot_bytes=1 << 12,
                                          sync_every_bytes=1 << 12)
        assert recovered.points_by_metric() == n_points
        assert report.points == sum(n_points.values())
        for (m, c), w in want.items():
            got = recovered.query(m, c)
            assert np.array_equal(got.times, w.times)
            assert np.array_equal(got.values.view(np.uint64),
                                  w.values.view(np.uint64))
            for prune in (False, True):
                g = recovered.downsample(m, c, 0.0, 5000.0, 300.0,
                                         prune=prune)
                o = want_ds[(m, c, prune)]
                assert np.array_equal(g.times, o.times)
                assert np.array_equal(g.values, o.values)

    def test_unsynced_tail_is_counted_not_silent(self, tmp_path):
        store = disk_store(tmp_path, sync_every_bytes=1 << 30)
        fill(store, n=100, metrics=("m",), comps=("a",))
        store.disk.sync()
        synced = sum(store.points_by_metric().values())
        for i in range(100, 140):              # past the last fsync
            store.append(sweep("m", i * 10.0, ["a"], [float(i)]))
        total = sum(store.points_by_metric().values())
        store.disk.simulate_crash()
        recovered, report = recover_store(tmp_path / "tier")
        back = sum(recovered.points_by_metric().values())
        assert back == synced                  # tail gone...
        assert total - back == 40              # ...but exactly countable

    def test_dead_tier_refuses_use(self, tmp_path):
        store = disk_store(tmp_path)
        fill(store, n=50, metrics=("m",), comps=("a",))
        store.disk.simulate_crash()
        with pytest.raises(RuntimeError, match="crashed"):
            store.append(sweep("m", 1e6, ["a"], [1.0]))

    def test_second_recovery_is_manifest_only(self, tmp_path):
        store = disk_store(tmp_path)
        fill(store, n=200, metrics=("m",), comps=("a", "b"))
        store.flush()
        store.disk.simulate_crash()
        r1, rep1 = recover_store(tmp_path / "tier")
        # recover_store ends with a snapshot: a second crash right away
        # recovers purely from the manifest (no scan, no replay)
        r1.disk.simulate_crash()
        r2, rep2 = recover_store(tmp_path / "tier")
        assert rep2.scanned_chunks == 0
        assert rep2.wal_points_replayed == 0
        assert r2.points_by_metric() == r1.points_by_metric()

    def test_wal_bypassing_chunks_do_not_eat_wal_samples(self, tmp_path):
        """A chunk-aligned bulk load seals without a WAL record; recovery
        must not count its samples against the series' WAL replay."""
        store = disk_store(tmp_path)
        store.snapshot()
        bulk = SeriesBatch.for_component("m", "a", np.arange(16.0),
                                         np.arange(16.0))
        store.append(bulk)                     # bypasses the WAL
        store.append(sweep("m", 100.0, ["a"], [7.0]))   # WAL-logged head
        store.disk.sync()
        store.disk.simulate_crash()
        recovered, report = recover_store(tmp_path / "tier")
        got = recovered.query("m", "a")
        assert got.times.tolist() == list(range(16)) + [100.0]
        assert report.wal_points_replayed == 1
        assert report.wal_points_skipped == 0

    def test_torn_tails_truncated_and_reported(self, tmp_path):
        store = disk_store(tmp_path, sync_every_bytes=1 << 30)
        fill(store, n=150, metrics=("m",), comps=("a",))
        store.flush()
        store.disk.simulate_crash()
        # corrupt: append garbage half-records past the synced extents
        for pat in ("seg-*.dat", "wal-*.log"):
            for p in (tmp_path / "tier").glob(pat):
                with open(p, "ab") as fh:
                    fh.write(b"SG\x99\x99torn-garbage")
        recovered, report = recover_store(tmp_path / "tier")
        assert report.torn_segment_bytes > 0
        assert report.torn_wal_bytes > 0
        got = recovered.query("m", "a")
        assert len(got) == 150                 # data before the tear intact


class TestSeriesLifecycle:
    def test_drop_series_releases_hot_accounting(self, tmp_path):
        store = disk_store(tmp_path, hot_bytes=1 << 20)
        fill(store, n=200, metrics=("m",), comps=("a", "b"))
        assert store.disk.hot_bytes_used > 0
        store.drop_series("m", "a")
        store.drop_series("m", "b")
        assert store.disk.hot_bytes_used == 0

    def test_export_series_materializes_spilled_bytes(self, tmp_path):
        store = disk_store(tmp_path, hot_bytes=1 << 10)
        fill(store, n=200, metrics=("m",), comps=("a",))
        assert store.disk_stats().spills > 0
        blobs, spans = store.export_series(MetricKey("m", "a"))
        assert len(blobs) == len(spans) > 0
        assert all(isinstance(b, bytes) for b in blobs)

    def test_import_chunks_lands_in_tier(self, tmp_path):
        src = TimeSeriesStore(chunk_size=16)
        fill(src, n=200, metrics=("m",), comps=("a",))
        blobs, spans = src.export_series(MetricKey("m", "a"))
        dst = disk_store(tmp_path)
        dst.import_chunks(MetricKey("m", "a"), blobs, spans)
        assert dst.disk_stats().disk_bytes > 0
        got = dst.query("m", "a", 0.0, spans[-1][1] + 1.0)
        want = src.query("m", "a", 0.0, spans[-1][1] + 1.0)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.values.view(np.uint64),
                              want.values.view(np.uint64))


class TestSharded:
    def test_sharded_crash_recover_round_trip(self, tmp_path):
        sh = ShardedTimeSeriesStore(shards=3, chunk_size=16,
                                    disk_dir=str(tmp_path),
                                    hot_bytes=1 << 12,
                                    sync_every_bytes=1 << 12)
        fill(sh, n=300)
        sh.snapshot()
        fill2 = np.random.default_rng(3)
        for i in range(300, 340):
            sh.append(sweep("m1", i * 10.0, ["a", "b", "c"],
                            fill2.normal(size=3)))
        sh.flush()
        want = {(m, c): sh.query(m, c)
                for m in ("m1", "m2") for c in ("a", "b", "c")}
        for s in sh.shards:
            s.disk.simulate_crash()
        rec, report = recover_sharded(tmp_path, shards=3,
                                      hot_bytes=1 << 12,
                                      sync_every_bytes=1 << 12)
        assert report.points == sum(rec.points_by_metric().values())
        for (m, c), w in want.items():
            got = rec.query(m, c)
            assert np.array_equal(got.times, w.times)
            assert np.array_equal(got.values.view(np.uint64),
                                  w.values.view(np.uint64))

    def test_merged_disk_stats(self, tmp_path):
        sh = ShardedTimeSeriesStore(shards=3, chunk_size=16,
                                    disk_dir=str(tmp_path),
                                    hot_bytes=1 << 12)
        fill(sh, n=200)
        merged = sh.disk_stats()
        per = [s.disk_stats() for s in sh.shards]
        assert merged.disk_bytes == sum(p.disk_bytes for p in per)
        assert merged.spills == sum(p.spills for p in per)

    def test_in_memory_sharded_has_no_disk_stats(self):
        sh = ShardedTimeSeriesStore(shards=2, chunk_size=16)
        assert sh.disk_stats() is None


class TestStatsPlumbing:
    def test_merge_disk_stats_fieldwise(self):
        a = DiskTierStats(1, 10, 5, 3, 2, 1, 1, 1, 1, 1, 1)
        b = DiskTierStats(2, 20, 5, 4, 2, 2, 2, 2, 2, 2, 2)
        m = merge_disk_stats([a, b])
        assert m.segments == 3 and m.disk_bytes == 30
        assert m.spills == 3 and m.wal_syncs == 3

    def test_recovery_report_merge(self):
        a = RecoveryReport(1, 100, 2, 3, 4, 5, 6, 7)
        b = RecoveryReport(1, 50, 1, 1, 1, 1, 1, 1)
        m = a.merged(b)
        assert m.points == 150 and m.series == 2
        assert m.torn_wal_bytes == 8

    def test_in_memory_store_has_no_disk_stats(self):
        assert TimeSeriesStore(chunk_size=16).disk_stats() is None
        with pytest.raises(RuntimeError):
            TimeSeriesStore(chunk_size=16).snapshot()


class TestTierResume:
    def test_reopen_appends_to_existing_segments(self, tmp_path):
        store = disk_store(tmp_path)
        fill(store, n=100, metrics=("m",), comps=("a",))
        store.flush()
        before = store.disk_stats()
        seg_bytes = before.disk_bytes - before.wal_bytes
        store.disk.close()
        tier = DiskTier(tmp_path / "tier", hot_bytes=1 << 12,
                        sync_every_bytes=1 << 12)
        after = tier.stats()
        # segments reopened at full size; the WAL starts a fresh gen
        assert after.disk_bytes - after.wal_bytes == seg_bytes
        tier.close()
