"""Hierarchical hot/disk storage: eviction as demotion to the disk tier.

Table I (*Data Storage and Formats*) asks for hierarchical storage
with archiving, reloading and tracking of what lives where.  With a
:class:`~repro.storage.diskier.DiskTier` attached,
``evict_chunks_before`` spills old sealed chunks to their segment
refs; queries reload them from the mapping transparently and answer
exactly.
"""

import numpy as np
import pytest

from repro.core.metric import MetricKey, SeriesBatch
from repro.storage.diskier import DiskTier, recover_store
from repro.storage.tsdb import TimeSeriesStore

KEY = MetricKey("m", "a")


def fill(store, n=100, comp="a"):
    for i in range(n):
        store.append(
            SeriesBatch.sweep("m", i * 60.0, [comp], [float(i)])
        )


def disk_store(root):
    return TimeSeriesStore(chunk_size=16, disk=DiskTier(root))


@pytest.fixture()
def tiered(tmp_path):
    t = disk_store(tmp_path / "tier")
    fill(t)
    return t


class TestArchive:
    def test_archive_moves_old_chunks(self, tiered):
        before = tiered.disk_stats()
        moved = tiered.evict_chunks_before(KEY, 3000.0)
        assert moved > 0
        after = tiered.disk_stats()
        # the demoted chunks left the resident (hot) set
        assert after.hot_chunks == before.hot_chunks - moved
        assert after.hot_bytes < before.hot_bytes
        assert after.spills == before.spills + moved
        # nothing was discarded
        assert tiered.stats().samples == 100

    def test_archive_is_idempotent(self, tiered):
        tiered.evict_chunks_before(KEY, 3000.0)
        assert tiered.evict_chunks_before(KEY, 3000.0) == 0

    def test_catalog_tracks_spans(self, tiered):
        moved = tiered.evict_chunks_before(KEY, 3000.0)
        _, spans = tiered.export_series(KEY)
        # exactly the chunks wholly before the cut were demoted
        assert moved == sum(hi < 3000.0 for _, hi in spans)

    def test_cold_bytes_positive(self, tiered):
        tiered.evict_chunks_before(KEY, 3000.0)
        assert tiered.disk_stats().disk_bytes > 0


class TestReload:
    def test_transparent_query_reloads(self, tiered):
        tiered.evict_chunks_before(KEY, 3000.0)
        out = tiered.query("m", "a", 0.0, 6000.0)
        assert len(out) == 100
        assert list(out.values) == [float(i) for i in range(100)]
        assert tiered.disk_stats().loads > 0

    def test_query_outside_cold_span_no_reload(self, tiered):
        tiered.evict_chunks_before(KEY, 1000.0)
        tiered.query("m", "a", 5000.0, 6000.0)
        assert tiered.disk_stats().loads == 0

    def test_data_identical_after_archive_reload_cycle(self, tiered):
        before = tiered.query("m", "a")
        tiered.evict_chunks_before(KEY, 3000.0)
        after = tiered.query("m", "a")
        assert np.array_equal(before.times, after.times)
        assert np.array_equal(before.values, after.values)


class TestDiskTier:
    def test_cold_dir_persistence(self, tmp_path):
        t = disk_store(tmp_path / "cold")
        fill(t)
        t.evict_chunks_before(KEY, 3000.0)
        assert list((tmp_path / "cold").iterdir())
        t.flush()                       # fsync segments and WAL
        t.disk.simulate_crash()
        recovered, _ = recover_store(tmp_path / "cold")
        out = recovered.query("m", "a", 0.0, 6000.0)
        assert list(out.values) == [float(i) for i in range(100)]

    def test_multiple_series_archived_separately(self, tmp_path):
        t = disk_store(tmp_path / "cold")
        fill(t, comp="a")
        fill(t, comp="b")
        hot_before = t.disk_stats().hot_chunks
        moved = t.evict_chunks_before(KEY, 3000.0)
        assert moved > 0
        # demoting a must not touch b's resident chunks
        assert t.disk_stats().hot_chunks == hot_before - moved
        assert t.evict_chunks_before(MetricKey("m", "b"), 3000.0) == moved
        out = t.query("m", "b", 0.0, 6000.0)
        assert list(out.values) == [float(i) for i in range(100)]
