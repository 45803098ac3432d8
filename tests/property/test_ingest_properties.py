"""Property-based tests: the columnar ingest layer is exact.

The store's ingest (2-D head blocks, one append path, batched seal) is
built from random interleavings of every batch shape and maintenance
call, next to :class:`tests.oracles.tsdb_store.PerSampleStore` — the
retired per-sample ingest, sealing through the scalar codec — fed the
same operations.  Both must agree bit for bit:

* the same chunk blobs, in the same chunk-id order;
* equal summaries, block-index hints, spans, pyramid level columns and
  open heads, series by series;
* equal ``stats()``, ``points_by_metric()`` and query / downsample /
  aggregate answers;
* with a disk tier, byte-identical segment and WAL files, and a synced
  crash plus snapshot/WAL recovery restores every head exactly.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metric import MetricKey, SeriesBatch
from repro.storage.diskier import DiskTier, recover_store
from repro.storage.tsdb import TimeSeriesStore, compress_chunk
from tests.oracles.tsdb_store import PerSampleStore

METRICS = ("node.power_w", "node.temp_c")
COMPS = tuple(f"n{i}" for i in range(6))
LEVELS = (10.0, 60.0)

#: full-float values: NaN payloads, signed zeros, infinities, denormals
values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([0.0, -0.0, 1.0, 250.5]),
)
#: millisecond-grid times; drawn unsorted, so batches arrive out of order
time_ms = st.integers(min_value=0, max_value=20_000_000)


def _batch(metric, comps, times_ms, vals):
    return SeriesBatch(metric, np.asarray(comps, dtype=object),
                       np.asarray(times_ms, dtype=np.float64) / 1000.0,
                       np.asarray(vals, dtype=np.float64))


@st.composite
def sweep(draw):
    """One sample per component at one time (the collector shape)."""
    comps = draw(st.lists(st.sampled_from(COMPS), min_size=1, max_size=6,
                          unique=True))
    t = draw(time_ms)
    vals = draw(st.lists(values, min_size=len(comps), max_size=len(comps)))
    return ("append", _batch(draw(st.sampled_from(METRICS)), comps,
                             [t] * len(comps), vals))


@st.composite
def series_chunk(draw):
    """Many samples of one component (history loads; may cross seals)."""
    n = draw(st.integers(1, 20))
    ts = draw(st.lists(time_ms, min_size=n, max_size=n))
    vals = draw(st.lists(values, min_size=n, max_size=n))
    return ("append", _batch(draw(st.sampled_from(METRICS)),
                             [draw(st.sampled_from(COMPS))] * n, ts, vals))


@st.composite
def mixed(draw):
    """Repeated components in arbitrary order (merged batches)."""
    n = draw(st.integers(1, 24))
    comps = draw(st.lists(st.sampled_from(COMPS), min_size=n, max_size=n))
    ts = draw(st.lists(time_ms, min_size=n, max_size=n))
    vals = draw(st.lists(values, min_size=n, max_size=n))
    return ("append", _batch(draw(st.sampled_from(METRICS)), comps, ts,
                             vals))


@st.composite
def maintenance(draw):
    kind = draw(st.sampled_from(["drop", "flush", "evict", "import",
                                 "export"]))
    key = MetricKey(draw(st.sampled_from(METRICS)),
                    draw(st.sampled_from(COMPS)))
    if kind == "evict":
        return ("evict", key, draw(time_ms) / 1000.0)
    if kind == "import":
        chunks, spans = [], []
        for _ in range(draw(st.integers(1, 2))):
            n = draw(st.integers(1, 6))
            ts = np.sort(np.asarray(draw(st.lists(time_ms, min_size=n,
                                                  max_size=n)),
                                    dtype=np.float64)) / 1000.0
            vals = np.asarray(draw(st.lists(values, min_size=n,
                                            max_size=n)))
            chunks.append(compress_chunk(ts, vals))
            spans.append((float(ts[0]), float(ts[-1])))
        return ("import", key, chunks, spans)
    return (kind, key)


ops = st.lists(st.one_of(sweep(), sweep(), series_chunk(), mixed(),
                         maintenance()),
               min_size=1, max_size=30)


def apply(store, op):
    kind = op[0]
    if kind == "append":
        b = op[1]
        # each store gets its own arrays: the identity memo must not be
        # what makes the answers agree
        return store.append(SeriesBatch(b.metric, b.components.copy(),
                                        b.times.copy(), b.values.copy()))
    if kind == "drop":
        return store.drop_series(op[1].metric, op[1].component)
    if kind == "flush":
        return store.flush()
    if kind == "evict":
        return store.evict_chunks_before(op[1], op[2])
    if kind == "import":
        return store.import_chunks(op[1], op[2], op[3])
    if op[1] not in store._series:                  # export
        return None
    return store.export_series(op[1])


def bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes() + str(np.asarray(a).dtype).encode()


def summary_bits(s) -> bytes:
    return struct.pack("<q7d", s.count, s.t_min, s.t_max, s.v_min, s.v_max,
                       s.v_sum, s.v_first, s.v_last)


def series_state(s):
    ht, hv = s.head()
    return (
        list(s.chunks),
        [struct.pack("<2d", *sp) for sp in s.chunk_spans],
        [summary_bits(x) for x in s.summaries],
        [None if h is None else bits(h) for h in s.chunk_hints],
        s.n_sealed_samples, s.sealed_bytes, s.n_samples,
        bits(ht), bits(hv),
        None if s.pyramid is None else [
            [bits(c) for c in s.pyramid.level_columns(lv)]
            for lv in s.pyramid.levels
        ],
    )


def chunk_order(store):
    """Every live chunk as (series, blob), in chunk-id order."""
    out = []
    for key, s in store._series.items():
        out.extend((cid, str(key), blob)
                   for cid, blob in zip(s.chunk_ids, s.chunks))
    return [row[1:] for row in sorted(out, key=lambda row: row[0])]


def batch_bits(b):
    return (list(b.components), bits(b.times), bits(b.values))


def assert_same(got, want):
    assert list(got._series) == list(want._series)  # same creation order
    for key in want._series:
        assert series_state(got._series[key]) == \
            series_state(want._series[key]), key
    assert chunk_order(got) == chunk_order(want)
    assert got.stats() == want.stats()
    assert got.points_by_metric() == want.points_by_metric()
    assert got.keys() == want.keys()
    for key in want._series:
        for lo, hi in ((-np.inf, np.inf), (1000.0, 9000.0)):
            assert batch_bits(got.query(key.metric, key.component, lo, hi)) \
                == batch_bits(want.query(key.metric, key.component, lo, hi))
        for prune in (True, False):
            for agg in ("mean", "last", "max"):
                a = got.downsample(key.metric, key.component, 0.0, 2e4,
                                   600.0, agg, prune=prune)
                b = want.downsample(key.metric, key.component, 0.0, 2e4,
                                    600.0, agg, prune=prune)
                assert batch_bits(a) == batch_bits(b)
    for metric in METRICS:
        for agg in ("sum", "last", "count"):
            assert batch_bits(got.aggregate_across(metric, None, -np.inf,
                                                   np.inf, 300.0, agg)) \
                == batch_bits(want.aggregate_across(metric, None, -np.inf,
                                                    np.inf, 300.0, agg))


class TestColumnarIngestMatchesPerSampleOracle:
    @given(ops=ops, cs=st.sampled_from([2, 3, 4, 8]),
           levels=st.sampled_from([None, LEVELS]))
    @settings(max_examples=150, deadline=None)
    def test_every_interleaving_is_bit_exact(self, ops, cs, levels):
        got = TimeSeriesStore(chunk_size=cs, pyramid_levels=levels)
        want = PerSampleStore(chunk_size=cs, pyramid_levels=levels)
        for op in ops:
            assert apply(got, op) == apply(want, op)
        assert_same(got, want)

    @given(ops=st.lists(st.one_of(sweep(), series_chunk(), mixed()),
                        min_size=1, max_size=20),
           cs=st.sampled_from([2, 4]), snap_at=st.integers(0, 20),
           hot=st.sampled_from([0, 64, 1 << 20]))
    @settings(max_examples=40, deadline=None)
    def test_disk_tier_files_and_recovery(self, ops, cs, snap_at, hot):
        with tempfile.TemporaryDirectory() as d:
            got = TimeSeriesStore(chunk_size=cs, pyramid_levels=LEVELS,
                                  disk=DiskTier(Path(d) / "got",
                                                hot_bytes=hot))
            want = PerSampleStore(chunk_size=cs, pyramid_levels=LEVELS,
                                  disk=DiskTier(Path(d) / "want",
                                                hot_bytes=hot))
            for i, op in enumerate(ops):
                if i == snap_at:
                    got.snapshot()
                    want.snapshot()
                apply(got, op)
                apply(want, op)
                # the hot budget holds at every append boundary
                assert got.disk.hot_bytes_used <= hot or not got.disk._hot
            assert_same(got, want)
            assert got.disk.stats() == want.disk.stats()
            got.disk.sync()
            want.disk.sync()
            # segment records and WAL records, byte for byte (the
            # manifest pickle is free to share equal float objects)
            names = sorted(p.name for p in (Path(d) / "want").iterdir()
                           if p.suffix in (".dat", ".log"))
            assert names == sorted(
                p.name for p in (Path(d) / "got").iterdir()
                if p.suffix in (".dat", ".log"))
            for name in names:
                assert (Path(d) / "got" / name).read_bytes() == \
                    (Path(d) / "want" / name).read_bytes(), name
            heads = {k: tuple(bits(a) for a in s.head())
                     for k, s in got._series.items()}
            answers = {k: batch_bits(got.query(k.metric, k.component))
                       for k in got._series}
            points = got.points_by_metric()
            got.disk.simulate_crash()
            want.disk.close()
            back, _ = recover_store(Path(d) / "got", hot_bytes=hot,
                                    snapshot_after=False)
            try:
                assert {k: tuple(bits(a) for a in s.head())
                        for k, s in back._series.items()} == heads
                assert back.points_by_metric() == points
                assert {k: batch_bits(back.query(k.metric, k.component))
                        for k in back._series} == answers
            finally:
                back.disk.close()
