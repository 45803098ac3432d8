"""Property-based tests: storage-layer invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event, EventKind, Severity
from repro.core.metric import SeriesBatch
from repro.storage.logstore import LogStore, tokenize
from repro.storage.tsdb import (
    TimeSeriesStore,
    _xor_token_lens,
    compress_chunk,
    decompress_chunk,
)
from tests.oracles.codec import compress_chunk_slow, decompress_chunk_slow

# -- chunk codec -------------------------------------------------------------

# times at millisecond resolution, strictly representable
times_strategy = st.lists(
    st.integers(min_value=0, max_value=10**10),   # milliseconds
    min_size=0,
    max_size=200,
).map(lambda ms: np.asarray(sorted(set(ms)), dtype=np.float64) / 1000.0)

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, width=64,
    min_value=-1e30, max_value=1e30,
)


class TestChunkCodecProperties:
    @given(times=times_strategy, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_lossless(self, times, data):
        values = np.asarray(
            data.draw(
                st.lists(finite_floats, min_size=len(times),
                         max_size=len(times))
            ),
            dtype=np.float64,
        )
        t, v = decompress_chunk(compress_chunk(times, values))
        assert len(t) == len(times)
        assert np.array_equal(v, values)        # values bit-exact
        assert np.allclose(t, times, atol=5e-4)  # times to ms resolution

    @given(times=times_strategy)
    @settings(max_examples=100, deadline=None)
    def test_compressed_never_catastrophically_larger(self, times):
        values = np.arange(len(times), dtype=np.float64)
        blob = compress_chunk(times, values)
        # worst case per sample: varint ts (<=10 B) + header+8 B value
        assert len(blob) <= 20 + len(times) * 19


# adversarial values for the vectorized-vs-scalar equivalence: specials
# (NaN, ±inf, −0.0, denormals) and identical-value runs, in any mix
special_floats = st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
     5e-324, 2.2250738585072014e-308, 1.0, 230.0]
)
adversarial_values = st.lists(
    st.tuples(
        st.one_of(special_floats,
                  st.floats(width=64, allow_nan=True, allow_infinity=True)),
        st.integers(min_value=1, max_value=8),    # run length
    ),
    min_size=0,
    max_size=60,
).map(lambda runs: np.repeat([v for v, _ in runs],
                             [n for _, n in runs]).astype(np.float64))

# irregular, duplicate, and out-of-order timestamps — seal() sorts its
# input, but the codec itself must round-trip any order byte-exactly
unsorted_times_ms = st.lists(
    st.integers(min_value=0, max_value=10**10),
    min_size=0,
    max_size=120,
)


class TestVectorizedCodecEquivalence:
    """The numpy codec against the scalar reference oracle."""

    @given(times_ms=unsorted_times_ms, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_byte_identical_and_bit_exact(self, times_ms, data):
        values = data.draw(adversarial_values)
        n = min(len(times_ms), len(values))
        times = np.asarray(times_ms[:n], dtype=np.float64) / 1000.0
        values = values[:n]
        blob = compress_chunk(times, values)
        assert blob == compress_chunk_slow(times, values)
        st_, sv = decompress_chunk_slow(blob)
        for hint in (None, _xor_token_lens(values)):
            vt, vv = decompress_chunk(blob, lens_hint=hint)
            assert np.array_equal(vt, st_)
            # bit-level equality survives NaN payloads and -0.0
            assert np.array_equal(vv.view(np.uint64), sv.view(np.uint64))
            assert np.array_equal(vv.view(np.uint64),
                                  values.view(np.uint64))


# -- store query semantics ------------------------------------------------------

samples_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**7),       # time ms
        st.floats(allow_nan=False, allow_infinity=False,
                  min_value=-1e12, max_value=1e12),
    ),
    min_size=1,
    max_size=300,
)


class TestStoreProperties:
    @given(samples=samples_strategy,
           chunk_size=st.integers(min_value=2, max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_store_returns_everything_time_sorted(self, samples,
                                                  chunk_size):
        store = TimeSeriesStore(chunk_size=chunk_size)
        for t_ms, v in samples:
            store.append(SeriesBatch.sweep("m", t_ms / 1000.0, ["c"], [v]))
        out = store.query("m", "c")
        assert len(out) == len(samples)
        assert (np.diff(out.times) >= 0).all()
        # multiset of values preserved
        assert sorted(out.values) == sorted(v for _, v in samples)

    @given(samples=samples_strategy, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_window_query_equals_filtered_full_query(self, samples, data):
        store = TimeSeriesStore(chunk_size=8)
        for t_ms, v in samples:
            store.append(SeriesBatch.sweep("m", t_ms / 1000.0, ["c"], [v]))
        t0 = data.draw(st.integers(0, 10**7)) / 1000.0
        t1 = data.draw(st.integers(0, 10**7)) / 1000.0
        windowed = store.query("m", "c", t0, t1)
        full = store.query("m", "c")
        mask = (full.times >= t0) & (full.times < t1)
        assert len(windowed) == mask.sum()
        assert sorted(windowed.values) == sorted(full.values[mask])

    @given(samples=samples_strategy)
    @settings(max_examples=50, deadline=None)
    def test_downsample_conserves_sum(self, samples):
        store = TimeSeriesStore(chunk_size=16)
        for t_ms, v in samples:
            store.append(SeriesBatch.sweep("m", t_ms / 1000.0, ["c"], [v]))
        out = store.downsample("m", "c", 0.0, 10**4 + 1.0, step=100.0,
                               agg="sum")
        total_in = sum(v for _, v in samples)
        assert np.isclose(out.values.sum(), total_in, rtol=1e-9, atol=1e-6)

    @given(samples=samples_strategy, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_pruned_downsample_equals_cold_path(self, samples, data):
        """Summary-served buckets are indistinguishable from decompression."""
        store = TimeSeriesStore(chunk_size=data.draw(
            st.integers(min_value=2, max_value=32)))
        for t_ms, v in samples:
            store.append(SeriesBatch.sweep("m", t_ms / 1000.0, ["c"], [v]))
        if data.draw(st.booleans()):
            store.flush()
        step = data.draw(st.integers(1, 2000))
        agg = data.draw(st.sampled_from(
            ["mean", "sum", "min", "max", "last", "count"]))
        warm = store.downsample("m", "c", 0.0, 10**4 + 1.0, float(step),
                                agg=agg)
        cold = store.downsample("m", "c", 0.0, 10**4 + 1.0, float(step),
                                agg=agg, prune=False)
        assert np.array_equal(warm.times, cold.times)
        if agg in ("min", "max", "last", "count"):
            assert np.array_equal(warm.values, cold.values)
        else:   # sums reassociate across chunk summaries: ulp-level drift
            assert np.allclose(warm.values, cold.values,
                               rtol=1e-9, atol=1e-9)


# -- log store: index agrees with the naive scan oracle --------------------------

words = st.sampled_from(
    "lustre mount failed error recovery slurmd gpu link "
    "node warning started stopped retry timeout".split()
)
messages = st.lists(words, min_size=1, max_size=6).map(" ".join)
events_strategy = st.lists(
    st.tuples(st.integers(0, 10**6), messages),
    min_size=0,
    max_size=100,
)


class TestLogStoreProperties:
    @given(events=events_strategy, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_index_search_equals_scan(self, events, data):
        store = LogStore()
        for t, msg in events:
            store.append(Event(float(t), "n0", EventKind.CONSOLE,
                               Severity.INFO, msg))
        term = data.draw(words)
        via_index = store.search([term])
        # oracle: regex word-boundary scan
        via_scan = store.scan(rf"\b{term}\b")
        assert via_index == via_scan

    @given(events=events_strategy)
    @settings(max_examples=50, deadline=None)
    def test_occurrence_series_total_matches_search(self, events):
        store = LogStore()
        for t, msg in events:
            store.append(Event(float(t), "n0", EventKind.CONSOLE,
                               Severity.INFO, msg))
        starts, counts = store.occurrence_series(
            ["error"], t0=0.0, t1=10**6 + 1.0, bucket_s=1000.0
        )
        assert counts.sum() == len(store.search(["error"]))

    @given(msg=messages)
    @settings(max_examples=50, deadline=None)
    def test_tokenize_stable(self, msg):
        toks = tokenize(msg)
        assert toks == tokenize(" ".join(toks))
