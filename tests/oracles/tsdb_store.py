"""Per-sample reference store: the retired ingest path of the TSDB.

:class:`PerSampleStore` is a :class:`~repro.storage.tsdb.TimeSeriesStore`
whose ingest is the original one — a Python list per open head, a
scalar loop for sweep-shaped batches, a per-series grouped append
otherwise, and one seal per filled head, encoded by the scalar codec
(its seals also pass on whether their samples went through the WAL,
which segment records carry).  Everything above the heads (queries, pyramids, eviction, import) is the
production code, so a property test that builds both stores from the
same batches checks exactly the columnar ingest layer: the production
store must produce byte-identical chunks in the same order, equal
summaries, hints and pyramid columns, and the same answers.
"""

from __future__ import annotations

import numpy as np

from repro.core.metric import MetricKey, SeriesBatch
from repro.core.tracectx import HOP_INGEST, MAX_HOPS
from repro.storage import tsdb
from repro.storage.tsdb import TimeSeriesStore, _Series, _summarize, _xor_token_lens

from .codec import compress_chunk_slow

__all__ = ["PerSampleStore"]


class _ListSeries(_Series):
    """A series whose open head is two Python lists."""

    __slots__ = ("head_t", "head_v")

    def __init__(self, pyramid_levels, tier, key: MetricKey) -> None:
        super().__init__(pyramid_levels, tier, key, None, -1)
        self.head_t: list[float] = []
        self.head_v: list[float] = []

    @property
    def head_len(self) -> int:
        return len(self.head_t)

    def head(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.asarray(self.head_t, dtype=np.float64),
                np.asarray(self.head_v, dtype=np.float64))

    def append_array(self, t: np.ndarray, v: np.ndarray, chunk_size: int,
                     logged: bool = True) -> tuple[int, int, int]:
        """Columnar append; seals every time the head fills."""
        chunks = samples = nbytes = 0
        i, n = 0, len(t)
        while i < n:
            space = chunk_size - len(self.head_t)
            take = min(space, n - i)
            self.head_t.extend(t[i: i + take].tolist())
            self.head_v.extend(v[i: i + take].tolist())
            i += take
            if len(self.head_t) >= chunk_size:
                sealed = self.seal(logged)
                if sealed is not None:
                    chunks += 1
                    samples += sealed[0]
                    nbytes += sealed[1]
        return chunks, samples, nbytes

    def seal(self, logged: bool = True) -> tuple[int, int] | None:
        """Seal the open head; returns (samples, bytes) sealed, or None.
        ``logged``: whether the head's samples went through the WAL."""
        if not self.head_t:
            return None
        t = np.asarray(self.head_t)
        v = np.asarray(self.head_v)
        order = np.argsort(t, kind="stable")
        t, v = t[order], v[order]
        blob = compress_chunk_slow(t, v)
        t_r = np.round(t * 1000.0).astype(np.int64).astype(np.float64) / 1000.0
        cid = next(tsdb._chunk_ids)
        self.chunks.append(blob)
        self.chunk_spans.append((float(t_r[0]), float(t_r[-1])))
        self.chunk_ids.append(cid)
        self.summaries.append(_summarize(t_r, v))
        self.chunk_hints.append(_xor_token_lens(v))
        if self.tier is not None:
            self.chunk_refs.append(self.tier.on_seal(self, blob, cid,
                                                     logged))
        else:
            self.chunk_refs.append(None)
        if self.pyramid is not None:
            self.pyramid.add_sealed(t_r, v, self.n_sealed_samples)
        self.n_sealed_samples += len(t)
        self.sealed_bytes += len(blob)
        self.head_t = []
        self.head_v = []
        if self.tier is not None:
            self.tier.enforce_budget()
        return len(t), len(blob)


class PerSampleStore(TimeSeriesStore):
    """The store with its original, per-sample ingest path."""

    def _note_seal(self, sealed: tuple[int, int] | None) -> None:
        if sealed is not None:
            self._sealed_samples += sealed[0]
            self._sealed_chunks += 1
            self._sealed_bytes += sealed[1]

    def _new_series(self, key: MetricKey) -> _ListSeries:
        s = self._series[key] = _ListSeries(self.pyramid_levels, self.disk,
                                            key)
        return s

    def _head_is_empty(self, metric: str, comp) -> bool:
        s = self._series.get(MetricKey(metric, str(comp)))
        return s is None or not s.head_t

    def append(self, batch: SeriesBatch) -> int:
        n = len(batch)
        if n == 0:
            return 0
        self._epochs[batch.metric] = self._epochs.get(batch.metric, 0) + 1
        comps = batch.components.tolist()
        n_uniq = len(set(comps))
        logged = self.disk is not None and not (
            n_uniq == 1 and n % self.chunk_size == 0
            and self._head_is_empty(batch.metric, comps[0])
        )
        if logged:
            self.disk.wal_append(batch)
        tr = batch.trace
        if self.clock is not None and tr is not None:
            hops = tr.hops
            t = self.clock()
            if hops and hops[-1][0] == HOP_INGEST:
                last = hops[-1]
                if t < last[1]:
                    last[1] = t
                if t > last[2]:
                    last[2] = t
            elif len(hops) < MAX_HOPS:
                hops.append([HOP_INGEST, t, t, 1])
            else:
                tr.truncated += 1
        cs = self.chunk_size
        if n_uniq == n:
            get = self._series.get
            t_list = np.asarray(batch.times, dtype=np.float64).tolist()
            v_list = np.asarray(batch.values, dtype=np.float64).tolist()
            for c, t, v in zip(comps, t_list, v_list):
                key = MetricKey(batch.metric, str(c))
                series = get(key)
                if series is None:
                    series = self._new_series(key)
                series.head_t.append(t)
                series.head_v.append(v)
                if len(series.head_t) >= cs:
                    self._note_seal(series.seal())
            self._samples += n
            return n
        times = np.asarray(batch.times, dtype=np.float64)
        values = np.asarray(batch.values, dtype=np.float64)
        uniq, inv = np.unique(batch.components.astype(str),
                              return_inverse=True)
        order = np.argsort(inv, kind="stable")
        bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(inv, minlength=len(uniq))))
        )
        st, sv = times[order], values[order]
        for g in range(len(uniq)):
            key = MetricKey(batch.metric, str(uniq[g]))
            series = self._series.get(key)
            if series is None:
                series = self._new_series(key)
            c, smp, byt = series.append_array(
                st[bounds[g]: bounds[g + 1]],
                sv[bounds[g]: bounds[g + 1]], cs, logged,
            )
            self._sealed_chunks += c
            self._sealed_samples += smp
            self._sealed_bytes += byt
        self._samples += n
        return n

    def flush(self) -> None:
        for s in self._series.values():
            self._note_seal(s.seal())
        if self.disk is not None:
            self.disk.sync()

    def drop_series(self, metric: str, component: str) -> bool:
        s = self._series.pop(MetricKey(metric, component), None)
        if s is None:
            return False
        self._epochs[metric] = self._epochs.get(metric, 0) + 1
        if self.disk is not None:
            self.disk.forget(s)
        self.cache.invalidate(s.chunk_ids)
        self._samples -= s.n_samples
        self._sealed_samples -= s.n_sealed_samples
        self._sealed_chunks -= len(s.chunks)
        self._sealed_bytes -= s.sealed_bytes
        return True

    def export_series(self, key: MetricKey):
        s = self._series[key]
        self._note_seal(s.seal())
        return ([bytes(s.chunk_blob(i)) for i in range(len(s.chunks))],
                list(s.chunk_spans))
