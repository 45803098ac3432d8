"""Numpy-backed time-series store with Gorilla-style chunk compression.

The InfluxDB-class store of Section IV-C: ALCF "chose InfluxDB for its
superior data compression and query performance for high-volume time
series data compared to Cray's PMDB".  This store provides the behaviours
that comparison turns on:

* columnar ingest of :class:`~repro.core.metric.SeriesBatch`es: each
  metric's open heads are one 2-D block (series rows x sample slots)
  behind an identity-memoized component -> row index, so a synchronized
  sweep is one fancy-indexed column write and every batch shape —
  sweeps, series chunks, repeated components — takes the same path,
* per-series chunks sealed at a fixed size and compressed with
  delta-of-delta timestamps + XOR float packing (the Facebook Gorilla
  scheme, the same family InfluxDB's TSM files use).  All heads that
  fill in one append seal in one batched call: a single 2-D encode
  (its Python-level loops are over byte-length *classes*, a handful,
  not samples), summaries from axis reductions and one pyramid fold
  per level.  The test suite holds the chunks byte-identical to a
  scalar codec and a per-sample store, its oracles,
* range queries and server-side downsampling.  Sealing also records a
  :class:`ChunkSummary` (count/min/max/sum/first/last + span), so
  ``downsample`` answers from summaries for chunks wholly inside a
  bucket and decompresses only boundary chunks — the immutable-block
  summary trick InfluxDB TSM and Gorilla both lean on,
* a bounded LRU :class:`~repro.storage.chunkcache.ChunkCache` of
  decompressed sealed chunks (sealed chunks are immutable, so
  cacheability is exact) serving repeated drill-down reads,
* footprint/compression statistics for the storage-comparison bench.

Chunks are transparently decompressed on query; the open (mutable) head
chunk is queried in place.

With a :class:`~repro.storage.diskier.DiskTier` attached (``disk=``),
sealed blobs are additionally persisted to append-only segment files
and the resident set is bounded by the tier's ``hot_bytes`` budget:
cold blobs are spilled to ``(segment, offset, len)`` refs and read back
zero-copy through ``mmap`` (``_Series.chunk_blob`` is the one accessor
every read path goes through).  Appends are WAL-logged first, so heads
survive a crash; see ``storage/diskier.py`` for recovery.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..core.metric import MetricKey, SeriesBatch
from ..core.rowindex import RowIndex
from ..core.tracectx import HOP_INGEST, MAX_HOPS
from .chunkcache import ChunkCache, ChunkCacheStats
from .rollup import (SeriesPyramid, bucket_anchor, fold_partials, fold_rows,
                     reduce_partials)

__all__ = [
    "compress_chunk",
    "decompress_chunk",
    "ChunkSummary",
    "SeriesQueryMixin",
    "TimeSeriesStore",
    "StoreStats",
]


# --------------------------------------------------------------------------
# chunk codec: delta-of-delta timestamps (varint) + XOR-packed float values
#
# The encoder works on a 2-D block of equal-length chunks at once (the
# batched seal); ``compress_chunk`` is its one-row case.  A scalar codec
# in the test suite is the oracle both are held byte-identical to.
# --------------------------------------------------------------------------

def _unzigzag(z: int) -> int:
    return (z >> 1) ^ -(z & 1)


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    shift = 0
    result = 0
    while True:
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return _unzigzag(result), pos
        shift += 7


# varint byte-length thresholds: z needs k+1 bytes when z >= 2**(7k)
_VARINT_THRESH = (np.uint64(1) << (np.uint64(7) * np.arange(1, 10,
                                                            dtype=np.uint64)))
# significant-byte-length thresholds: x needs k+1 bytes when x >= 2**(8k)
_BYTELEN_THRESH = (np.uint64(1) << (np.uint64(8) * np.arange(1, 8,
                                                             dtype=np.uint64)))
_COLS9 = np.arange(9, dtype=np.uint8)


def _varint_block(d: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Zig-zag varint bytes of an int64 ``(rows, k)`` block.

    Returns ``(bytes, keep)``, each ``(rows, k * w)`` with ``w`` the
    widest varint in the block; ``keep`` selects each row's stream
    (None when every varint is one byte, the regular-cadence case).
    """
    z = (d.astype(np.uint64) << np.uint64(1)) ^ (
        d >> np.int64(63)
    ).astype(np.uint64)
    nbytes = np.searchsorted(_VARINT_THRESH, z, side="right") + 1  # 1..10
    width = int(nbytes.max())
    if width == 1:
        return z.astype(np.uint8), None
    rows, k = z.shape
    cols = np.arange(width)
    shifts = np.uint64(7) * cols.astype(np.uint64)
    groups = (z[..., None] >> shifts).astype(np.uint8) & np.uint8(0x7F)
    groups[cols < (nbytes - 1)[..., None]] |= np.uint8(0x80)
    keep = cols < nbytes[..., None]
    return groups.reshape(rows, k * width), keep.reshape(rows, k * width)


def _xor_block(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """XOR-pack consecutive float bit patterns of every row.

    One byteswap yields the big-endian byte matrix of every XOR value;
    token i's significant bytes are its last ``blen[i]`` columns, already
    in stream order.  Scattering each header byte immediately *before*
    its significant bytes makes the whole token a suffix of its 9-byte
    slot, so one broadcast compare selects the packed stream.  Returns
    ``(tokens, keep, blen)``: ``(rows, 9 * (L-1))`` bytes and selection,
    plus the ``(rows, L-1)`` significant-byte counts.
    """
    x = bits[:, 1:] ^ bits[:, :-1]
    rows, m = x.shape
    blen = (x != np.uint64(0)).astype(np.uint8)
    for thresh in _BYTELEN_THRESH:          # compare-sum beats searchsorted
        blen += x >= thresh
    lead = np.uint8(8) - blen
    # (lead & 7) << 4 | blen is 0x00 exactly when x == 0 — no where()
    header = ((lead & np.uint8(7)) << np.uint8(4)) | blen
    tok = np.empty((rows, m, 9), dtype=np.uint8)
    tok[..., 1:] = x.byteswap().view(np.uint8).reshape(rows, m, 8)
    np.put_along_axis(tok, lead[..., None].astype(np.intp),
                      header[..., None], axis=2)
    keep = _COLS9 >= lead[..., None]
    return tok.reshape(rows, m * 9), keep.reshape(rows, m * 9), blen


def _encode_rows(
    ts_ms: np.ndarray, bits: np.ndarray
) -> tuple[list[bytes], np.ndarray | None]:
    """Encode each row of ``(rows, L)`` ms-times / float bits as a chunk.

    Every section of every row is laid out side by side in one byte
    matrix with a selection mask; one row-major boolean take emits all
    chunks back to back, which are then cut at the per-row lengths.
    Returns the blobs and the XOR significant-byte counts (None for
    ``L < 2``), from which the block index hints derive.
    """
    rows, n = ts_ms.shape
    parts: list[tuple[np.ndarray, np.ndarray | None]] = [
        (np.full((rows, 1), n, dtype="<u4").view(np.uint8), None),
        (np.ascontiguousarray(ts_ms[:, :1], dtype="<i8").view(np.uint8),
         None),
    ]
    if n > 1:
        deltas = np.diff(ts_ms, axis=1)
        # the first delta-of-delta IS the first delta — typically one
        # whole collection interval, far larger than the rest — so it is
        # its own section, keeping the rest's byte width uniform
        parts.append(_varint_block(deltas[:, :1]))
        if n > 2:
            parts.append(_varint_block(np.diff(deltas, axis=1)))
    parts.append((np.ascontiguousarray(bits[:, :1], dtype="<u8")
                  .view(np.uint8), None))
    blen = None
    if n > 1:
        tok, keep, blen = _xor_block(bits)
        parts.append((tok, keep))
    width = sum(p.shape[1] for p, _ in parts)
    mat = np.empty((rows, width), dtype=np.uint8)
    sel = np.ones((rows, width), dtype=bool)
    at = 0
    for p, keep in parts:
        w = p.shape[1]
        mat[:, at:at + w] = p
        if keep is not None:
            sel[:, at:at + w] = keep
        at += w
    flat = mat[sel].tobytes()
    ends = np.cumsum(sel.sum(axis=1)).tolist()
    starts = [0] + ends[:-1]
    return [flat[a:b] for a, b in zip(starts, ends)], blen


def compress_chunk(times: np.ndarray, values: np.ndarray) -> bytes:
    """Compress one sealed chunk (the one-row case of the batched
    encoder).

    Timestamps are stored at millisecond resolution as zig-zag varint
    delta-of-deltas — regular collection intervals (the common case:
    synchronized sweeps every 60 s) collapse to one byte per sample.
    Values are stored XOR-ed against the previous value with a
    byte-aligned (leading-zero-bytes, significant-bytes) header; runs of
    identical values (idle gauges) cost two bytes each.
    """
    t = np.asarray(times, dtype=np.float64)
    if len(t) == 0:
        return struct.pack("<I", 0)
    ts_ms = np.round(t * 1000.0).astype(np.int64)
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    return _encode_rows(ts_ms[None, :], bits[None, :])[0][0]


def _token_starts(sec: np.ndarray, n_tok: int) -> np.ndarray:
    """Byte offsets of the ``n_tok`` XOR tokens in ``sec``.

    Token boundaries form a linked chain (each header byte encodes its
    token's length), which resists naive vectorization.  Two tiers:

    1. speculative uniform stride — if every token has the same length
       (constant gauges: all ``0x00``; fully noisy floats: all 9-byte)
       the starts are an arange, verified with one O(n) gather;
    2. otherwise pointer-doubled jump tables are squared only until
       anchors are cheap to walk scalarly (the anchor count balances
       ~1 ns/elem table squaring against ~100 ns/step Python walking),
       then the gaps fill by halving strides through the saved
       intermediate tables — O(m·log(n/anchors)) gather work instead of
       O(m·log n).
    """
    m = len(sec)
    nib = (sec & np.uint8(0x0F)).astype(np.int64)   # token len - 1
    stride = int(nib[0]) + 1
    if m == n_tok * stride:
        idx = np.arange(n_tok, dtype=np.int64) * stride
        if stride == 1 or bool((nib[idx] == stride - 1).all()):
            return idx
    jump = np.arange(1, m + 18, dtype=np.int64)
    jump[:m] += nib
    jump[m:] = m                          # sentinel zone: chains park here
    tables = [jump]
    step = 1
    anchors = max(512, m >> 5)
    while n_tok // step > anchors:
        jump = jump[jump]
        tables.append(jump)
        step *= 2
    top = tables[-1]
    tok = np.empty(n_tok, dtype=np.int64)
    item = top.item
    p = 0
    for i in range(0, n_tok, step):
        tok[i] = p
        p = item(p)
    for k in range(len(tables) - 2, -1, -1):
        s = 1 << k
        base = np.arange(0, n_tok - s, 2 * s, dtype=np.int64)
        tok[base + s] = tables[k][tok[base]]
    return tok


def _xor_token_lens(values: np.ndarray) -> np.ndarray | None:
    """Per-token byte lengths of a chunk's XOR section (the block index).

    The one irreducibly sequential part of decoding is walking the XOR
    token chain, so the store keeps this 1-byte-per-sample index for
    each sealed chunk — the same role as the block index in an InfluxDB
    TSM file.  Returns None when every token has the same length (the
    decoder's uniform-stride check recovers that case in O(n) anyway),
    which covers constant gauges for free.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    if len(bits) < 2:
        return None
    x = bits[1:] ^ bits[:-1]
    blen = (x != np.uint64(0)).astype(np.uint8)
    for thresh in _BYTELEN_THRESH:
        blen += x >= thresh
    lens = blen + np.uint8(1)
    if bool((lens == lens[0]).all()):
        return None
    return lens


def decompress_chunk(
    blob: bytes, lens_hint: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`compress_chunk` (vectorized).

    Variable-length token boundaries are recovered without a per-sample
    Python loop: varint ends are the bytes with a clear continuation
    bit, and XOR-token starts come from the chunk's
    :func:`_xor_token_lens` block index when the caller has one (one
    cumsum), else from a pointer-doubled chase over the per-byte skip
    table.
    """
    (n,) = struct.unpack_from("<I", blob, 0)
    if n == 0:
        return np.empty(0), np.empty(0)
    buf = np.frombuffer(blob, dtype=np.uint8)
    pos = 4
    (first_ts,) = struct.unpack_from("<q", blob, pos)
    pos += 8
    ts_ms = np.empty(n, dtype=np.int64)
    ts_ms[0] = first_ts
    if n > 1:
        dod = np.empty(n - 1, dtype=np.int64)
        # the first delta-of-delta IS the first delta — typically large
        # (one collection interval), so parse it scalarly and fast-path
        # the rest, which is all zeros on a regular cadence
        dod[0], off = _read_varint(blob, pos)
        rest = buf[off : off + n - 2]
        if len(rest) == n - 2 and bool((rest < 0x80).all()):
            z = rest.astype(np.uint64)        # every varint is one byte
            pos = off + n - 2
        else:
            sec = buf[off : off + 10 * (n - 2)]   # varints <= 10 bytes each
            ends = np.flatnonzero(sec < 0x80)[: n - 2]
            starts = np.empty(n - 2, dtype=np.int64)
            starts[0] = 0
            starts[1:] = ends[:-1] + 1
            lens = ends - starts + 1
            cols = np.arange(int(lens.max()))
            idx = np.minimum(starts[:, None] + cols[None, :], len(sec) - 1)
            mat = sec[idx].astype(np.uint64) & np.uint64(0x7F)
            valid = cols[None, :] < lens[:, None]
            shifts = np.uint64(7) * cols.astype(np.uint64)
            z = ((mat << shifts[None, :]) * valid).sum(axis=1,
                                                       dtype=np.uint64)
            pos = off + int(ends[-1]) + 1
        dod[1:] = ((z >> np.uint64(1))
                   ^ (np.uint64(0) - (z & np.uint64(1)))).view(np.int64)
        deltas = np.cumsum(dod)
        ts_ms[1:] = first_ts + np.cumsum(deltas)

    (first_val,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    bits = np.empty(n, dtype=np.uint64)
    bits[0] = first_val
    if n > 1:
        sec = buf[pos:]
        m = len(sec)
        if (
            lens_hint is not None
            and lens_hint.size == n - 1
            and int(lens_hint.sum(dtype=np.int64)) == m
        ):
            tok = np.empty(n - 1, dtype=np.int64)
            tok[0] = 0
            np.cumsum(lens_hint[:-1], dtype=np.int64, out=tok[1:])
        else:
            tok = _token_starts(sec, n - 1)
        hdr = sec[tok].astype(np.int64)
        slen = hdr & 0x0F                    # hdr == 0 -> slen = 0 (x == 0)
        lead = hdr >> 4
        # read 8 raw bytes after each header (zero-padded past the end)
        # as a big-endian word: its top slen bytes are the significant
        # bytes, repositioned with two shifts
        padded = np.concatenate([sec, np.zeros(8, dtype=np.uint8)])
        windows = np.lib.stride_tricks.sliding_window_view(padded, 8)
        raw = windows[tok + 1]               # (n-1, 8) row gather
        words = np.ascontiguousarray(raw).view(np.uint64).ravel().byteswap()
        drop = np.minimum(8 * (8 - slen), 63).astype(np.uint64)
        place = np.maximum(8 * (8 - lead - slen), 0).astype(np.uint64)
        x = (words >> drop) << place
        bits[1:] = np.where(slen == 0, np.uint64(0), x)
        np.bitwise_xor.accumulate(bits, out=bits)
    return ts_ms.astype(np.float64) / 1000.0, bits.view(np.float64)


# --------------------------------------------------------------------------
# the store
# --------------------------------------------------------------------------

# read-only on purpose: module state shared by every store/worker must
# not be mutable (the shared-state lint gate enforces this tree-wide)
_AGGS: Mapping[str, Callable[[np.ndarray], float]] = MappingProxyType({
    "mean": lambda a: float(a.mean()),
    "sum": lambda a: float(a.sum()),
    "min": lambda a: float(a.min()),
    "max": lambda a: float(a.max()),
    "last": lambda a: float(a[-1]),
    "count": lambda a: float(len(a)),
})

#: process-wide chunk ids: unique across every store, so one shared
#: cache can never alias chunks from different stores or shards
_chunk_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class ChunkSummary:
    """Seal-time aggregates of one immutable chunk.

    Computed from the exact arrays the chunk decompresses back to
    (timestamps at millisecond resolution, values bit-exact), so a
    summary-served bucket is indistinguishable from a decompress-served
    one up to float summation order.
    """

    count: int
    t_min: float
    t_max: float
    v_min: float
    v_max: float
    v_sum: float
    v_first: float
    v_last: float


def _summarize(t: np.ndarray, v: np.ndarray) -> ChunkSummary:
    return ChunkSummary(
        count=len(t),
        t_min=float(t[0]),
        t_max=float(t[-1]),
        v_min=float(np.min(v)),
        v_max=float(np.max(v)),
        v_sum=float(np.sum(v)),
        v_first=float(v[0]),
        v_last=float(v[-1]),
    )


def _cached_decompress(
    cache: ChunkCache | None,
    chunk_id: int,
    blob: bytes,
    lens_hint: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    if cache is not None:
        hit = cache.get(chunk_id)
        if hit is not None:
            return hit
    t, v = decompress_chunk(blob, lens_hint)
    if cache is not None:
        cache.put(chunk_id, t, v)
    return t, v


@dataclass(frozen=True, slots=True)
class StoreStats:
    series: int
    samples: int
    sealed_chunks: int
    compressed_bytes: int
    raw_bytes: int

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes == 0:
            return float("nan")
        return self.raw_bytes / self.compressed_bytes


class _HeadBlock:
    """The open heads of one metric's series, stored columnar.

    ``index`` maps component -> row (the shared
    :class:`~repro.core.rowindex.RowIndex`, identity-memoized per
    components array); row ``r`` holds series ``series[r]``'s unsealed
    samples in ``head_t[r, :fill[r]]`` / ``head_v[r, :fill[r]]`` in
    arrival order.  Both axes grow by doubling: rows as series appear,
    width only as far as the fullest head needs (at most the chunk
    size), so stores whose heads never fill never pay for full-width
    rows.  Dropped series leave a dead row (``series[r] is None``).
    """

    __slots__ = ("index", "series", "head_t", "head_v", "fill")

    def __init__(self) -> None:
        self.index = RowIndex()
        self.series: list[_Series | None] = []
        self.head_t = np.empty((0, 0))
        self.head_v = np.empty((0, 0))
        self.fill = np.zeros(0, dtype=np.int64)

    def reserve(self, width: int, limit: int) -> None:
        """Room for every indexed row and ``width`` samples per row
        (at most ``limit``, the chunk size)."""
        rows = len(self.index)
        cap_r, cap_w = self.head_t.shape
        if rows <= cap_r and width <= cap_w:
            return
        new_r = max(cap_r, 16)
        while new_r < rows:
            new_r *= 2
        new_w = max(cap_w, min(8, limit))
        while new_w < min(width, limit):
            new_w = min(2 * new_w, limit)
        for name in ("head_t", "head_v"):
            old = getattr(self, name)
            grown = np.empty((new_r, new_w))
            grown[:cap_r, :cap_w] = old
            setattr(self, name, grown)
        fill = np.zeros(new_r, dtype=np.int64)
        fill[:cap_r] = self.fill
        self.fill = fill


class _Series:
    """One (metric, component) series: sealed chunks + open head.

    Parallel to ``chunks``: ``chunk_spans`` (rounded-ms time span),
    ``chunk_ids`` (cache keys), ``summaries`` (seal-time aggregates),
    ``chunk_hints`` (XOR block index for fast decode, or None) and
    ``chunk_refs`` (disk-tier location, or None without a tier).  A
    spilled chunk has ``chunks[i] is None`` and is read back through
    :meth:`chunk_blob` — the single accessor every query path uses.
    The open head lives in row ``row`` of the metric's
    :class:`_HeadBlock`; :meth:`head` is its one reader.
    """

    __slots__ = ("chunks", "chunk_spans", "chunk_ids", "summaries",
                 "chunk_hints", "chunk_refs", "n_sealed_samples",
                 "sealed_bytes", "pyramid", "tier", "key", "block", "row")

    def __init__(
        self, pyramid_levels: Sequence[float] | None,
        tier, key: MetricKey, block: _HeadBlock, row: int,
    ) -> None:
        self.tier = tier            # DiskTier (duck-typed) or None
        self.key = key              # needed for segment records
        self.block = block
        self.row = row
        self.chunk_refs: list = []
        self.chunks: list[bytes | None] = []
        self.chunk_spans: list[tuple[float, float]] = []  # (t_min, t_max)
        self.chunk_ids: list[int] = []
        self.summaries: list[ChunkSummary] = []
        self.chunk_hints: list[np.ndarray | None] = []
        self.n_sealed_samples = 0
        self.sealed_bytes = 0       # running sum(len(c) for c in chunks)
        # rollup pyramid maintained incrementally at seal time (serving
        # plane); None keeps seal cost identical to the pre-serve store
        self.pyramid = (
            SeriesPyramid(pyramid_levels) if pyramid_levels else None
        )

    @property
    def head_len(self) -> int:
        return int(self.block.fill[self.row])

    def head(self) -> tuple[np.ndarray, np.ndarray]:
        """Open-head samples in arrival order (views: read, don't keep)."""
        n = self.head_len
        return (self.block.head_t[self.row, :n],
                self.block.head_v[self.row, :n])

    def chunk_blob(self, i: int):
        """Sealed blob ``i``, resident or mapped from the disk tier.

        Returns ``bytes`` for hot chunks (touching the tier LRU) or a
        zero-copy ``memoryview`` over the segment mmap for spilled ones
        — :func:`decompress_chunk` accepts either.
        """
        blob = self.chunks[i]
        if blob is not None:
            if self.tier is not None:
                self.tier.touch(self.chunk_ids[i])
            return blob
        return self.tier.load(self.chunk_refs[i])

    def read(
        self, t0: float, t1: float, cache: ChunkCache | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """All samples with ``t0 <= t < t1``, time-sorted."""
        ts: list[np.ndarray] = []
        vs: list[np.ndarray] = []
        for i, (lo, hi) in enumerate(self.chunk_spans):
            if hi < t0 or lo >= t1:
                continue
            ct, cv = _cached_decompress(cache, self.chunk_ids[i],
                                        self.chunk_blob(i),
                                        self.chunk_hints[i])
            mask = (ct >= t0) & (ct < t1)
            ts.append(ct[mask])
            vs.append(cv[mask])
        ht, hv = self.head()
        if len(ht):
            mask = (ht >= t0) & (ht < t1)
            ts.append(ht[mask])
            vs.append(hv[mask])
        if not ts:
            return np.empty(0), np.empty(0)
        t = np.concatenate(ts)
        v = np.concatenate(vs)
        order = np.argsort(t, kind="stable")
        return t[order], v[order]

    def rebuild_pyramid(self, cache: ChunkCache | None) -> None:
        """Re-fold every sealed chunk (eviction / archive-reload path)."""
        if self.pyramid is None:
            return
        self.pyramid = SeriesPyramid(self.pyramid.levels)
        seq_base = 0
        for i in range(len(self.chunks)):
            ct, cv = _cached_decompress(cache, self.chunk_ids[i],
                                        self.chunk_blob(i),
                                        self.chunk_hints[i])
            self.pyramid.add_sealed(ct, cv, seq_base)
            seq_base += len(ct)

    @property
    def n_samples(self) -> int:
        return self.n_sealed_samples + self.head_len

    def compressed_bytes(self) -> int:
        return self.sealed_bytes + 16 * self.head_len


# --------------------------------------------------------------------------
# vectorized bucketing helpers (shared by downsample / aggregate_across)
# --------------------------------------------------------------------------

def _bucket_starts(t: np.ndarray, anchor: float,
                   step: float) -> tuple[np.ndarray, np.ndarray]:
    """Bucket ids and segment starts of a time-sorted array.

    ``anchor`` is the grid origin from
    :func:`~repro.storage.rollup.bucket_anchor` — always a step-grid
    point, so raw bucketing, summary pruning, and the rollup pyramids
    all agree on bucket boundaries.
    """
    buckets = np.floor((t - anchor) / step).astype(np.int64)
    cuts = np.flatnonzero(buckets[1:] != buckets[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    return buckets, starts


def _bucket_agg(
    t: np.ndarray, v: np.ndarray, anchor: float, step: float, agg: str
) -> tuple[np.ndarray, np.ndarray]:
    """One reduceat pass over a time-sorted series -> (bucket_t, agg_v)."""
    buckets, starts = _bucket_starts(t, anchor, step)
    out_t = anchor + buckets[starts] * step
    if agg == "sum":
        out_v = np.add.reduceat(v, starts)
    elif agg == "mean":
        counts = np.diff(np.append(starts, len(v)))
        out_v = np.add.reduceat(v, starts) / counts
    elif agg == "min":
        out_v = np.minimum.reduceat(v, starts)
    elif agg == "max":
        out_v = np.maximum.reduceat(v, starts)
    elif agg == "last":
        ends = np.append(starts[1:], len(v))
        out_v = v[ends - 1]
    else:                              # count
        out_v = np.diff(np.append(starts, len(v))).astype(np.float64)
    return out_t, out_v


class SeriesQueryMixin:
    """Query-layer methods shared by every store with the series API.

    Anything exposing ``query(metric, component, t0, t1)`` and
    ``components(metric)`` gets multi-series queries, server-side
    downsampling, and cross-component aggregation for free — this is
    what lets :class:`~repro.storage.sharded.ShardedTimeSeriesStore`
    present the exact single-store query surface over K shards.

    Stores that additionally expose ``_series_view(metric, component)``
    (the chunk-level surface: a :class:`_Series` plus its cache) get the
    summary-pruned ``downsample`` fast path: chunks wholly inside one
    bucket are answered from their seal-time :class:`ChunkSummary` and
    never decompressed.
    """

    def query_components(
        self,
        metric: str,
        components: Sequence[str] | None = None,
        t0: float = -np.inf,
        t1: float = np.inf,
    ) -> dict[str, SeriesBatch]:
        """Range query many series at once (drill-down working set)."""
        comps = (
            list(components)
            if components is not None
            else self.components(metric)
        )
        return {c: self.query(metric, c, t0, t1) for c in comps}

    def downsample(
        self,
        metric: str,
        component: str,
        t0: float,
        t1: float,
        step: float,
        agg: str = "mean",
        prune: bool = True,
    ) -> SeriesBatch:
        """Server-side downsampling into fixed buckets of ``step`` seconds.

        Empty buckets are omitted (not NaN-filled); bucket timestamps are
        the bucket start on the *step-aligned grid*
        (:func:`~repro.storage.rollup.bucket_anchor`), so a window whose
        ``t0`` is not step-aligned still lands on the same boundaries as
        every other query path — the first bucket may start before
        ``t0``, while the sample filter itself stays ``[t0, t1)``.  With
        ``prune=True`` (default) sealed chunks wholly inside one bucket
        are answered from chunk summaries without decompression;
        ``prune=False`` forces the decompress path (the equivalence
        oracle and the cold-vs-warm benchmark).
        """
        if agg not in _AGGS:
            raise ValueError(f"unknown agg {agg!r}; choose from {sorted(_AGGS)}")
        if step <= 0:
            raise ValueError("step must be positive")
        view = getattr(self, "_series_view", None)
        if prune and view is not None and np.isfinite(t0):
            sv = view(metric, component)
            if sv is None:
                return SeriesBatch.empty(metric)
            return self._downsample_pruned(metric, component, sv[0], sv[1],
                                           t0, t1, step, agg,
                                           bucket_anchor(t0, step))
        raw = self.query(metric, component, t0, t1)
        if not len(raw):
            return SeriesBatch.empty(metric)
        anchor = bucket_anchor(t0 if np.isfinite(t0) else float(raw.times[0]),
                               step)
        out_t, out_v = _bucket_agg(raw.times, raw.values, anchor, step, agg)
        return SeriesBatch.for_component(metric, component, out_t, out_v)

    def _downsample_pruned(
        self,
        metric: str,
        component: str,
        series: "_Series",
        cache: ChunkCache | None,
        t0: float,
        t1: float,
        step: float,
        agg: str,
        anchor: float,
    ) -> SeriesBatch:
        """Chunk-summary-pruned downsample.

        Per overlapping chunk: if it sits wholly inside the window *and*
        inside one bucket of the ``(anchor, step)`` grid, contribute its
        summary; otherwise decompress (through the cache) and bucket its
        windowed samples.  ``seq`` numbers reproduce the stable
        time-sort of the decompress path, so order-sensitive aggs
        (``last``) agree exactly.  Folding and the final merge are the
        shared partial-column helpers in :mod:`repro.storage.rollup` —
        the same code the pyramid planner reduces with.
        """
        pieces: list[tuple[np.ndarray, ...]] = []
        seq_base = 0
        for i, (lo, hi) in enumerate(series.chunk_spans):
            summ = series.summaries[i]
            if hi < t0 or lo >= t1:
                seq_base += summ.count
                continue
            whole = lo >= t0 and hi < t1
            if whole and (np.floor((lo - anchor) / step)
                          == np.floor((hi - anchor) / step)):
                pieces.append((
                    np.asarray([np.int64(np.floor((lo - anchor) / step))]),
                    np.asarray([summ.count]),
                    np.asarray([summ.v_sum]),
                    np.asarray([summ.v_min]),
                    np.asarray([summ.v_max]),
                    np.asarray([summ.t_max]),
                    np.asarray([summ.v_last]),
                    np.asarray([seq_base + summ.count - 1]),
                ))
            else:
                ct, cv = _cached_decompress(cache, series.chunk_ids[i],
                                            series.chunk_blob(i),
                                            series.chunk_hints[i])
                mask = (ct >= t0) & (ct < t1)
                if mask.any():
                    pieces.append(fold_partials(
                        ct[mask], cv[mask], anchor, step,
                        seq=seq_base + np.flatnonzero(mask),
                    ))
            seq_base += summ.count
        ht, hv = series.head()
        if len(ht):
            mask = (ht >= t0) & (ht < t1)
            if mask.any():
                seq = seq_base + np.flatnonzero(mask)
                ht, hv = ht[mask], hv[mask]
                order = np.argsort(ht, kind="stable")
                pieces.append(fold_partials(ht[order], hv[order],
                                            anchor, step, seq=seq[order]))

        if not pieces:
            return SeriesBatch.empty(metric)
        out_t, out_v = reduce_partials(pieces, anchor, step, agg)
        return SeriesBatch.for_component(metric, component, out_t, out_v)

    def aggregate_across(
        self,
        metric: str,
        components: Sequence[str] | None = None,
        t0: float = -np.inf,
        t1: float = np.inf,
        step: float = 60.0,
        agg: str = "sum",
    ) -> SeriesBatch:
        """Aggregate a metric across components into one series.

        This is the Figure 4 "system aggregate" view: e.g. ``fs.read_bps``
        summed over all OSTs per time bucket.  Samples are time-sorted
        across components before bucketing, so order-sensitive aggs
        (``last``) see the true latest sample, not whichever component
        iterated last.  Buckets sit on the step-aligned grid anchored at
        ``bucket_anchor(t0, step)`` (or at the first sample when ``t0``
        is unbounded), matching every other bucketing path.
        """
        if agg not in _AGGS:
            raise ValueError(f"unknown agg {agg!r}")
        per_comp = self.query_components(metric, components, t0, t1)
        ts: list[np.ndarray] = []
        vs: list[np.ndarray] = []
        for batch in per_comp.values():
            if len(batch):
                ts.append(batch.times)
                vs.append(batch.values)
        if not ts:
            return SeriesBatch.empty(metric)
        t = np.concatenate(ts)
        v = np.concatenate(vs)
        order = np.argsort(t, kind="stable")
        t, v = t[order], v[order]
        lo = float(t[0]) if not np.isfinite(t0) else t0
        out_t, out_v = _bucket_agg(t, v, bucket_anchor(lo, step), step, agg)
        return SeriesBatch.for_component(metric, f"agg({agg})", out_t, out_v)


class TimeSeriesStore(SeriesQueryMixin):
    """In-memory TSDB over (metric, component)-keyed series."""

    #: optional zero-arg simulated-clock callable; when attached (by the
    #: pipeline, when freshness tracing is on), ingest stamps a traced
    #: batch's context with its queryable-at time
    clock = None

    #: one store is one shard (ShardedTimeSeriesStore sets its own count)
    n_shards = 1

    #: optional DeliveryLedger, attached by the pipeline; a single store
    #: either appends a batch or raises, so it never stamps one itself
    ledger = None

    def __init__(self, chunk_size: int = 512,
                 cache: ChunkCache | None = None,
                 pyramid_levels: Sequence[float] | None = None,
                 disk=None) -> None:
        if chunk_size < 2:
            raise ValueError("chunk_size must be >= 2")
        self.chunk_size = int(chunk_size)
        # optional out-of-core tier (repro.storage.diskier.DiskTier,
        # duck-typed): sealed blobs persist to segments, appends are
        # WAL-logged, and the resident set is budget-bounded
        self.disk = disk
        # the decompressed-chunk cache may be shared (the sharded store
        # passes one instance to every shard for a global memory bound)
        self.cache = cache if cache is not None else ChunkCache()
        # rollup-pyramid levels maintained at seal time for the serving
        # plane (None = no pyramids, the pre-serve ingest cost)
        self.pyramid_levels = (
            tuple(float(x) for x in pyramid_levels)
            if pyramid_levels else None
        )
        self._series: dict[MetricKey, _Series] = {}
        # per-metric open heads, columnar (see _HeadBlock)
        self._blocks: dict[str, _HeadBlock] = {}
        # per-metric mutation epochs: bumped on any change that can alter
        # query results, so the serving plane's result cache invalidates
        # precisely (stale entries die, untouched metrics keep serving)
        self._epochs: dict[str, int] = {}
        # aggregate counters so stats() is O(1), not a walk over every
        # series — the self-monitoring plane reads it on a cadence
        self._samples = 0
        self._sealed_samples = 0
        self._sealed_chunks = 0
        self._sealed_bytes = 0

    def _block(self, metric: str) -> _HeadBlock:
        blk = self._blocks.get(metric)
        if blk is None:
            blk = self._blocks[metric] = _HeadBlock()
        return blk

    def _register(self, blk: _HeadBlock, metric: str, rows) -> None:
        """Create the series of newly indexed rows, in ``rows`` order."""
        names = blk.index.names
        blk.series.extend([None] * (len(names) - len(blk.series)))
        for r in rows:
            key = MetricKey(metric, names[r])
            blk.series[r] = self._series[key] = _Series(
                self.pyramid_levels, self.disk, key, blk, r)
        blk.reserve(0, self.chunk_size)

    def _new_series(self, key: MetricKey) -> _Series:
        blk = self._block(key.metric)
        self._register(blk, key.metric, (blk.index.add(key.component),))
        return self._series[key]

    def _bypasses_wal(self, blk: _HeadBlock, batch: SeriesBatch) -> bool:
        """True for a chunk-aligned batch of one series with an empty
        head: every point seals into a segment record in the same call."""
        n = len(batch)
        if n % self.chunk_size:
            return False
        comps = batch.components
        c0 = comps[0]
        if comps[-1] != c0 or not bool((comps == c0).all()):
            return False
        row = blk.index.row(str(c0))
        return row is None or blk.fill[row] == 0

    # -- ingest ---------------------------------------------------------------

    def append(self, batch: SeriesBatch) -> int:
        """Ingest a batch; returns the number of samples stored.

        One path for every batch shape.  Components map to head-block
        rows through the identity-memoized index, and each sample lands
        in slot ``fill[row] + rank`` (``rank``: its position among the
        batch's samples for that row) — a sweep is one fancy-indexed
        column write.  Rows that reach ``chunk_size`` seal together in
        one batched call; samples past a seal start the next head.
        """
        n = len(batch)
        if n == 0:
            return 0
        metric = batch.metric
        self._epochs[metric] = self._epochs.get(metric, 0) + 1
        blk = self._blocks.get(metric) or self._block(metric)
        logged = self.disk is not None and not self._bypasses_wal(blk, batch)
        if logged:
            # WAL before any head mutation: unsealed points survive a
            # crash up to the last fsync batch.  Chunk-aligned
            # single-series batches skip the WAL: segments ride the same
            # fsync batch, so logging them first would just double the
            # write volume (the bulk-load shape); their segment records
            # say so, for recovery.
            self.disk.wal_append(batch)
        tr = batch.trace
        if self.clock is not None and tr is not None:
            # inlined TraceContext.stamp(HOP_INGEST, ...) — per-batch
            # hot path; see stamp() for the semantics
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
        idx = blk.index
        before = len(idx.names)
        rows, unique = idx.rows(batch.components)
        if len(idx.names) > before:
            new = range(before, len(idx.names))
            if not unique:
                # series are created in component order for grouped
                # batches, the order their chunks seal in
                new = sorted(new, key=idx.names.__getitem__)
            self._register(blk, metric, new)
        cs = self.chunk_size
        # each sample's slot: fill[row] + its rank among the batch's
        # samples for that row (all ranks are 0 when no row repeats)
        if unique:
            r, t, v = rows, batch.times, batch.values
            slot = blk.fill[r]
        else:
            order = np.argsort(rows, kind="stable")
            r = rows[order]
            t, v = batch.times[order], batch.values[order]
            starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
            counts = np.diff(np.r_[starts, n])
            first = blk.fill[r[starts]]
            slot = np.repeat(first - starts, counts) + np.arange(n)
        top = int(slot.max())
        if top < cs - 1:                   # no head fills
            if top >= blk.head_t.shape[1]:
                blk.reserve(top + 1, cs)
            blk.head_t[r, slot] = t
            blk.head_v[r, slot] = v
            if unique:
                blk.fill[r] = slot + 1
            else:
                blk.fill[r[starts]] = first + counts
        else:
            self._append_sealing(blk, r, t, v, slot, unique, logged)
        self._samples += n
        if self.disk is not None:
            self.disk.enforce_budget()
        return n

    def _append_sealing(self, blk: _HeadBlock, r: np.ndarray,
                        t: np.ndarray, v: np.ndarray, slot: np.ndarray,
                        batch_order: bool, logged: bool) -> None:
        """Write samples whose virtual head position is ``slot`` (may run
        past ``chunk_size``), sealing every chunk that fills.

        Position ``p`` of a row lands in chunk ``p // cs`` at slot
        ``p % cs``: chunk 0 is the current head (its existing prefix
        included), later chunks are made of batch samples alone, and
        the last, partial one becomes the new head.  Chunks seal in the
        order a per-series loop would: batch order for sweeps
        (``batch_order``), else by component name, then chunk number.
        """
        cs = self.chunk_size
        chunk, pos = np.divmod(slot, cs)
        if batch_order:
            starts = np.arange(len(r))
        else:
            starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        g = r[starts]                              # one entry per row
        ends = np.r_[starts[1:], len(r)]
        end_pos = slot[ends - 1] + 1               # virtual fill after
        n_seal = end_pos // cs
        sealing = np.flatnonzero(n_seal)
        if len(sealing):
            if not batch_order:
                names = blk.index.names
                sealing = np.asarray(sorted(
                    sealing.tolist(), key=lambda i: names[g[i]]))
            per = n_seal[sealing]
            base = np.zeros(len(g), dtype=np.int64)
            base[sealing] = np.cumsum(per) - per
            q = int(per.sum())
            ct = np.empty((q, cs))
            cv = np.empty((q, cs))
            # chunk 0 of a sealing row starts with its current head; the
            # copy may overrun a shorter head, but batch samples fill
            # every slot past it below
            w = int(blk.fill[g[sealing]].max())
            if w:
                ct[base[sealing], :w] = blk.head_t[g[sealing], :w]
                cv[base[sealing], :w] = blk.head_v[g[sealing], :w]
            which = np.repeat(np.arange(len(g)), ends - starts)
            into = chunk < n_seal[which]
            dest = base[which[into]] + chunk[into]
            ct[dest, pos[into]] = t[into]
            cv[dest, pos[into]] = v[into]
            series = blk.series
            chunks = [series[g[i]] for i in sealing.tolist()
                      for _ in range(n_seal[i])]
            self._commit(chunks, self._encode_seals(chunks, ct, cv), logged)
            rest = ~into
            r, t, v, pos = r[rest], t[rest], v[rest], pos[rest]
        fill = end_pos - n_seal * cs
        blk.reserve(int(fill.max()), cs)
        blk.head_t[r, pos] = t
        blk.head_v[r, pos] = v
        blk.fill[g] = fill

    def _encode_seals(self, series: list[_Series], t: np.ndarray,
                      v: np.ndarray) -> list[tuple]:
        """Everything a seal records, for every row at once.

        One stable time sort of the rows that need it, one 2-D encode
        (byte-identical to :func:`compress_chunk` per row), ms rounding,
        summaries from axis reductions, block-index hints, and each
        pyramid level folded for every row in one pass
        (:func:`fold_rows`).  Returns one ``(blob, span, summary, hint,
        per-level folds or None, row)`` per row.
        """
        k, n = t.shape
        if n > 1:
            unsorted = np.flatnonzero(~(t[:, 1:] >= t[:, :-1]).all(axis=1))
            if len(unsorted):
                o = np.argsort(t[unsorted], axis=1, kind="stable")
                t[unsorted] = np.take_along_axis(t[unsorted], o, axis=1)
                v[unsorted] = np.take_along_axis(v[unsorted], o, axis=1)
        ts_ms = np.round(t * 1000.0).astype(np.int64)
        blobs, blen = _encode_rows(ts_ms, v.view(np.uint64))
        # spans + summaries use the codec's ms rounding, so they describe
        # exactly what the chunk decompresses back to
        t_r = ts_ms.astype(np.float64) / 1000.0
        t_lo, t_hi = t_r[:, 0].tolist(), t_r[:, -1].tolist()
        summaries = [
            ChunkSummary(n, a, b, c, d, e, f, g) for a, b, c, d, e, f, g in
            zip(t_lo, t_hi, v.min(axis=1).tolist(), v.max(axis=1).tolist(),
                v.sum(axis=1).tolist(), v[:, 0].tolist(), v[:, -1].tolist())
        ]
        hints: list = [None] * k
        if blen is not None:
            lens = blen + np.uint8(1)
            for i in np.flatnonzero(~(lens == lens[:, :1]).all(axis=1)):
                hints[i] = lens[i]
        folds = None
        if self.pyramid_levels:
            # seq numbers continue each series' chunk-list order; a
            # series sealing several chunks here numbers them in turn
            seq = []
            done: dict[int, int] = {}
            for s in series:
                b = done.get(id(s), s.n_sealed_samples)
                seq.append(b)
                done[id(s)] = b + n
            seq_base = np.asarray(seq, dtype=np.int64)
            folds = [fold_rows(t_r, v, lv, seq_base)
                     for lv in series[0].pyramid.levels]
        return [(blob, span, summ, hint, folds, i) for i, (
            blob, span, summ, hint) in enumerate(zip(
                blobs, zip(t_lo, t_hi), summaries, hints))]

    def _commit(self, series: list[_Series], sealed: list[tuple],
                logged: bool = True) -> None:
        """Append encoded chunks to their series, in order (chunk ids,
        segment records); ``logged``: whether their samples are in the
        WAL."""
        tier = self.disk
        nbytes = samples = 0
        for s, (blob, span, summ, hint, folds, i) in zip(series, sealed):
            cid = next(_chunk_ids)
            s.chunks.append(blob)
            s.chunk_spans.append(span)
            s.chunk_ids.append(cid)
            s.summaries.append(summ)
            s.chunk_hints.append(hint)
            # persist the immutable blob now; spill to budget afterwards
            s.chunk_refs.append(tier.on_seal(s, blob, cid, logged)
                                if tier is not None else None)
            if folds is not None:
                s.pyramid.add_folded(folds, i, summ.count)
            s.n_sealed_samples += summ.count
            s.sealed_bytes += len(blob)
            samples += summ.count
            nbytes += len(blob)
        self._sealed_chunks += len(sealed)
        self._sealed_samples += samples
        self._sealed_bytes += nbytes

    def _seal_heads(self, series: Iterable[_Series]) -> bool:
        """Seal the open heads of ``series``, committed in order (flush,
        export).  Heads of equal length encode as one batch; returns
        whether any head was sealed."""
        series = [s for s in series if s.head_len]
        if not series:
            return False
        by_len: dict[int, list[int]] = {}
        for i, s in enumerate(series):
            by_len.setdefault(s.head_len, []).append(i)
        sealed: list = [None] * len(series)
        for at in by_len.values():
            group = [series[i] for i in at]
            heads = [s.head() for s in group]
            for i, row in zip(at, self._encode_seals(
                    group, np.array([h[0] for h in heads]),
                    np.array([h[1] for h in heads]))):
                sealed[i] = row
        self._commit(series, sealed)
        for s in series:
            s.block.fill[s.row] = 0
        return True

    def append_many(self, batches: Iterable[SeriesBatch]) -> int:
        return sum(self.append(b) for b in batches)

    def flush(self) -> None:
        """Seal every open head chunk (checkpoint before archiving)."""
        if self._seal_heads(self._series.values()) and self.disk is not None:
            self.disk.enforce_budget()
        if self.disk is not None:
            self.disk.sync()

    # -- query ---------------------------------------------------------------

    def keys(self, metric: str | None = None) -> list[MetricKey]:
        if metric is None:
            return sorted(self._series, key=str)
        return sorted(
            (k for k in self._series if k.metric == metric), key=str
        )

    def components(self, metric: str) -> list[str]:
        return [k.component for k in self.keys(metric)]

    def query(
        self,
        metric: str,
        component: str,
        t0: float = -np.inf,
        t1: float = np.inf,
    ) -> SeriesBatch:
        """Range query one series -> time-sorted batch."""
        series = self._series.get(MetricKey(metric, component))
        if series is None:
            return SeriesBatch.empty(metric)
        t, v = series.read(t0, t1, self.cache)
        return SeriesBatch.for_component(metric, component, t, v)

    def _series_view(
        self, metric: str, component: str
    ) -> tuple[_Series, ChunkCache] | None:
        """Chunk-level surface for the summary-pruned query path."""
        series = self._series.get(MetricKey(metric, component))
        if series is None:
            return None
        return series, self.cache

    def query_epoch(self, metric: str) -> int:
        """Mutation epoch of a metric — the serving plane's result-cache
        validity token.  Any append/drop/evict/import touching the
        metric bumps it; an unchanged epoch guarantees every query
        answer for the metric is still exact."""
        return self._epochs.get(metric, 0)

    # -- maintenance / stats ---------------------------------------------------

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
        # the row stays allocated, dead; a new series of the same
        # component gets a fresh one
        blk = s.block
        blk.index.forget(component)
        blk.series[s.row] = None
        blk.fill[s.row] = 0
        return True

    def _restore_head(self, s: _Series, t: Sequence[float],
                      v: Sequence[float]) -> None:
        """Reinstate a recovered open head (disk-tier recovery)."""
        n = len(t)
        blk = s.block
        blk.reserve(n, self.chunk_size)
        blk.head_t[s.row, :n] = t
        blk.head_v[s.row, :n] = v
        blk.fill[s.row] = n
        self._samples += n

    def stats(self) -> StoreStats:
        # O(1) from counters maintained at every mutation point: the
        # self-monitoring plane reads this on a cadence, against
        # thousands of series
        head = self._samples - self._sealed_samples
        return StoreStats(
            series=len(self._series),
            samples=self._samples,
            sealed_chunks=self._sealed_chunks,
            compressed_bytes=self._sealed_bytes + 16 * head,
            raw_bytes=self._samples * 16,  # float64 time + float64 value
        )

    def cache_stats(self) -> ChunkCacheStats:
        """Counters of the decompressed-chunk cache (selfmon surface)."""
        return self.cache.stats()

    def per_shard_stats(self) -> list[StoreStats]:
        """Per-shard counters; an unsharded store reports none."""
        return []

    # chunk export/import/eviction (property suites drive spills with these) --

    def export_series(self, key: MetricKey) -> tuple[list[bytes], list[tuple[float, float]]]:
        """Sealed chunks + spans of one series (head is sealed first).

        Blobs are materialized as ``bytes`` (spilled chunks are copied
        out of the mmap) so the caller owns its data outright.
        """
        s = self._series[key]
        if self._seal_heads([s]) and self.disk is not None:
            self.disk.enforce_budget()
        return ([bytes(s.chunk_blob(i)) for i in range(len(s.chunks))],
                list(s.chunk_spans))

    def evict_chunks_before(self, key: MetricKey, t_cut: float) -> int:
        """Evict sealed chunks wholly before ``t_cut``.

        Without a disk tier this *discards* them (the original
        behaviour: parallel lists pruned together, cache entries
        invalidated, counters and pyramid rebuilt, epoch bumped) and
        returns the count dropped.  With a disk tier attached eviction
        becomes a *demotion*: qualifying chunks spill to their on-disk
        refs instead of being lost, queries still answer exactly, no
        counter or epoch changes, and the return value is the number of
        chunks newly demoted by this call.
        """
        s = self._series.get(key)
        if s is None:
            return 0
        if self.disk is not None:
            demoted_ids = []
            for i, span in enumerate(s.chunk_spans):
                if span[1] < t_cut and self.disk.demote(s, i):
                    demoted_ids.append(s.chunk_ids[i])
            if demoted_ids:
                # release the decompressed copies too — demotion exists
                # to shrink the resident set
                self.cache.invalidate(demoted_ids)
            return len(demoted_ids)
        keep: list[tuple] = []
        gone_ids = []
        for row in zip(s.chunks, s.chunk_spans, s.chunk_ids,
                       s.summaries, s.chunk_hints, s.chunk_refs):
            blob, span, cid, summ, _, _ = row
            if span[1] < t_cut:
                gone_ids.append(cid)
                s.n_sealed_samples -= summ.count
                s.sealed_bytes -= len(blob)
                self._samples -= summ.count
                self._sealed_samples -= summ.count
                self._sealed_chunks -= 1
                self._sealed_bytes -= len(blob)
            else:
                keep.append(row)
        s.chunks = [r[0] for r in keep]
        s.chunk_spans = [r[1] for r in keep]
        s.chunk_ids = [r[2] for r in keep]
        s.summaries = [r[3] for r in keep]
        s.chunk_hints = [r[4] for r in keep]
        s.chunk_refs = [r[5] for r in keep]
        if gone_ids:
            self.cache.invalidate(gone_ids)
            self._epochs[key.metric] = self._epochs.get(key.metric, 0) + 1
            s.rebuild_pyramid(self.cache)
        return len(gone_ids)

    def import_chunks(
        self,
        key: MetricKey,
        chunks: list[bytes],
        spans: list[tuple[float, float]],
    ) -> None:
        """Merge exported chunks back into a series.

        Summaries and block-index hints are rebuilt from one decompress
        pass per incoming chunk, so the summary-pruned query path covers
        reloaded history exactly like natively sealed data.
        """
        s = self._series.get(key)
        if s is None:
            s = self._new_series(key)
        incoming = []
        n_in = b_in = 0
        for blob, span in zip(chunks, spans):
            ct, cv = decompress_chunk(blob)
            summ = _summarize(ct, cv) if len(ct) else ChunkSummary(
                0, span[0], span[1], np.nan, np.nan, 0.0, np.nan, np.nan
            )
            hint = _xor_token_lens(cv) if len(cv) else None
            cid = next(_chunk_ids)
            ref = (self.disk.on_seal(s, blob, cid, logged=False)
                   if self.disk is not None else None)
            incoming.append((blob, span, cid, summ, hint, ref))
            n_in += summ.count
            b_in += len(blob)
        merged = sorted(
            incoming + list(zip(s.chunks, s.chunk_spans, s.chunk_ids,
                                s.summaries, s.chunk_hints, s.chunk_refs)),
            key=lambda row: row[1][0],
        )
        s.chunks = [r[0] for r in merged]
        s.chunk_spans = [r[1] for r in merged]
        s.chunk_ids = [r[2] for r in merged]
        s.summaries = [r[3] for r in merged]
        s.chunk_hints = [r[4] for r in merged]
        s.chunk_refs = [r[5] for r in merged]
        s.n_sealed_samples += n_in
        s.sealed_bytes += b_in
        self._epochs[key.metric] = self._epochs.get(key.metric, 0) + 1
        # the merge reordered the chunk list, so seq numbering (and with
        # it every rollup row) is re-derived in the new list order
        s.rebuild_pyramid(self.cache)
        self._samples += n_in
        self._sealed_samples += n_in
        self._sealed_chunks += len(chunks)
        self._sealed_bytes += b_in
        if self.disk is not None:
            self.disk.enforce_budget()

    # hooks used by the out-of-core disk tier -----------------------------------

    def disk_stats(self):
        """Disk-tier counters, or None when running in-memory only."""
        return self.disk.stats() if self.disk is not None else None

    def snapshot(self):
        """Write a disk-tier manifest (series index + pyramid partials
        + heads) and rotate the WAL; returns the manifest path."""
        if self.disk is None:
            raise RuntimeError("snapshot() requires a disk tier")
        return self.disk.snapshot(self)

    def redo_pending_points(self) -> int:
        """Points parked for a later retry (the ledger ``pending``
        gauge): a single store has no redo buffer."""
        return 0

    def points_by_metric(self) -> dict[str, int]:
        """Per-metric stored point counts — the durable truth the
        ledger reconciles against after a crash recovery."""
        out: dict[str, int] = {}
        for key, s in self._series.items():
            out[key.metric] = out.get(key.metric, 0) + s.n_samples
        return out
