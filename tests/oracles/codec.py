"""Scalar reference codec: one Python iteration per sample.

The original chunk encoder/decoder, retired from the store.  The
production codec (``repro.storage.tsdb.compress_chunk`` /
``decompress_chunk`` and the batched seal behind them) is held
byte-identical to these functions by the codec property tests and the
store oracle, and the codec throughput benchmark measures its speed-up
against them.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["compress_chunk_slow", "decompress_chunk_slow"]


def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63)


def _unzigzag(z: int) -> int:
    return (z >> 1) ^ -(z & 1)


def _write_varint(out: bytearray, value: int) -> None:
    v = _zigzag(value)
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


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


def compress_chunk_slow(times: np.ndarray, values: np.ndarray) -> bytes:
    """Scalar reference encoder (one Python iteration per sample)."""
    n = len(times)
    if n == 0:
        return struct.pack("<I", 0)
    ts_ms = np.round(np.asarray(times, dtype=np.float64) * 1000.0).astype(
        np.int64
    )
    out = bytearray(struct.pack("<I", n))
    # first timestamp raw, first delta, then delta-of-deltas
    out += struct.pack("<q", int(ts_ms[0]))
    prev_delta = 0
    prev_ts = int(ts_ms[0])
    for i in range(1, n):
        t = int(ts_ms[i])
        delta = t - prev_ts
        _write_varint(out, delta - prev_delta)
        prev_delta = delta
        prev_ts = t

    bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    out += struct.pack("<Q", int(bits[0]))
    prev = int(bits[0])
    for i in range(1, n):
        cur = int(bits[i])
        x = cur ^ prev
        prev = cur
        if x == 0:
            out.append(0x00)
            continue
        raw = x.to_bytes(8, "big")
        lead = 0
        while raw[lead] == 0:
            lead += 1
        sig = raw[lead:]
        # header byte: high nibble = leading zero bytes, low = sig length
        out.append((lead << 4) | len(sig))
        out += sig
    return bytes(out)


def decompress_chunk_slow(blob: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Scalar reference decoder (inverse of :func:`compress_chunk_slow`)."""
    (n,) = struct.unpack_from("<I", blob, 0)
    pos = 4
    if n == 0:
        return np.empty(0), np.empty(0)
    ts_ms = np.empty(n, dtype=np.int64)
    (ts_ms[0],) = struct.unpack_from("<q", blob, pos)
    pos += 8
    prev_delta = 0
    prev_ts = int(ts_ms[0])
    for i in range(1, n):
        dod, pos = _read_varint(blob, pos)
        prev_delta += dod
        prev_ts += prev_delta
        ts_ms[i] = prev_ts

    vals = np.empty(n, dtype=np.uint64)
    (first,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    vals[0] = first
    prev = int(first)
    for i in range(1, n):
        header = blob[pos]
        pos += 1
        if header == 0:
            vals[i] = prev
            continue
        lead = header >> 4
        sig_len = header & 0x0F
        sig = blob[pos : pos + sig_len]
        pos += sig_len
        x = int.from_bytes(
            b"\x00" * lead + sig + b"\x00" * (8 - lead - sig_len), "big"
        )
        prev ^= x
        vals[i] = prev
    return ts_ms.astype(np.float64) / 1000.0, vals.view(np.float64).copy()

