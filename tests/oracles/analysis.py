"""Scalar analysis references: one Python iteration per sample.

The per-sample originals of the columnar analysis kernels, retired
from ``repro.analysis``.  The hypothesis property tests hold the
production detectors and statistics exactly equivalent to these, and
the analysis throughput benchmark measures its speed-ups against them.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.anomaly import CusumDetector, Detection, EwmaDetector
from repro.analysis.stats import ewma, robust_zscores
from repro.analysis.streaming import (
    RunningMoments,
    StreamingOutlierDetector,
    _BusAttached,
)
from repro.core.metric import MetricKey, SeriesBatch

__all__ = [
    "ScalarStreamingOutlierDetector",
    "ScalarStreamingRateWatch",
    "ScalarStreamingStats",
    "cusum_detect_slow",
    "ewma_detect_slow",
    "ewma_slow",
    "rolling_mean_slow",
    "sweep_outliers_slow",
]


def ewma_slow(x: np.ndarray, alpha: float) -> np.ndarray:
    """Per-sample reference for :func:`ewma`."""
    if not (0 < alpha <= 1):
        raise ValueError("alpha must be in (0, 1]")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    acc = x[0] if len(x) else 0.0
    for i, v in enumerate(x):
        acc = alpha * v + (1 - alpha) * acc
        out[i] = acc
    return out


def rolling_mean_slow(x: np.ndarray, window: int) -> np.ndarray:
    """Per-sample reference for :func:`rolling_mean`."""
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(x, dtype=float)
    csum = np.concatenate([[0.0], np.cumsum(x)])
    out = np.empty_like(x)
    for i in range(len(x)):
        lo = max(0, i + 1 - window)
        out[i] = (csum[i + 1] - csum[lo]) / (i + 1 - lo)
    return out


def sweep_outliers_slow(
    batch: SeriesBatch, z_threshold: float = 4.0
) -> list[Detection]:
    """Per-sample reference for :func:`sweep_outliers`."""
    if len(batch) < 4:
        return []
    z = robust_zscores(batch.values)
    out = []
    for c, t, v, zi in zip(batch.components, batch.times, batch.values, z):
        if np.isfinite(zi) and abs(zi) >= z_threshold:
            out.append(
                Detection(
                    time=float(t),
                    metric=batch.metric,
                    component=str(c),
                    score=float(zi),
                    kind="outlier",
                    detail=f"value={v:.4g} z={zi:.1f}",
                )
            )
    out.sort(key=lambda d: -abs(d.score))
    return out


def ewma_detect_slow(det: EwmaDetector, batch: SeriesBatch) -> list[Detection]:
    """Per-sample reference for :meth:`EwmaDetector.detect`."""
    n = len(batch)
    if n <= det.warmup:
        return []
    v = batch.values
    smooth = ewma(v, det.alpha)
    sigma = det._sigma(v)
    out = []
    firing = False
    for i in range(det.warmup, n):
        resid = v[i] - smooth[i - 1]
        breach = abs(resid) > det.band_sigmas * sigma
        if breach and not firing:
            out.append(
                Detection(
                    time=float(batch.times[i]),
                    metric=batch.metric,
                    component=str(batch.components[i]),
                    score=float(resid / sigma),
                    kind="shift",
                    detail=f"resid={resid:.4g} sigma={sigma:.4g}",
                )
            )
        firing = breach
    return out


def cusum_detect_slow(det: CusumDetector, batch: SeriesBatch) -> list[Detection]:
    """Per-sample reference for :meth:`CusumDetector.detect`."""
    n = len(batch)
    if n <= det.warmup:
        return []
    v = batch.values
    mu, sigma = det._estimate(v)
    s_hi = 0.0
    s_lo = 0.0
    out = []
    for i in range(det.warmup, n):
        # winsorize so one wild sample cannot trip the statistic on
        # its own; only *sustained* shifts accumulate past h
        z = float(np.clip((v[i] - mu) / sigma, -4.0, 4.0))
        s_hi = max(0.0, s_hi + z - det.k)
        s_lo = max(0.0, s_lo - z - det.k)
        if s_hi > det.h or s_lo > det.h:
            direction = "up" if s_hi > det.h else "down"
            out.append(
                Detection(
                    time=float(batch.times[i]),
                    metric=batch.metric,
                    component=str(batch.components[i]),
                    score=float(max(s_hi, s_lo)),
                    kind="changepoint",
                    detail=f"direction={direction}",
                )
            )
            s_hi = s_lo = 0.0   # restart after signalling
            mu = float(np.median(v[max(0, i - det.warmup): i + 1]))
    return out


class ScalarStreamingStats(_BusAttached):
    """Per-sample reference for :class:`StreamingStats` (one Python
    object per series).  Kept as the equivalence oracle and benchmark
    baseline; do not use on the hot path."""

    def __init__(self) -> None:
        super().__init__()
        self._moments: dict[MetricKey, RunningMoments] = {}
        self.batches_seen = 0

    def observe(self, batch: SeriesBatch) -> None:
        self.batches_seen += 1
        for c, v in zip(batch.components, batch.values):
            key = MetricKey(batch.metric, str(c))
            m = self._moments.get(key)
            if m is None:
                m = self._moments[key] = RunningMoments()
            m.update(float(v))

    def get(self, metric: str, component: str) -> RunningMoments | None:
        return self._moments.get(MetricKey(metric, component))

    def series_count(self) -> int:
        return len(self._moments)


class ScalarStreamingOutlierDetector(StreamingOutlierDetector):
    """Reference variant driving the per-sample ``sweep_outliers``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._sweep_fn = sweep_outliers_slow


class ScalarStreamingRateWatch(_BusAttached):
    """Per-sample reference for :class:`StreamingRateWatch`."""

    def __init__(self, metric: str, max_rate_per_s: float) -> None:
        super().__init__()
        self.metric = metric
        self.max_rate_per_s = float(max_rate_per_s)
        self._last: dict[str, tuple[float, float]] = {}
        self._detections: list[Detection] = []

    def observe(self, batch: SeriesBatch) -> None:
        if batch.metric != self.metric:
            return
        for c, t, v in zip(batch.components, batch.times, batch.values):
            comp = str(c)
            prev = self._last.get(comp)
            self._last[comp] = (float(t), float(v))
            if prev is None:
                continue
            pt, pv = prev
            dt = float(t) - pt
            if dt <= 0:
                continue
            rate = (float(v) - pv) / dt
            if rate > self.max_rate_per_s:
                self.detections_total += 1
                self._detections.append(
                    Detection(
                        time=float(t),
                        metric=self.metric,
                        component=comp,
                        score=rate / self.max_rate_per_s,
                        kind="threshold",
                        detail=(
                            f"rate {rate:.4g}/s exceeds "
                            f"{self.max_rate_per_s:g}/s"
                        ),
                    )
                )

    def drain(self) -> list[Detection]:
        out = self._detections
        self._detections = []
        return out
