"""Correctness checks every benchmark run makes before it reports a number.

* the delivery-ledger identity ``published == stored + lost + pending +
  in_flight`` holds with zero unaccounted points at every site;
* a seeded sample of serving-plane answers matches the store's raw
  path (``SeriesQueryMixin`` aggregate / ``prune=False`` downsample,
  called on the class so no pyramid, summary or cache is involved);
  federated answers match the per-site raw reads merged as one store
  would hold them.  Bucket times always match bit for bit, and so do
  the values of every answer except one class: a ``sum`` or ``mean``
  over buckets that hold more than one sample of one series.  The
  serving plane adds those samples in another grouping than the raw
  path's single reduceat (partial sums per rollup bucket or chunk,
  merged by ``rollup.reduce_partials``; single-site, sharded and
  federated alike), so its answers differ from the raw path's in the
  last bits; they are checked to within the rounding error any two
  summation orders of the bucket's samples can differ by
  (``reassociation_tolerance``).  ``tests/test_checks.py`` keeps the
  bit-exact form of that check as a strict expected failure;
* for the default seed, alert and detection counts at every simulated
  10-minute checkpoint equal the recorded reference.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.storage.rollup import bucket_anchor
from repro.storage.tsdb import SeriesQueryMixin

__all__ = ["DEFAULT_SEED", "CHECKPOINT_S", "ledger_failures",
           "answer_failures", "raw_aggregate", "raw_drill",
           "reassociation_tolerance", "aggregate_failures",
           "drill_failures", "reference_failures", "load_reference"]

DEFAULT_SEED = 0
CHECKPOINT_S = 600.0
REFERENCE = Path(__file__).with_name("reference.json")


def ledger_failures(reports: dict) -> list[str]:
    """Sites whose delivery identity leaves points unaccounted."""
    out = []
    for site, r in reports.items():
        if r is None:
            out.append(f"site {site!r} runs unsupervised: no ledger")
        elif r.unaccounted != 0:
            out.append(
                f"site {site!r}: published {r.published} != stored "
                f"{r.stored} + lost {r.lost} + pending {r.pending} + "
                f"in_flight {r.in_flight} ({r.unaccounted} unaccounted)")
    return out


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    na, nb = np.isnan(a), np.isnan(b)
    return bool(np.array_equal(na, nb) and np.array_equal(
        a[~na].view(np.uint64), b[~nb].view(np.uint64)))


def answer_failures(label: str, got, want, tol=None) -> list[str]:
    """A served answer against its raw-path oracle: bucket times bit for
    bit, values bit for bit or, given ``tol``, within ``tol`` per bucket
    (NaN where the oracle has NaN, infinities equal)."""
    if not _same_bits(got.times, want.times):
        return [f"{label}: bucket times differ from the raw path "
                f"({len(got.times)} vs {len(want.times)} buckets)"]
    if tol is None:
        if not _same_bits(got.values, want.values):
            return [f"{label}: values differ from the raw path"]
        return []
    g = np.asarray(got.values, dtype=np.float64)
    w = np.asarray(want.values, dtype=np.float64)
    finite = np.isfinite(w)
    if not (_same_bits(g[~finite], w[~finite])
            and np.all(np.abs(g[finite] - w[finite]) <= tol[finite])):
        return [f"{label}: values differ from the raw path by more than "
                f"summation-order rounding"]
    return []


def reassociation_tolerance(series, anchor: float, step: float,
                            times: np.ndarray, agg: str):
    """Per-bucket bound on how far two summation orders of one bucket's
    samples can differ, or None when no bucket holds two samples of one
    series (every order the program uses is then the raw path's own).

    ``series`` holds one windowed ``(times, values)`` pair per series.
    Each order of adding ``n`` numbers is within ``(n - 1) u sum|v|`` of
    the exact sum (``u`` the unit roundoff), so two orders are within
    twice that; a mean's final division adds one rounding of its own.
    """
    if agg not in ("sum", "mean"):
        return None
    out_b = np.round((np.asarray(times) - anchor) / step).astype(np.int64)
    n = np.zeros(len(out_b))
    mag = np.zeros(len(out_b))
    multi = False
    for t, v in series:
        if not len(t):
            continue
        b = np.floor((np.asarray(t) - anchor) / step).astype(np.int64)
        _, counts = np.unique(b, return_counts=True)
        multi = multi or bool(counts.max() > 1)
        idx = np.searchsorted(out_b, b)
        np.add.at(n, idx, 1)
        np.add.at(mag, idx, np.abs(np.nan_to_num(v, posinf=0.0,
                                                 neginf=0.0)))
    if not multi:
        return None
    u = 2.0 ** -53
    tol = 2.0 * n * u * mag
    if agg == "mean":
        tol = tol / np.maximum(n, 1) + 2.0 * u * mag / np.maximum(n, 1)
    return tol


class _MergedRaw(SeriesQueryMixin):
    """Per-site stores read raw and merged as one store would hold them:
    components ``site/component``, site-major, each site's own order."""

    def __init__(self, pipelines: dict) -> None:
        self._stores = {site: p.tsdb for site, p in pipelines.items()}

    def components(self, metric: str) -> list[str]:
        return [f"{site}/{c}" for site, store in self._stores.items()
                for c in store.components(metric)]

    def query(self, metric, component, t0=-np.inf, t1=np.inf):
        site, _, local = component.partition("/")
        store = self._stores[site]
        return type(store).query(store, metric, local, t0, t1)


class _Raw(SeriesQueryMixin):
    """One site's store read raw (the class's ``query``, no summaries)."""

    def __init__(self, store) -> None:
        self._store = store

    def components(self, metric: str) -> list[str]:
        return self._store.components(metric)

    def query(self, metric, component, t0=-np.inf, t1=np.inf):
        return type(self._store).query(self._store, metric, component,
                                       t0, t1)


def _raw_view(pipelines: dict):
    if len(pipelines) == 1 and "" in pipelines:
        return _Raw(pipelines[""].tsdb)
    return _MergedRaw(pipelines)


def _drill_view(pipelines: dict, component: str):
    site, sep, local = component.partition("/")
    if not sep or "" in pipelines:
        site, local = "", component
    return pipelines[site].tsdb, local


def raw_aggregate(pipelines: dict, metric, t0, t1, step, agg):
    """The raw-path answer to a fleet (or cross-site) aggregate."""
    return _raw_view(pipelines).aggregate_across(
        metric, None, t0, t1, step, agg)


def raw_drill(pipelines: dict, metric, component, t0, t1, step, agg):
    """The forced-decompress answer to one drill-down."""
    store, local = _drill_view(pipelines, component)
    return SeriesQueryMixin.downsample(
        store, metric, local, t0, t1, step, agg, prune=False)


def aggregate_failures(label: str, got, pipelines: dict, metric, t0, t1,
                       step, agg) -> list[str]:
    """A served fleet (or cross-site) aggregate against the raw path."""
    want = raw_aggregate(pipelines, metric, t0, t1, step, agg)
    tol = None
    if agg in ("sum", "mean"):
        series = [(b.times, b.values) for b in _raw_view(pipelines)
                  .query_components(metric, None, t0, t1).values()]
        tol = reassociation_tolerance(series, bucket_anchor(t0, step),
                                      step, want.times, agg)
    return answer_failures(label, got, want, tol)


def drill_failures(label: str, got, pipelines: dict, metric, component,
                   t0, t1, step, agg) -> list[str]:
    """A served drill-down against the forced-decompress path."""
    want = raw_drill(pipelines, metric, component, t0, t1, step, agg)
    store, local = _drill_view(pipelines, component)
    raw = type(store).query(store, metric, local, t0, t1)
    tol = reassociation_tolerance([(raw.times, raw.values)],
                                  bucket_anchor(t0, step), step,
                                  want.times, agg)
    return answer_failures(label, got, want, tol)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def reference_failures(workload: str, checkpoints: list,
                       reference: dict) -> list[str]:
    """Default-seed (alerts, detections) checkpoints against the record.

    Checkpoint ``k`` holds the counts once simulated time reaches
    ``(k + 1) * CHECKPOINT_S``; a run checks every checkpoint it reached
    that the reference records.
    """
    want = reference.get(workload)
    if want is None:
        return [f"no reference counts recorded for {workload!r}"]
    out = []
    for k, (got, exp) in enumerate(zip(checkpoints, want)):
        if list(got) != list(exp):
            out.append(
                f"t={(k + 1) * CHECKPOINT_S:.0f}s: (alerts, detections) "
                f"= {tuple(got)}, reference {tuple(exp)}")
    return out
