"""Power-signature analysis: KAUST's approach to anomaly detection.

Section II-7: KAUST found "the power profiles of applications were
repeatable enough that they can, through profiling, characterization,
continuous monitoring, and comparison against power profiles of known
good application runs, identify problems with the system and
applications.  Anomalous power-use behaviors within a job can also be
used to detect problems such as hung nodes or load imbalance."

Three pieces:

* :class:`SignatureLibrary` — record known-good runs; a signature is the
  job's per-node mean power resampled onto a normalized progress axis;
* :func:`match` — compare a new run against its app's signature
  (mean absolute deviation as a fraction of signature level);
* :func:`detect_load_imbalance` / :func:`detect_hung_nodes` — the two
  concrete within-job detectors the paper names, driven by per-cabinet
  power spread (Figure 3) and per-node power/progress contrast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.metric import SeriesBatch

__all__ = [
    "PowerSignature",
    "SignatureLibrary",
    "MatchResult",
    "match",
    "detect_load_imbalance",
    "detect_hung_nodes",
]

_GRID = 64  # resampled points per signature


def _resample(times: np.ndarray, values: np.ndarray, n: int = _GRID) -> np.ndarray:
    """Resample a series onto a normalized [0, 1] progress axis."""
    if len(times) < 2:
        raise ValueError("need at least two samples to build a signature")
    x = (times - times[0]) / (times[-1] - times[0])
    grid = np.linspace(0.0, 1.0, n)
    return np.interp(grid, x, values)


@dataclass(frozen=True, slots=True)
class PowerSignature:
    """Known-good per-node power profile of one application."""

    app: str
    profile: np.ndarray      # per-node watts on the normalized grid
    n_runs: int

    @property
    def mean_level(self) -> float:
        return float(self.profile.mean())


class SignatureLibrary:
    """Accumulates known-good runs into per-app signatures."""

    def __init__(self) -> None:
        self._profiles: dict[str, list[np.ndarray]] = {}

    def record_run(
        self, app: str, batch: SeriesBatch, n_nodes: int
    ) -> None:
        """Record one known-good run: ``batch`` is the job's power summed
        over nodes against time; normalized per node before storing."""
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        prof = _resample(batch.times, batch.values / n_nodes)
        self._profiles.setdefault(app, []).append(prof)

    def signature(self, app: str) -> PowerSignature:
        runs = self._profiles.get(app)
        if not runs:
            raise KeyError(f"no known-good runs recorded for {app!r}")
        return PowerSignature(
            app=app,
            profile=np.median(np.stack(runs), axis=0),
            n_runs=len(runs),
        )

    def apps(self) -> list[str]:
        return sorted(self._profiles)


@dataclass(frozen=True, slots=True)
class MatchResult:
    app: str
    deviation: float        # mean |obs - sig| / mean(sig)
    matches: bool
    detail: str = ""


def match(
    library: SignatureLibrary,
    app: str,
    batch: SeriesBatch,
    n_nodes: int,
    tolerance: float = 0.15,
) -> MatchResult:
    """Compare a run's per-node power profile against the known-good
    signature; deviations beyond ``tolerance`` flag a problem run."""
    sig = library.signature(app)
    obs = _resample(batch.times, batch.values / n_nodes)
    level = max(sig.mean_level, 1e-9)
    deviation = float(np.mean(np.abs(obs - sig.profile)) / level)
    return MatchResult(
        app=app,
        deviation=deviation,
        matches=deviation <= tolerance,
        detail=f"deviation={deviation:.3f} tolerance={tolerance:g}",
    )


@dataclass(frozen=True, slots=True)
class ImbalanceFinding:
    detected: bool
    spread_ratio: float        # max/min cabinet power
    cov: float                 # std/mean across cabinets
    hot_cabinets: tuple[str, ...]
    cold_cabinets: tuple[str, ...]


def detect_load_imbalance(
    cabinet_sweep: SeriesBatch,
    spread_threshold: float = 2.0,
) -> ImbalanceFinding:
    """Figure 3 detector: per-cabinet power variation flags imbalance.

    KAUST saw "power usage variation of up to 3 times ... between
    different cabinets"; the detector fires when max/min cabinet power
    exceeds ``spread_threshold`` and names the hot and cold cabinets.
    """
    vals = cabinet_sweep.values
    finite = np.isfinite(vals) & (vals > 0)
    v = vals[finite]
    names = cabinet_sweep.components[finite]
    if len(v) < 2:
        return ImbalanceFinding(False, 1.0, 0.0, (), ())
    spread = float(v.max() / v.min())
    cov = float(v.std() / v.mean())
    detected = spread >= spread_threshold
    med = np.median(v)
    hot = tuple(str(n) for n in names[v > 1.25 * med].tolist())
    cold = tuple(str(n) for n in names[v < 0.75 * med].tolist())
    return ImbalanceFinding(detected, spread, cov, hot, cold)


def detect_hung_nodes(
    node_power_sweep: SeriesBatch,
    allocated_nodes: Sequence[str],
    power_floor_w: float = 150.0,
) -> list[str]:
    """Nodes burning busy-level power while the scheduler says idle.

    The hung-node signature KAUST describes (and the machine model
    produces): the job left — crashed, was killed, or completed around
    the wedge — but the node still draws compute-level power because its
    cores spin.  Cross-referencing the power sweep against the current
    allocation table is the whole detector: power says busy, scheduler
    says nothing runs there.
    """
    allocated = set(allocated_nodes)
    power = node_power_sweep.component_values()
    return sorted(
        node
        for node, p in power.items()
        if node not in allocated and p >= power_floor_w
    )
