"""Filesystem probes and OST counters (NCSA's Lustre monitoring).

NCSA "developed a set of probes that execute on one minute intervals and
measure file I/O and metadata action response latencies. These target
each independent filesystem component" (Section II-2).  Two collectors:

* :class:`FsProbeCollector` — active probes: per-OST small-I/O latency
  and MDS metadata-op latency, the application's-eye view;
* :class:`OstCounterCollector` — passive server-side counters: per-OST
  read/write bandwidth and fill fraction, plus derived filesystem
  aggregates (``fs.read_bps`` — the Figure 4 top panel).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.metric import SeriesBatch
from .base import Collector, CollectorOutput

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.machine import Machine

__all__ = ["FsProbeCollector", "OstCounterCollector"]


class FsProbeCollector(Collector):
    """Active latency probes against every filesystem component."""

    metrics = ("probe.io_latency_s", "probe.md_latency_s")

    def __init__(self, interval_s: float = 60.0, probes_per_ost: int = 1) -> None:
        super().__init__("fs_probes", interval_s)
        self.probes_per_ost = int(probes_per_ost)

    def collect(self, machine: "Machine", now: float) -> CollectorOutput:
        fs = machine.fs
        lat = [
            float(
                np.mean(
                    [fs.probe_io_latency(i)
                     for _ in range(self.probes_per_ost)]
                )
            )
            for i in range(fs.n_ost)
        ]
        md = fs.probe_md_latency()
        return CollectorOutput(
            batches=[
                SeriesBatch.sweep(
                    "probe.io_latency_s", now, fs.ost_name_array, lat
                ),
                SeriesBatch.sweep(
                    "probe.md_latency_s", now, [f"{fs.name}-mds"], [md]
                ),
            ]
        )


class OstCounterCollector(Collector):
    """Passive per-OST service counters + filesystem aggregates."""

    metrics = (
        "ost.read_bps",
        "ost.write_bps",
        "ost.fill_frac",
        "fs.read_bps",
        "fs.write_bps",
        "job.io_bps",
    )

    def __init__(self, interval_s: float = 60.0) -> None:
        super().__init__("ost_counters", interval_s)

    def collect(self, machine: "Machine", now: float) -> CollectorOutput:
        fs = machine.fs
        names = fs.ost_name_array
        batches = [
            SeriesBatch.sweep("ost.read_bps", now, names,
                              fs.ost_read_Bps.copy()),
            SeriesBatch.sweep("ost.write_bps", now, names,
                              fs.ost_write_Bps.copy()),
            SeriesBatch.sweep("ost.fill_frac", now, names,
                              fs.fill_fractions()),
            SeriesBatch.sweep("fs.read_bps", now, [fs.name],
                              [fs.read_Bps_total()]),
            SeriesBatch.sweep("fs.write_bps", now, [fs.name],
                              [fs.write_Bps_total()]),
        ]
        # per-job attribution series (Figure 4's "job responsible")
        if fs.job_io_Bps:
            jobs = sorted(fs.job_io_Bps)
            batches.append(
                SeriesBatch.sweep(
                    "job.io_bps", now,
                    [f"job.{j}" for j in jobs],
                    [sum(fs.job_io_Bps[j]) for j in jobs],
                )
            )
        return CollectorOutput(batches=batches)
