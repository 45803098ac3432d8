"""The per-layer metrics: unit, direction, and what each should move.

Every metric names the end-to-end metric(s) and workload(s) it should
move (``metric@workload``), written down before anything is measured,
so a change that claims a gain in one layer can be checked against the
end-to-end number it was predicted to move.

Time metrics are self times from the traced run: ``ms`` per tick for
layers inside a tick (they sum, with ``stages.tick_self_ms``, to
``bench.tick_ms``), ``ms`` per query for the read path.  Counts are
totals over the traced blocks unless the name says otherwise.
"""

from __future__ import annotations

SI, OOC, FED = "site-ingest", "dashboard-ooc", "federation"
STAGES = ("event-plane", "metric-plane", "job-tracking", "streaming",
          "analysis-hooks", "supervision", "freshness", "response",
          "selfmon")

#: span layers inside a tick, reported as ``<layer>_ms`` per tick
TICK_LAYERS = (
    "cluster.step", "cluster.network", "cluster.scheduler",
    "sources.poll", "sources.collect", "sources.health",
    "transport.publish", "transport.pump", "storage.append",
    "analysis.observe", "response.sec", "response.actions",
    "obs.selfmon", "obs.freshness",
    *(f"stages.{s}" for s in STAGES),
)

_SPEED = (f"sim_speedup@{SI}", f"sim_speedup@{FED}")
_SWEEP = (f"sweep_ms_p50@{SI}",)
# the 600 s health/benchmark sweeps (and the SEC work they trigger) are
# one sweep in ten, above p80: they show in throughput
_HEALTH = (f"sim_speedup@{SI}",)
# dashboard-ooc runs the deferred (partitioned) bus; federation mixes all
_TRANSPORT = (f"sweep_ms_p50@{OOC}", f"sweep_ms_p50@{FED}",
              f"sim_speedup@{FED}")
# the open chunks are staggered, so every minute sweep seals about one
# series in CHUNK_SIZE: sealing shows in the sweep percentiles
_SEAL = (f"sweep_ms_p50@{SI}", f"sweep_ms_p50@{OOC}")
_READ_OOC = (f"agg_ms_p50@{OOC}", f"agg_ms_p80@{OOC}",
             f"drill_ms_p50@{OOC}", f"drill_ms_p90@{OOC}")

#: name -> (unit, better, moves)
LAYERS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "cluster.step_ms": ("ms", "lower", _SPEED),
    "cluster.network_ms": ("ms", "lower", _SPEED),
    "cluster.scheduler_ms": ("ms", "lower", _SPEED),
    "cluster.flows": ("count", "higher", _SPEED),
    "sources.collect_ms": ("ms", "lower", _SWEEP),
    "sources.health_ms": ("ms", "lower", _HEALTH),
    "sources.poll_ms": ("ms", "lower", _SWEEP),
    "sources.samples": ("count", "higher", _SWEEP),
    "sources.errors": ("count", "lower", _SWEEP),
    "transport.publish_ms": ("ms", "lower", _TRANSPORT),
    "transport.pump_ms": ("ms", "lower", _TRANSPORT),
    "transport.in_flight_max": ("count", "lower", _TRANSPORT),
    "transport.dropped": ("count", "lower", _TRANSPORT),
    "storage.append_ms": ("ms", "lower", _SEAL),
    "storage.append_samples_per_s": ("1/s", "higher", _SWEEP),
    "storage.read_ms": ("ms", "lower", _READ_OOC),
    "storage.chunk_cache_hit_ratio": ("ratio", "higher", _READ_OOC),
    "storage.chunks_sealed": ("count", "higher", _SEAL),
    "storage.compression_ratio": ("ratio", "higher",
                                  (f"store_bytes_per_sample@{SI}",
                                   f"store_bytes_per_sample@{OOC}")),
    "storage.disk.spills": ("count", "lower",
                            (f"store_bytes_per_sample@{OOC}",)),
    "storage.disk.loads": ("count", "lower", _READ_OOC),
    "storage.disk.wal_syncs": ("count", "lower",
                               (f"store_bytes_per_sample@{OOC}",
                                f"sweep_ms_p50@{OOC}")),
    "analysis.observe_ms": ("ms", "lower", _SWEEP),
    "analysis.detections": ("count", "higher", _SWEEP),
    "response.sec_ms": ("ms", "lower", _HEALTH),
    "response.actions_ms": ("ms", "lower", _HEALTH),
    "response.alerts": ("count", "higher", _HEALTH),
    "obs.selfmon_ms": ("ms", "lower", (f"sim_speedup@{FED}",)),
    "obs.freshness_ms": ("ms", "lower", (f"sim_speedup@{FED}",)),
    "serve.agg_ms": ("ms", "lower", _READ_OOC[:2]),
    "serve.drill_ms": ("ms", "lower", _READ_OOC[2:]),
    "serve.cache_hit_ratio": ("ratio", "higher", _READ_OOC[:2]),
    "serve.pyramid_ratio": ("ratio", "higher", _READ_OOC[:2]),
    "serve.raw_answers": ("count", "lower", _READ_OOC),
    "serve.rejected": ("count", "lower", _READ_OOC),
    "sites.fanout_ms": ("ms", "lower",
                        (f"agg_ms_p50@{FED}", f"agg_ms_p80@{FED}")),
    "sites.fanouts": ("count", "lower", (f"agg_ms_p50@{FED}",)),
    "sites.partial_answers": ("count", "lower", (f"agg_ms_p50@{FED}",)),
    "runtime.busy_fraction": ("ratio", "higher", (f"sim_speedup@{FED}",)),
    "runtime.barrier_wait_ms": ("ms", "lower", (f"sim_speedup@{FED}",)),
    **{f"stages.{s}_ms": ("ms", "lower",
                          (f"sim_speedup@{SI}", f"sim_speedup@{OOC}",
                           f"sim_speedup@{FED}"))
       for s in STAGES},
    "stages.tick_self_ms": ("ms", "lower",
                            (f"sim_speedup@{SI}", f"sim_speedup@{OOC}",
                             f"sim_speedup@{FED}")),
    "bench.tick_ms": ("ms", "lower",
                      (f"sim_speedup@{SI}", f"sim_speedup@{OOC}",
                       f"sim_speedup@{FED}")),
    "bench.tracing_overhead": ("ratio", "higher", ()),
}
