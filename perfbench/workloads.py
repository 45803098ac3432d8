"""The three benchmark workloads: how each stack is built and read.

Every workload is a real monitoring stack driven tick by tick through
its public ``step()``, with one closed-loop dashboard client reading
through the real serving plane.  The simulator is the load generator:
there are no wall-clock arrivals, so ticks run as fast as they can and a
dashboard refresh is due at every simulated-minute boundary between
ticks.  Each refresh issues one fleet aggregate and a fixed number of
drill-downs, and waits for each before issuing the next.

Workload shapes (why each exists is recorded in ``BENCHMARK.json``):

``site-ingest``
    one paper-scale site: a 1,536-node dragonfly (4x6x16x4) with the
    full collector complement, flat bus, one in-memory store with
    ``CHUNK_SIZE``-sample chunks whose open heads are staggered (so every
    minute sweep seals some), serial executor, the three streaming
    detectors ``python -m repro obs`` attaches, job churn and seeded
    hung-node / slow-OST faults.  Its
    client reads cabinet-level aggregates and node drill-downs from the
    in-memory store, so it is the no-disk counterpart of
    ``dashboard-ooc``.
``dashboard-ooc``
    reads beside writes: a 768-node dragonfly on the partitioned bus and
    4 shards with the out-of-core tier, a seeded pre-sealed history far
    above the hot budget, and fleet aggregates over all 768 nodes plus
    drill-downs over the full history at a step off the rollup grid, so
    they decode spilled chunks through the mmap.  Live ingest seals and
    spills staggered ``CHUNK_SIZE``-sample chunks and writes the WAL
    throughout.
``federation``
    the ten paper-site presets as shipped, each replaying its own fixed
    job trace, on one clock at the default 5 s step (LANL on a 2-worker
    executor); cross-site
    ``cabinet.power_w`` aggregates and site-qualified drill-downs
    through the federated front end.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

#: every aggregate reads the last simulated hour at 5-minute steps, so
#: each bucket holds several samples of every series (60 s cadence)
AGG_WINDOW_S = 3600.0
AGG_STEP_S = 300.0
#: drill-downs bucket at 135 s: two or three samples of a 60 s series per
#: bucket, and off the 10 s grid, so no rollup level fits and the planner
#: falls back to the store's chunk path
DRILL_STEP_S = 135.0
#: samples per sealed chunk on site-ingest and dashboard-ooc.  Every
#: series of the simulator starts on the same sweep, so left alone every
#: open chunk would fill, and seal, on one sweep CHUNK_SIZE minutes in: a
#: single stall (12 s at site-ingest's 33k series) that a run either
#: misses or is dominated by.  The warm-up staggers the open heads
#: instead (``stagger_heads``), as in a store whose series started at
#: different times, so every minute sweep seals about one series in
#: CHUNK_SIZE and sealing, compression, pyramid folding and
#: (dashboard-ooc) spilling are a steady part of the timed phase.
CHUNK_SIZE = 128
#: spacing of the staggered filler samples: the 60 s collector cadence
STAGGER_SPACING_S = 60.0
#: the dashboard-ooc history: samples per series, spacing, and hot budget
HISTORY_SAMPLES = 256
HISTORY_SPACING_S = 60.0
HISTORY_METRICS = ("node.power_w", "node.temp_c")
HOT_BYTES_PER_SHARD = 128 << 10
#: decoded-chunk cache of the dashboard-ooc store: the history here is a
#: small fraction of a production store's, so the cache is scaled down
#: with it and the drill-down working set (3,072 chunks) exceeds it, as it
#: would in production; every drill-down then takes the same path (decode
#: from the mmap) instead of straddling a cache-hit and a miss cost mode
CHUNK_CACHE_BYTES = 256 << 10
#: the job stream is a fixed trace, like a replayed accounting log: with
#: a seeded stream the simulator's load moves about 20% between seeds,
#: which would swamp the monitoring stack's own cost.  The run seed
#: varies the machine's physics noise, the faults, the history and the
#: queries.
JOB_TRACE_SEED = 0


@dataclass
class Stack:
    """One built workload: the thing that ticks and the surface it reads."""

    stepper: object                       # pipeline or federation
    pipelines: dict                       # site name -> pipeline
    frontend: object                      # QueryFrontend / FederatedFrontend
    tick_s: float
    agg_metric: str
    agg: str
    drill_groups: list                    # lists of (metric, component)
    drill_t0: float
    store_dir: Path | None = None
    federation: object | None = None
    #: which series ``stagger_heads`` staggers (None: no stagger)
    staggered: Callable | None = None
    collectors: list = field(init=False)

    def __post_init__(self) -> None:
        self.collectors = [c for p in self.pipelines.values()
                           for c in p.scheduler.collectors]

    def step(self) -> None:
        self.stepper.step()

    @property
    def now(self) -> float:
        return next(iter(self.pipelines.values())).machine.now

    def sweeps(self) -> int:
        """Collector sweeps so far, across every site (a tick where this
        grows is a tick where some collector was due)."""
        return sum(c.sweeps for c in self.collectors)

    def close(self) -> None:
        for p in self.pipelines.values():
            p.executor.shutdown()
            shards = getattr(p.tsdb, "shards", [p.tsdb])
            for s in shards:
                if getattr(s, "disk", None) is not None:
                    s.disk.close()
        if self.federation is not None:
            self.federation.shutdown()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)


@dataclass(frozen=True)
class Workload:
    name: str
    #: simulated minutes (one dashboard refresh each) per second of
    #: ``--seconds``, sized so that a run at the 20 s run length takes
    #: 25-40 s of wall time on a 2 vCPU Xeon, and every reported
    #: percentile keeps at least ten samples beyond it: 80 minute sweeps
    #: and aggregates (p80), 800 or more drill-downs (p90).
    #: Each percentile sits inside one cost mode: the 600 s health sweeps
    #: are the top tenth of sweeps (above p80)
    refreshes_per_s: float
    drills_per_refresh: int
    build: Callable[[int, int, Path], Stack]
    #: set-ups per untraced run; ``setup_s`` is their median, and the
    #: first one also pays for lazy imports
    setups: int = 5

    def refreshes(self, seconds: float) -> int:
        return max(1, round(seconds * self.refreshes_per_s))


def _build(config, job_seed: int = JOB_TRACE_SEED, **overrides):
    """The site's stack over a machine that replays the fixed job trace
    ``job_seed``."""
    from repro.cluster import JobGenerator
    from repro.sites import build_machine, build_site

    machine = build_machine(config)
    machine.job_generator = JobGenerator(
        mean_interarrival_s=config.mean_interarrival_s,
        max_nodes=config.max_job_nodes, seed=job_seed)
    return build_site(config, machine=machine, overrides=overrides)


def stagger_heads(stack: "Stack", seed: int) -> None:
    """Warm-up of the single sites: tick to the first sweep, then give
    each of ``stack.staggered`` series a seeded number (0 to
    CHUNK_SIZE - 2) of earlier samples, so its open chunk fills, and
    seals, on its own sweep among the next CHUNK_SIZE.

    The filler is a seeded random walk that ends beside the series' first
    live sample, back in time at the collector cadence, appended through
    the public ``append``.  It is done once per run, after the timed
    set-ups: it prepares the benchmark's data, like the warm-up cycle."""
    from repro.core.metric import SeriesBatch

    pipeline = stack.stepper
    while not stack.sweeps():
        pipeline.step()
    tsdb = pipeline.tsdb
    keys = [k for k in tsdb.keys() if stack.staggered(k)]
    rng = np.random.default_rng([seed, 2])
    fill = rng.integers(CHUNK_SIZE - 1, size=len(keys))
    noise = rng.standard_normal(int(fill.sum()))
    back = STAGGER_SPACING_S * np.arange(CHUNK_SIZE - 1, 0, -1)
    at = 0
    for key, k in zip(keys, fill.tolist()):
        if k == 0:
            continue
        first = tsdb.query(key.metric, key.component)
        t0, v0 = float(first.times[0]), float(first.values[0])
        walk = np.cumsum(noise[at:at + k]) * (0.01 * abs(v0) + 0.01)
        at += k
        tsdb.append(SeriesBatch.for_component(
            key.metric, key.component, t0 - back[-k:],
            np.round(v0 + walk[::-1], 2)))


# -- site-ingest ---------------------------------------------------------------

def _add_faults(machine, rng, sim_s: float) -> None:
    """One seeded hung node and one seeded slow OST in every simulated
    hour, so the SEC rules and alerts keep firing for the whole run."""
    from repro.cluster import HungNode, SlowOst

    nodes = machine.topo.nodes
    for hour in range(int(sim_s // 3600.0) + 1):
        base = 3600.0 * hour
        machine.faults.add(HungNode(
            start=base + float(rng.integers(300, 1500)), duration=1200.0,
            node=nodes[int(rng.integers(len(nodes)))]))
        machine.faults.add(SlowOst(
            start=base + float(rng.integers(1500, 2700)), duration=900.0,
            ost=int(rng.integers(machine.fs.n_ost)), bw_factor=0.1))


def build_site_ingest(seed: int, refreshes: int, scratch: Path) -> Stack:
    from repro.analysis.streaming import (
        StreamingOutlierDetector,
        StreamingRateWatch,
        StreamingStats,
    )
    from repro.sites import SiteConfig

    pipeline = _build(SiteConfig(
        topology="dragonfly", groups=4, chassis_per_group=6,
        blades_per_chassis=16, nodes_per_router=4,
        mean_interarrival_s=240.0, max_job_nodes=64, seed=seed,
        transport="flat", chunk_size=CHUNK_SIZE,
    ))
    _add_faults(pipeline.machine, np.random.default_rng(seed),
                60.0 * (refreshes + 1))
    pipeline.add_streaming(StreamingStats())
    pipeline.add_streaming(
        StreamingOutlierDetector(("node.power_w",), z_threshold=6.0))
    pipeline.add_streaming(
        StreamingRateWatch("gpu.ecc_dbe", max_rate_per_s=0.01))
    nodes = pipeline.machine.topo.nodes
    return Stack(
        stepper=pipeline, pipelines={"": pipeline},
        frontend=pipeline.frontend, tick_s=pipeline.tick_s,
        agg_metric="cabinet.power_w", agg="sum",
        drill_groups=[[(m, n) for n in nodes]
                      for m in ("node.power_w", "node.temp_c")],
        drill_t0=0.0, staggered=lambda key: True,
    )


# -- dashboard-ooc ---------------------------------------------------------------

def _prefill_history(tsdb, nodes, rng) -> None:
    """Seeded random-walk history ending where the live clock starts
    (t=0), appended chunk-aligned through the public ``append`` so every
    chunk seals (and spills past the hot budget) during set-up."""
    from repro.core.metric import SeriesBatch

    times = HISTORY_SPACING_S * (np.arange(HISTORY_SAMPLES)
                                 - HISTORY_SAMPLES)
    base = {"node.power_w": (250.0, 2.0), "node.temp_c": (45.0, 0.2)}
    for metric in HISTORY_METRICS:
        level, sd = base[metric]
        for node in nodes:
            walk = level + np.cumsum(rng.normal(0.0, sd, HISTORY_SAMPLES))
            tsdb.append(SeriesBatch.for_component(
                metric, node, times, np.round(walk, 1)))


def build_dashboard_ooc(seed: int, refreshes: int, scratch: Path) -> Stack:
    from repro.sites import SiteConfig
    from repro.storage.chunkcache import ChunkCache
    from repro.storage.rollup import DEFAULT_LEVELS
    from repro.storage.sharded import ShardedTimeSeriesStore

    store_dir = Path(tempfile.mkdtemp(prefix="ooc-", dir=scratch))
    tsdb = ShardedTimeSeriesStore(
        shards=4, chunk_size=CHUNK_SIZE, pyramid_levels=DEFAULT_LEVELS,
        disk_dir=str(store_dir),
        hot_bytes=HOT_BYTES_PER_SHARD,
        cache=ChunkCache(max_bytes=CHUNK_CACHE_BYTES))
    pipeline = _build(SiteConfig(
        topology="dragonfly", groups=4, chassis_per_group=6,
        blades_per_chassis=8, nodes_per_router=4,
        mean_interarrival_s=120.0, max_job_nodes=64, seed=seed,
        transport="partitioned",
    ), tsdb=tsdb)
    nodes = pipeline.machine.topo.nodes
    _prefill_history(pipeline.tsdb, nodes, np.random.default_rng(seed))
    return Stack(
        stepper=pipeline, pipelines={"": pipeline},
        frontend=pipeline.frontend, tick_s=pipeline.tick_s,
        agg_metric="node.power_w", agg="mean",
        drill_groups=[[(m, n) for n in nodes] for m in HISTORY_METRICS],
        drill_t0=-HISTORY_SPACING_S * HISTORY_SAMPLES,
        store_dir=store_dir,
        # the history series' live chunks already share one phase, that
        # of the history; their filler would overlap its sealed chunks
        staggered=lambda key: key.metric not in HISTORY_METRICS,
    )


# -- federation ------------------------------------------------------------------

def build_federation(seed: int, refreshes: int, scratch: Path) -> Stack:
    from repro.sites import Federation
    from repro.sites.presets import paper_sites

    # seed 0 is the presets as shipped; other seeds shift every site's
    # machine and collectors, while each site replays its shipped job
    # trace (see JOB_TRACE_SEED)
    fed = Federation({
        c.name: _build(dataclasses.replace(c, seed=c.seed + 1000 * seed),
                       job_seed=c.seed)
        for c in paper_sites()})
    ffe = fed.frontend()
    # one group per site: the sites differ in store layout, and so in
    # drill-down cost
    groups = [[("node.power_w", f"{site}/{n}")
               for n in p.machine.topo.nodes]
              for site, p in fed.pipelines.items()]
    return Stack(
        stepper=fed, pipelines=dict(fed.pipelines), frontend=ffe,
        tick_s=min(p.tick_s for p in fed.pipelines.values()),
        agg_metric="cabinet.power_w", agg="sum",
        drill_groups=groups, drill_t0=0.0, federation=fed,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("site-ingest", refreshes_per_s=4.0,
                 drills_per_refresh=20, build=build_site_ingest, setups=15),
        Workload("dashboard-ooc", refreshes_per_s=4.0,
                 drills_per_refresh=10, build=build_dashboard_ooc),
        Workload("federation", refreshes_per_s=4.0,
                 drills_per_refresh=12, build=build_federation, setups=15),
    )
}
