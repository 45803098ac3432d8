"""End-to-end benchmark of the monitoring stack, with per-layer tracing.

Run one workload from the repository root::

    python3 perfbench/run.py --workload site-ingest --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics from a traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The first line carries the
run's provenance (host, versions, source hash, seed, parameters); the
line before the result carries the default-seed checkpoint counts, the
host-speed probe's record and the uncalibrated figures.  Every run
checks its outputs (see ``checks.py``) and exits non-zero, with
``"correct": false`` and no metrics, when a check fails.

Every reported time is a wall time calibrated to a reference host speed
(see ``HostProbe``): this benchmark runs on a few vCPUs of a shared host
whose speed swings by half within seconds, as its neighbours come and
go, and raw wall times of the same code spread by more than any usable
bound between runs.

``python3 perfbench/run.py compare PARENT CHANGE ...`` compares two
checkouts; see ``compare.py``.

Work per run is fixed by ``--seconds`` through each workload's
``refreshes_per_s`` (one dashboard refresh per simulated minute), not
by a wall-clock deadline, so every run of one seed does identical work
and its counts and memory are comparable across commits.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: the reference host speed: calibrated times read as if one probe took
#: this long (about its time on an unloaded 2.1 GHz Xeon core)
PROBE_REF_NS = 400_000
#: refresh cycles (simulated minutes) per traced or untraced block of a
#: traced run: ten minutes hold one sweep of every 600 s collector, so
#: every block does the same mix of work
BLOCK_CYCLES = 10
#: probes before the first set-up and after each: a set-up is one long
#: call, and these are the only probes its calibration can use
SETUP_PROBES = 5
#: drill-downs alternate between these aggregations
DRILL_AGGS = ("max", "mean")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- host-speed calibration --------------------------------------------------

def _probe_loop(np) -> float:
    d = {}
    for i in range(1500):
        d[f"k{i}"] = i * 0.5
    a = np.arange(4000.0)[::-1] * 1.0001
    a.sort()
    return sum(d.values()) + float(np.cumsum(a)[-1])


class HostProbe:
    """Times a fixed loop that runs no repository code between timed
    calls (after each set-up, each minute of ticks, each aggregate and
    each batch of drill-downs), and calibrates each call by the probes
    around it.

    The host's speed flips between a fast and a slow state every few to a
    few hundred milliseconds, with the share of slow time drifting over
    minutes.  An event's calibrated time is its wall time times
    ``PROBE_REF_NS`` over the mean probe time within its own length (at
    least ``WINDOW_NS``) either side of it: a short event takes the state
    of the host around it, a long one the average state it ran through.

    The probe cannot see the program's own cost: it runs only while no
    timed call is in flight, its second pass is timed (the first warms its
    data into cache, so the program's memory footprint does not slow it),
    and it is timed in thread CPU time; a probe during which another
    thread of the process ran is discarded (``shared``), so background
    threads the program may start do not slow it either.
    """

    WINDOW_NS = 5_000_000

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self.at: list[int] = []          # wall-clock midpoint of each probe
        self.samples: list[int] = []     # its thread CPU time
        self.shared = 0
        for _ in range(SETUP_PROBES):
            self.sample()

    def sample(self) -> None:
        np = self._np
        # a collection here would cost in proportion to the program's heap
        collecting = gc.isenabled()
        gc.disable()
        try:
            _probe_loop(np)
            w0 = time.perf_counter_ns()
            c0, t0 = time.process_time_ns(), time.thread_time_ns()
            _probe_loop(np)
            dt = time.thread_time_ns() - t0
            shared = time.process_time_ns() - c0 - dt > dt // 10
        finally:
            if collecting:
                gc.enable()
        if shared:
            self.shared += 1
            return
        self.samples.append(dt)
        self.at.append((w0 + time.perf_counter_ns()) // 2)

    @staticmethod
    def call(fn, *args):
        """``(result, exception, (start ns, end ns))`` of one call, with
        no probe after it (see ``timed``)."""
        exc = out = None
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args)
        except Exception as e:   # the caller decides what a raise means
            exc = e
        return out, exc, (t0, time.perf_counter_ns())

    def timed(self, fn, *args):
        """``call``, then a probe."""
        got = self.call(fn, *args)
        self.sample()
        return got

    def calibrate(self, spans: list[tuple[int, int]]):
        """Calibrated ns of each ``(start, end)`` span."""
        np = self._np
        if not spans:
            return np.zeros(0)
        at = np.asarray(self.at)
        cum = np.concatenate(([0], np.cumsum(self.samples)))
        start, end = np.asarray(spans, dtype=np.int64).T
        wall = end - start
        pad = np.maximum(wall, self.WINDOW_NS)
        # the window, and at least the probe either side of the span
        lo = np.minimum(np.searchsorted(at, start - pad),
                        np.searchsorted(at, start) - 1).clip(0)
        hi = np.maximum(np.searchsorted(at, end + pad),
                        np.searchsorted(at, end) + 1).clip(max=len(at))
        return wall * PROBE_REF_NS * (hi - lo) / (cum[hi] - cum[lo])

    def record(self) -> dict:
        return {"probes": len(self.samples), "shared": self.shared,
                "median_us": statistics.median(self.samples) / 1e3,
                "ref_us": PROBE_REF_NS / 1e3}


@dataclass
class Cycle:
    """One simulated minute: its ticks, then one dashboard refresh."""

    traced: bool
    step_ns: int = 0
    cal_ns: float = 0.0       # filled in by ``Runner.calibrate``
    sim_s: float = 0.0


# -- program counters --------------------------------------------------------

def snapshot(stack) -> dict[str, float]:
    """The program's own counters, summed over every site of the stack."""
    s: dict[str, float] = dict.fromkeys((
        "samples_collected", "collector_errors", "dropped", "samples",
        "sealed_chunks", "raw_bytes", "compressed_bytes", "chunk_hits",
        "chunk_misses", "spills", "loads", "wal_syncs", "store_bytes",
        "detections", "alerts", "rejected", "pyramid", "raw", "result_hits",
        "result_misses", "fanouts", "partial", "busy_s", "map_capacity_s",
        "barrier_wait_s"), 0)
    for c in stack.collectors:
        s["samples_collected"] += c.samples_produced
        s["collector_errors"] += c.errors
    for p in stack.pipelines.values():
        s["dropped"] += p.bus.stats().dropped
        st = p.tsdb.stats()
        s["samples"] += st.samples
        s["sealed_chunks"] += st.sealed_chunks
        s["raw_bytes"] += st.raw_bytes
        s["compressed_bytes"] += st.compressed_bytes
        cs = p.tsdb.cache_stats()
        s["chunk_hits"] += cs.hits
        s["chunk_misses"] += cs.misses
        d = p.tsdb.disk_stats()
        if d is not None:
            s["spills"] += d.spills
            s["loads"] += d.loads
            s["wal_syncs"] += d.wal_syncs
        s["store_bytes"] += (d.disk_bytes if d is not None
                             else st.compressed_bytes)
        s["detections"] += sum(det.detections_total for det in
                               p.stage("streaming").detectors)
        s["alerts"] += len(p.alerts.alerts)
        fs = p.frontend.stats()
        s["rejected"] += fs.rejected
        s["pyramid"] += fs.pyramid_answers
        s["raw"] += fs.raw_answers
        s["result_hits"] += fs.cache.hits
        s["result_misses"] += fs.cache.misses
        ex = p.executor.stats
        s["busy_s"] += ex.busy_s
        s["map_capacity_s"] += ex.map_wall_s * p.executor.workers
        s["barrier_wait_s"] += ex.barrier_wait_s
    if stack.federation is not None:
        fst = stack.frontend.stats()
        s["fanouts"] += fst.fanouts
        s["partial"] += fst.partial_answers
    return s


def _add_delta(acc: dict, before: dict, after: dict) -> None:
    for k, v in after.items():
        acc[k] = acc.get(k, 0) + v - before[k]


# -- the closed-loop run -----------------------------------------------------

class Runner:
    """Ticks the stack and plays the dashboard client between ticks."""

    CHECK_SHARE = 0.1          # share of refreshes whose answers are checked

    def __init__(self, workload, stack, seed: int, probe: HostProbe) -> None:
        import numpy as np

        from checks import CHECKPOINT_S

        self.wl = workload
        self.stack = stack
        self.probe = probe
        self.rng = np.random.default_rng(seed)
        self.check_rng = np.random.default_rng([seed, 1])
        self.failures: list[str] = []
        self.checkpoints: list[tuple[int, int]] = []
        self._next_checkpoint = CHECKPOINT_S
        # set-up may have ticked into the first minute
        self._next_minute = (math.floor(stack.now / 60.0 + 1e-9) + 1) * 60.0
        self.reset()

    def reset(self) -> None:
        """Forget what was measured so far (end of warm-up)."""
        self.cycles: list[Cycle] = []
        # (start, end) wall ns of every tick, and the cycle it belongs to
        self.tick_spans: list[tuple[int, int]] = []
        self.tick_cycle: list[int] = []
        # (start, end) of every minute sweep / aggregate / drill-down
        self.spans: dict[str, list[tuple[int, int]]] = {
            "sweep": [], "agg": [], "drill": []}
        self.ticks = 0
        self.queries = 0
        self.raised = 0
        self.in_flight_max = 0

    def cycle(self, traced: bool = False) -> None:
        """Tick up to the next simulated-minute boundary, then refresh.

        The tick that closes the minute is the minute sweep, where every
        60 s collector is due; it is the one ``sweep_ms`` times (the
        federation's 30 s half-sweeps are another cost mode)."""
        stack = self.stack
        cyc = Cycle(traced=traced)
        self.cycles.append(cyc)
        while True:
            before = stack.sweeps()
            _, exc, span = self.probe.call(stack.step)
            if exc is not None:
                raise exc
            self.ticks += 1
            self.tick_spans.append(span)
            self.tick_cycle.append(len(self.cycles) - 1)
            cyc.step_ns += span[1] - span[0]
            cyc.sim_s += stack.tick_s
            if traced:
                self.in_flight_max = max(self.in_flight_max, sum(
                    p.bus.in_flight_points()
                    for p in stack.pipelines.values()))
            now = stack.now
            if now >= self._next_checkpoint - 1e-9:
                self._record_checkpoint()
            if now >= self._next_minute - 1e-9:
                self._next_minute += 60.0
                if stack.sweeps() > before:
                    self.spans["sweep"].append(span)
                break
        # one probe per minute of ticks: a probe after each short tick
        # would evict its caches, and slow the next one
        self.probe.sample()
        self.refresh(now)

    def calibrate(self) -> None:
        """Calibrate every timed span once the run is over (a span's
        window reaches past it), into per-cycle ``cal_ns`` and ``ns``
        (calibrated) and ``raw_ns`` (wall) samples per kind."""
        import numpy as np

        ticks = self.probe.calibrate(self.tick_spans)
        per_cycle = np.bincount(self.tick_cycle, weights=ticks,
                                minlength=len(self.cycles))
        for cyc, cal in zip(self.cycles, per_cycle.tolist()):
            cyc.cal_ns = cal
        self.ns = {k: self.probe.calibrate(v) for k, v in self.spans.items()}
        self.raw_ns = {k: [e - s for s, e in v]
                       for k, v in self.spans.items()}

    def sim_speedup(self, raw: bool = False) -> float:
        """Simulated s per calibrated (or raw) wall s of ``step()`` over
        the untraced cycles, health sweeps included."""
        cycles = [c for c in self.cycles if not c.traced]
        return _ratio(sum(c.sim_s for c in cycles),
                      sum(c.step_ns if raw else c.cal_ns
                          for c in cycles) / 1e9)

    def block_speedup(self, traced: bool) -> float:
        """Median over blocks of ``BLOCK_CYCLES`` consecutive traced (or
        untraced) cycles of their simulated s per calibrated s.  The
        tracing overhead compares these medians, so one unusual block (a
        fault's alert storm) does not count as tracing cost or saving."""
        cycles = [c for c in self.cycles if c.traced == traced]
        blocks = [cycles[i:i + BLOCK_CYCLES]
                  for i in range(0, len(cycles), BLOCK_CYCLES)]
        if not blocks:
            return 0.0
        return statistics.median(
            _ratio(sum(c.sim_s for c in b), sum(c.cal_ns for c in b) / 1e9)
            for b in blocks)

    def _record_checkpoint(self) -> None:
        from checks import CHECKPOINT_S

        alerts = detections = 0
        for p in self.stack.pipelines.values():
            alerts += len(p.alerts.alerts)
            detections += sum(d.detections_total
                              for d in p.stage("streaming").detectors)
        self.checkpoints.append((alerts, detections))
        self._next_checkpoint += CHECKPOINT_S

    def _query(self, kind: str, fn, *args, probe: bool = True):
        self.queries += 1
        out, exc, span = (self.probe.timed if probe else self.probe.call)(
            fn, *args)
        if exc is not None:        # a raising query is a failed query
            self.raised += 1
            self.failures.append(f"query raised {type(exc).__name__}: {exc}")
        self.spans[kind].append(span)
        return out

    def refresh(self, now: float) -> None:
        """One dashboard refresh: a fleet aggregate, then drill-downs.

        Aggregates alternate between the workload's own (``sum`` or
        ``mean``) and ``max`` from one refresh to the next, and drill-downs
        between ``max`` and ``mean`` within a refresh: same windows, same
        read paths, so each query class keeps one cost mode, while the
        checks see both order-free answers and sums over several samples.
        """
        import numpy as np

        from checks import aggregate_failures, drill_failures
        from workloads import AGG_STEP_S, AGG_WINDOW_S, DRILL_STEP_S

        stack = self.stack
        fe = stack.frontend
        # whole grid buckets, the last one holding the newest sweep
        t1 = (np.floor(now / AGG_STEP_S) + 1.0) * AGG_STEP_S
        t0 = t1 - AGG_WINDOW_S
        refresh = len(self.spans["agg"])
        agg_fn = stack.agg if refresh % 2 == 0 else "max"
        agg = self._query("agg", fe.aggregate_across, stack.agg_metric, None,
                          t0, t1, AGG_STEP_S, agg_fn)
        check = self.check_rng.random() < self.CHECK_SHARE
        if check and agg is not None:
            self.failures += aggregate_failures(
                f"aggregate {agg_fn} {stack.agg_metric} at t={now:.0f}",
                agg, stack.pipelines, stack.agg_metric, t0, t1, AGG_STEP_S,
                agg_fn)
        # the target groups take turns, so every run drills each group
        # equally often; the target within a group is seeded
        groups = stack.drill_groups
        n = self.wl.drills_per_refresh
        # the drill-downs of a refresh run back to back, as a dashboard
        # panel issues them, and one probe follows the batch: a probe
        # between two sub-millisecond calls would evict their caches
        answers = []
        for k in range(n):
            group = groups[(refresh * n + k) % len(groups)]
            metric, comp = group[int(self.rng.integers(len(group)))]
            drill_fn = DRILL_AGGS[k % 2]
            got = self._query("drill", fe.downsample, metric, comp,
                              stack.drill_t0, t1, DRILL_STEP_S, drill_fn,
                              probe=False)
            answers.append((metric, comp, drill_fn, got))
        self.probe.sample()
        if check:
            # one drill-down of each aggregation
            k = 2 * int(self.check_rng.integers(len(answers) // 2))
            for metric, comp, drill_fn, got in answers[k:k + 2]:
                if got is not None:
                    self.failures += drill_failures(
                        f"drill-down {drill_fn} {metric} {comp} at "
                        f"t={now:.0f}", got, stack.pipelines, metric, comp,
                        stack.drill_t0, t1, DRILL_STEP_S, drill_fn)

    def final_checks(self, seed: int) -> None:
        from checks import (
            DEFAULT_SEED,
            ledger_failures,
            load_reference,
            reference_failures,
        )

        stack = self.stack
        reports = {s or "site": p.delivery_report()
                   for s, p in stack.pipelines.items()}
        self.failures += ledger_failures(reports)
        for p in stack.pipelines.values():
            p.bus.flush()
        reports = {s or "site": p.delivery_report()
                   for s, p in stack.pipelines.items()}
        self.failures += [f"after flush: {m}"
                          for m in ledger_failures(reports)]
        if seed == DEFAULT_SEED:
            self.failures += reference_failures(
                self.wl.name, self.checkpoints, load_reference())


def _instrument(rec, stack) -> None:
    from tracing import instrument_federation, instrument_pipeline

    if stack.federation is not None:
        instrument_federation(rec, stack.federation)
    else:
        instrument_pipeline(rec, stack.pipelines[""])


PERCENTILES = (("sweep", 50), ("sweep", 80), ("agg", 50), ("agg", 80),
               ("drill", 50), ("drill", 90))


def _pct(samples, q: int) -> float:
    import numpy as np

    return float(np.percentile(samples, q)) / 1e6


def end_to_end(runner: Runner, setups: list[float], stack) -> dict:
    snap = snapshot(stack)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "sim_speedup": (runner.sim_speedup(), "x"),
        **{f"{kind}_ms_p{q}": (_pct(runner.ns[kind], q), "ms")
           for kind, q in PERCENTILES},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "store_bytes_per_sample": (_ratio(snap["store_bytes"],
                                          snap["samples"]), "B"),
    }


def per_layer(runner: Runner, rec, d: dict, stack) -> dict:
    """Per-layer metrics from the traced blocks' spans and counter deltas."""
    from layers import LAYERS, TICK_LAYERS

    ticks = rec.roots.get("tick", 0)
    n_agg, n_drill = rec.roots.get("agg", 0), rec.roots.get("drill", 0)
    reads = ("agg", "drill")

    def per_tick(ns: int) -> float:
        return _ratio(ns / 1e6, ticks)

    def per_query(ns: int, n: int) -> float:
        return _ratio(ns / 1e6, n)

    out: dict[str, float] = {
        f"{layer}_ms": per_tick(rec.layer_ns(("tick",), layer))
        for layer in TICK_LAYERS
    }
    append_s = rec.layer_ns(("tick",), "storage.append") / 1e9
    end = snapshot(stack)
    out.update({
        "cluster.flows": _ratio(rec.counts["flows"], ticks),
        "sources.samples": _ratio(d["samples_collected"], ticks),
        "sources.errors": d["collector_errors"],
        "transport.in_flight_max": runner.in_flight_max,
        "transport.dropped": d["dropped"],
        "storage.append_samples_per_s": _ratio(d["samples"], append_s),
        "storage.read_ms": per_query(rec.layer_ns(reads, "storage.read"),
                                     n_agg + n_drill),
        "storage.chunk_cache_hit_ratio": _ratio(
            d["chunk_hits"], d["chunk_hits"] + d["chunk_misses"]),
        "storage.chunks_sealed": _ratio(d["sealed_chunks"], ticks),
        "storage.compression_ratio": _ratio(end["raw_bytes"],
                                            end["compressed_bytes"]),
        "storage.disk.spills": d["spills"],
        "storage.disk.loads": d["loads"],
        "storage.disk.wal_syncs": d["wal_syncs"],
        "analysis.detections": d["detections"],
        "response.alerts": d["alerts"],
        "serve.agg_ms": per_query(rec.layer_ns(("agg",), "serve"), n_agg),
        "serve.drill_ms": per_query(rec.layer_ns(("drill",), "serve"),
                                    n_drill),
        "serve.cache_hit_ratio": _ratio(
            d["result_hits"], d["result_hits"] + d["result_misses"]),
        "serve.pyramid_ratio": _ratio(d["pyramid"], d["pyramid"] + d["raw"]),
        "serve.raw_answers": d["raw"],
        "serve.rejected": d["rejected"],
        "sites.fanout_ms": per_query(rec.layer_ns(reads, "sites"),
                                     n_agg + n_drill),
        "sites.fanouts": d["fanouts"],
        "sites.partial_answers": d["partial"],
        "runtime.busy_fraction": _ratio(d["busy_s"], d["map_capacity_s"]),
        "runtime.barrier_wait_ms": per_tick(d["barrier_wait_s"] * 1e9),
        "stages.tick_self_ms": per_tick(rec.layer_ns(("tick",), "tick")),
        "bench.tick_ms": per_tick(rec.root_ns.get("tick", 0)),
        "bench.tracing_overhead": _ratio(runner.block_speedup(True),
                                         runner.block_speedup(False)),
    })
    missing = set(LAYERS) ^ set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with layers.py: "
                           f"{sorted(missing)}")
    units = {k: v[0] for k, v in LAYERS.items()}
    return {k: (float(v), units[k]) for k, v in out.items()}


def uncalibrated(runner: Runner, setups_raw: list[float]) -> dict:
    """The end-to-end timings as the wall clock read them."""
    return {
        "setup_s": statistics.median(setups_raw),
        "sim_speedup": runner.sim_speedup(raw=True),
        **{f"{kind}_ms_p{q}": _pct(runner.raw_ns[kind], q)
           for kind, q in PERCENTILES},
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import SpanRecorder
    from workloads import WORKLOADS, stagger_heads

    wl = WORKLOADS[workload_name]
    refreshes = wl.refreshes(seconds)
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    setup_spans: list[tuple[int, int]] = []
    probe = HostProbe()
    stack = None
    try:
        for _ in range(1 if trace else wl.setups):
            if stack is not None:
                stack.close()
                stack = None
                gc.collect()
            stack, exc, span = probe.call(wl.build, seed, refreshes,
                                          scratch)
            if exc is not None:
                raise exc
            setup_spans.append(span)
            for _ in range(SETUP_PROBES):
                probe.sample()
        if stack.staggered is not None:
            stagger_heads(stack, seed)
        runner = Runner(wl, stack, seed, probe)
        runner.cycle()               # warm-up: first sweep, lazy set-up
        runner.reset()
        gc.collect()
        start = snapshot(stack)
        if not trace:
            for _ in range(refreshes):
                runner.cycle()
            runner.calibrate()
            metrics = end_to_end(
                runner, (probe.calibrate(setup_spans) / 1e9).tolist(), stack)
            raw = uncalibrated(runner, [(e - s) / 1e9
                                        for s, e in setup_spans])
        else:
            rec = SpanRecorder()
            deltas: dict = {}
            # short runs still get traced and untraced blocks
            block = max(1, min(BLOCK_CYCLES, refreshes // 4))
            for b in range(0, refreshes, block):
                # T U U T T U U T ...: a linear drift in tick cost over
                # the run weighs equally on traced and untraced blocks
                traced = (b // block) % 4 in (0, 3)
                if traced:
                    before = snapshot(stack)
                    _instrument(rec, stack)
                for _ in range(min(block, refreshes - b)):
                    runner.cycle(traced)
                if traced:
                    rec.unwrap()
                    _add_delta(deltas, before, snapshot(stack))
            runner.calibrate()
            runner.failures += [f"span accounting: {e}"
                                for e in rec.exactness_errors()]
            metrics = per_layer(runner, rec, deltas, stack)
            raw = {}
        end = snapshot(stack)
        runner.final_checks(seed)
    finally:
        if stack is not None:
            stack.close()
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps({"run": {
        "checkpoints": runner.checkpoints,
        "host_probe": probe.record(),
        "uncalibrated": raw}}), flush=True)
    # shed, raising and partial queries are the failed operations
    failed = runner.raised + int(end["rejected"] - start["rejected"]
                                 + end["partial"] - start["partial"])
    if runner.failures:
        for msg in runner.failures[:20]:
            print(f"check failed: {msg}", file=sys.stderr)
        return {"correct": False, "attempted": runner.ticks + runner.queries,
                "failed": failed, "metrics": {}}
    return {
        "correct": True,
        "attempted": runner.ticks + runner.queries,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


# -- provenance --------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():     # an exported checkout
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_hash(root: Path = ROOT) -> str:
    """Content hash of the program and the benchmark (the checkout
    need not be a git repository)."""
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for path in sorted((root / sub).rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy as np

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "source_sha256": source_hash(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": {"refreshes": wl.refreshes(args.seconds),
                   "drills_per_refresh": wl.drills_per_refresh,
                   "setups": 1 if args.trace else wl.setups},
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(HERE))
    if argv and argv[0] == "compare":
        from compare import main as compare_main
        return compare_main(argv[1:])
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps({"provenance": provenance(args)}), flush=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
