"""Compare a parent and a change checkout on the end-to-end metrics.

    python3 perfbench/run.py compare PARENT CHANGE [--workload W ...]
        [--claim METRIC@WORKLOAD ...]

Ten pairs per workload, each run ``run_seconds`` of ``BENCHMARK.json``
long.  Each pair runs both checkouts on the same seed (pair ``i`` uses
seed ``i + 1``), alternating which side runs first, each with its own
``perfbench/run.py``; the two benchmark directories must be identical,
so both sides are measured by the same code.  Per workload and metric
the report gives each side's median and quartiles and a verdict:

``regression``  the change's median is worse than the parent's by more
                than the metric's bound in ``BENCHMARK.json``;
``unresolved``  the run-to-run spread (quartile distance over median,
                the wider of the two sides) exceeds the bound, and not
                every change run beats every parent run;
``ok``          neither.

A ``--claim`` passes only when the change wins at least nine tenths of
the pairs (ties count for neither side) and the medians differ by more
than the parent's own quartile distance.  The exit code is 0 when no
metric regressed and every claim passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
PAIRS = 10


def bench_digest(bench_dir: Path) -> str:
    """Content hash of a benchmark directory (compiled caches excluded)."""
    h = hashlib.sha256()
    for path in sorted(bench_dir.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(bench_dir)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def _worse(a: float, b: float, better: str) -> bool:
    """True when ``a`` is worse than ``b``."""
    return a < b if better == "higher" else a > b


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    _, pm, _ = quartiles(parent)
    _, cm, _ = quartiles(change)
    limit = pm * (1 - bound) if better == "higher" else pm * (1 + bound)
    if _worse(cm, limit, better):
        return "regression"
    all_better = all(_worse(p, c, better) for p in parent for c in change)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    return "ok"


def claim_passes(pairs: list[tuple[float, float]],
                 better: str) -> tuple[bool, int]:
    """(passes, wins) for a claimed gain over ``(parent, change)`` pairs."""
    wins = sum(1 for p, c in pairs if _worse(p, c, better))
    q1, pm, q3 = quartiles([p for p, _ in pairs])
    cm = statistics.median(c for _, c in pairs)
    ok = (len(pairs) >= PAIRS and wins >= 0.9 * len(pairs)
          and abs(cm - pm) > q3 - q1
          and _worse(pm, cm, better))
    return ok, wins


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{checkout} {workload} seed {seed} failed:\n"
                           f"{out.stderr[-2000:]}")
    return result


def collect(parent: Path, change: Path, workloads: list[str],
            seconds: float) -> list[dict]:
    runs = []
    for w in workloads:
        for i in range(PAIRS):
            sides = [("parent", parent), ("change", change)]
            for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
                res = _run(checkout, w, i + 1, seconds)
                runs.append({"workload": w, "pair": i, "side": side,
                             "metrics": {k: v["value"] for k, v in
                                         res["metrics"].items()}})
                print(f"  {w} pair {i} {side} done", file=sys.stderr)
    return runs


def report(runs: list[dict], spec: dict, claims: list[str]) -> tuple[str, bool]:
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    lines, ok = [], True
    workloads = sorted({r["workload"] for r in runs})
    head = (f"{'workload':<14} {'metric':<24} {'parent med [q1, q3]':>30} "
            f"{'change med [q1, q3]':>30} {'delta':>8} {'bound':>6}  verdict")
    lines.append(head)
    series: dict = {}
    for r in runs:
        for name, v in r["metrics"].items():
            series.setdefault((r["workload"], name, r["side"]), {})[
                r["pair"]] = v
    for w in workloads:
        for name, m in metrics.items():
            p = series.get((w, name, "parent"), {})
            c = series.get((w, name, "change"), {})
            if not p or not c:
                continue
            pv, cv = list(p.values()), list(c.values())
            v = verdict(pv, cv, m["better"], m["bound"])
            ok = ok and v != "regression"
            pq, cq = quartiles(pv), quartiles(cv)
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan")
            lines.append(
                f"{w:<14} {name:<24} "
                f"{pq[1]:>10.4g} [{pq[0]:.4g}, {pq[2]:.4g}]".ljust(70)
                + f"{cq[1]:>10.4g} [{cq[0]:.4g}, {cq[2]:.4g}]".rjust(30)
                + f" {delta:>+8.1%} {m['bound']:>6.2f}  {v}")
    for claim in claims:
        name, _, w = claim.partition("@")
        p = series.get((w, name, "parent"), {})
        c = series.get((w, name, "change"), {})
        if name not in metrics or not p or not c:
            lines.append(f"claim {claim}: no such metric/workload in runs")
            ok = False
            continue
        pairs = [(p[i], c[i]) for i in sorted(p) if i in c]
        passed, wins = claim_passes(pairs, metrics[name]["better"])
        ok = ok and passed
        lines.append(f"claim {claim}: change won {wins}/{len(pairs)} pairs "
                     f"-> {'PASS' if passed else 'NOT MET'}")
    return "\n".join(lines), ok


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="run.py compare",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", default=None)
    ap.add_argument("--claim", action="append", default=[])
    args = ap.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    for side in (args.parent, args.change):
        if bench_digest(side / "perfbench") != bench_digest(HERE):
            print(f"{side}/perfbench differs from {HERE}: both sides "
                  f"must run the same benchmark", file=sys.stderr)
            return 2
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs = collect(args.parent, args.change, workloads, spec["run_seconds"])
    text, ok = report(runs, spec, args.claim)
    print(text)
    return 0 if ok else 1
