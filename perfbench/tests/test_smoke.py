"""Tiny runs of every workload through the benchmark's command line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))


def _run(cwd: Path, workload: str, seed: int, seconds: int, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_exactly_the_declared_metrics(workload, trace):
    # seed 0 is the default seed: its reference counts are checked too
    out = _run(ROOT, workload, seed=0, seconds=2, trace=trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    assert all(isinstance(v["value"], float)
               for v in result["metrics"].values())
    prov = json.loads(lines[0])["provenance"]
    for key in ("nproc", "cpu", "python", "numpy", "commit",
                "source_sha256", "seed", "workload", "params"):
        assert key in prov


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, SPEC["workloads"][0]["name"], 1, 1, 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
