"""BENCHMARK.json against the format's limits and against the runner."""

import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 << 10


def test_command_and_paths_stay_inside_the_benchmark():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= len(SPEC["paths"]) <= 16
    for p in SPEC["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p)
        assert not p.startswith("/") and ".." not in p.split("/")
        assert (ROOT / p).is_dir()
    for arg in SPEC["command"][1:]:
        assert any(arg == p or arg.startswith(p + "/")
                   for p in SPEC["paths"])


def test_run_seconds_is_a_whole_number_in_range():
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60


def test_workloads_are_runnable_and_say_why():
    ws = SPEC["workloads"]
    assert 2 <= len(ws) <= 8
    for w in ws:
        assert set(w) == {"name", "why"}
        assert NAME.fullmatch(w["name"])
        assert w["name"] in WORKLOADS
        assert w["why"].strip() and "\n" not in w["why"]
        assert len(w["why"]) <= 200


def test_metric_names_units_and_counts():
    e2e, layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layer) <= 128
    names = [m["name"] for m in e2e + layer]
    assert len(names) == len(set(names))
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in layer:
        assert set(m) == {"name", "unit", "better"}
    for m in e2e + layer:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")


def test_setup_time_has_the_largest_bound():
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_matches_the_runner():
    declared = {m["name"]: (m["unit"], m["better"])
                for m in SPEC["per_layer"]}
    assert declared == {k: (u, b) for k, (u, b, _) in LAYERS.items()}


def test_every_layer_metric_names_what_it_should_move():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    listed = {w["name"] for w in SPEC["workloads"]}
    for name, (_, _, moves) in LAYERS.items():
        if not name.startswith("bench."):   # the harness's own numbers
            assert moves, f"{name} names no end-to-end metric"
        for target in moves:
            metric, _, workload = target.partition("@")
            assert metric in e2e, f"{name}: unknown metric {metric!r}"
            assert workload in listed, f"{name}: {workload!r} is not run"
