"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def outputs():
    """stdout of every workload at tiny sizes, untraced and traced, seed 1."""
    out = {}
    for trace in (0, 1):
        proc = _bench("--workload", "all", "--seed", "1", "--seconds", "0.1",
                      "--trace", str(trace), "--tiny")
        assert proc.returncode == 0, proc.stderr
        out[trace] = proc.stdout
    return out


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit_and_checks_pass(outputs, trace):
    result = _result(outputs[trace])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    units = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    for workload in bench.WORKLOADS:
        for name, unit in units.items():
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], (int, float))
    shown = {**units, **bench.REPORTED_UNITS}
    for name, unit in shown.items():
        lines = re.findall(rf"^  {re.escape(name)} +(\S+) {re.escape(unit)}$",
                           outputs[trace], re.M)
        assert len(lines) == len(bench.WORKLOADS), name
    assert "fail_ratio" in outputs[trace] and "FAILED" not in outputs[trace]


def test_traced_spans_cover_the_cases(outputs):
    metrics = _result(outputs[1])["metrics"]
    for workload in bench.WORKLOADS:
        assert metrics[f"{workload}.trace.coverage"]["value"] >= 0.9
        assert metrics[f"{workload}.solver.iterations"]["value"] > 0
        assert metrics[f"{workload}.interface.split_simplex_calls"]["value"] > 0
    assert metrics["cylinder2d.postprocess.locate_per_sample"]["value"] >= 1.0
    assert metrics["sphere3d.mesh.generate_structured_s"]["value"] > 0.0
    assert metrics["cylinder2d.mesh.read_mesh_s"]["value"] > 0.0


def test_results_repeat_within_a_seed(outputs):
    """Accuracy values and iteration counts do not depend on tracing or timing."""
    for workload in bench.WORKLOADS:
        runs = [json.loads((ROOT / ".bench_run" / f"{workload}-seed1-trace{t}.json").read_text())
                for t in (0, 1)]
        keys = ("label", "iterations", "l2_error", "interface_mismatch", "n_cut")
        first = [tuple(c[k] for k in keys) for c in runs[0]["cases"]]
        assert first
        for case in runs[1]["cases"]:
            assert tuple(case[k] for k in keys) in first


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_clock_scales_by_the_probes_around_a_stage():
    from time import perf_counter

    import speed

    clock = speed.SpeedClock()
    t0 = perf_counter()
    with clock.stage():
        while perf_counter() - t0 < 1.2 * speed.PROBE_EVERY_S:
            pass
    inside = clock.probes[2:-1].tolist()  # two probes at start, one after the stage
    assert inside, "no probe ran inside a stage longer than the probe period"
    assert clock.wall < perf_counter() - t0 - sum(inside) + 1e-3
    typical = speed.interquartile_mean(clock.probes.tolist())
    assert clock.scaled == pytest.approx(clock.wall * speed.PROBE_REF_S / typical)
    assert speed.interquartile_mean([1.0, 2.0, 90.0]) == 2.0
