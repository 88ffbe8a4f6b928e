"""Self-tests of the benchmark (not part of the program's test suite):

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import vfie  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from accuracy import Gate  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = {
    "sweep": {"n_list": (4, 8), "eval_points": 64},
    "solve-large": {"sizes": (8, 16), "scalar_N": 8, "eval_points": 64},
    "eval-dense": {"N": 8, "bulk_points": 512, "chunk": 256, "queries": 40, "eval_points": 64},
}
SPECIFIC = {
    "sweep": [],
    "solve-large": ["solve_ms_n256", "solve_ms_n512", "solve_ms_scalar"],
    "eval-dense": ["eval_mpts_per_s", "point_query_us_p50", "point_query_us_p90"],
}


def tiny_run(name, trace, tmp_path):
    workload = workloads.make(name, 7, Gate(), str(tmp_path), **TINY[name])
    return run.measure(workload, 0.01, trace, [0.3, 0.1, 0.2])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_a_unit(name, trace, tmp_path):
    result, lines, _ = tiny_run(name, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.PER_LAYER if trace else run.END_TO_END)
    for metric in result["metrics"].values():
        assert metric["unit"] and math.isfinite(metric["value"])
    if not trace:
        assert result["metrics"]["setup_s"]["value"] == 0.2
        assert all(result["metrics"][m]["value"] > 0 for m in run.END_TO_END)
        for metric in SPECIFIC[name]:
            line = next(s for s in lines if s.startswith(f"metric {metric} = "))
            value, unit = line.split(" = ")[1].split()
            assert float(value) > 0 and unit


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_gate_fails_on_corrupted_exact_solution(name, tmp_path, monkeypatch):
    monkeypatch.setattr(vfie.bench, "_u1", lambda t: t + 0.25)
    monkeypatch.setattr(vfie.bench, "_u2", lambda t: math.sqrt(t) + 0.25)
    result, lines, _ = tiny_run(name, 0, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(s.startswith("accuracy miss") for s in lines)


def test_traced_layers_where_they_run(tmp_path):
    sweep = tiny_run("sweep", 1, tmp_path)[0]["metrics"]
    dense = tiny_run("eval-dense", 1, tmp_path)[0]["metrics"]
    for metric in ("bench.self_check_ms", "bench.fit_ms", "cli.csv_ms", "solver.kernel_calls",
                   "solver.lu_ms", "approx.eval_ms", "transforms.grid_ms"):
        assert sweep[metric]["value"] > 0, metric
    assert dense["approx.eval_ms"]["value"] > 0 and dense["approx.point_query_us"]["value"] > 0
    assert dense["solver.kernel_calls"]["value"] == 0  # eval-dense bypasses assembly


def test_kernel_calls_are_2n2_plus_n_per_solve():
    tracer = Tracer()
    problem = tracer.wrap_problem(vfie.builtin(1).problem)
    scalar = tracer.wrap_problem(workloads.scalar_example2())
    tracer.install()
    try:
        for method in vfie.Method:
            vfie.solve(problem, method, 8)
        vfie.solve(scalar, vfie.Method.NEW_DE, 8)
        vfie.solve(problem, vfie.Method.NEW_DE, 256)
        vfie.solve(problem, vfie.Method.NEW_DE, 512)
    finally:
        tracer.uninstall()
    calls = tracer.kernel_calls_per_assembly()
    assert calls == [(17, 595)] * 5 + [(513, 526_851), (1025, 2_102_275)]
    assert vfie.solve.__name__ == "solve" and not hasattr(vfie.solve, "__wrapped__")


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert run.WORKLOADS == workloads.WORKLOADS
    # solve-large runs on request only: its run-to-run spread reaches the largest bound.
    assert [w["name"] for w in spec["workloads"]] == ["sweep", "eval-dense"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
