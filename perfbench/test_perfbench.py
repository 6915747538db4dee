"""Tests of the benchmark itself: its output checks reject corrupted values,
and the counts of a traced operation repeat exactly.

    python3 -m pytest perfbench/test_perfbench.py

The traced operations are the benchmark's real workloads, so the module
takes about a minute (two traced 39-verdict sweeps dominate).
"""
from __future__ import annotations

import copy
import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import COUNT_METRICS, Tracer  # noqa: E402

run.import_noc()


def traced_op(workload):
    tracer = Tracer()
    with tracer.installed():
        code, stdout, _ = run.run_cli(workload.argv())
    return code, stdout, tracer.layer_metrics(workload.verdicts_per_op)


@pytest.fixture(scope="module")
def traced_twice():
    """name -> (workload, [(exit code, stdout, layer metrics)] of two traced
    operations, each checked as the benchmark checks it); computed once."""
    cache = {}

    def get(name):
        if name not in cache:
            workload = run.make_workload(name)
            workload.prepare()
            results = []
            for _ in range(2):
                code, stdout, metrics = traced_op(workload)
                assert workload.check(code, stdout) == []
                results.append((code, stdout, metrics))
            cache[name] = (workload, results)
        return cache[name]

    return get


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_exactly(traced_twice, name):
    workload, results = traced_twice(name)
    first, second = (metrics for _, _, metrics in results)
    for metric in COUNT_METRICS:
        assert first[metric] == second[metric], metric
    assert first["problemfile.build_busy_s"] > 0.0
    if name == "op-grid":
        assert first["optproblem.grid_points"] == run.OP_LATTICE ** 2
        assert first["dynamics.forward_passes"] == 0
    else:
        assert first["dynamics.adjoint_passes"] > 0
        assert first["cones.projections"] > 0
    if name == "sphere-check":
        assert first["geometry.calls"] > 0
    else:
        assert first["geometry.calls"] == 0


def test_tracer_restores_the_package():
    import noc.conditions
    import noc.dynamics

    original = noc.dynamics.integrate_adjoint
    with Tracer().installed():
        assert noc.dynamics.integrate_adjoint is not original
        assert noc.conditions.integrate_adjoint is \
            noc.dynamics.integrate_adjoint
    assert noc.dynamics.integrate_adjoint is original
    assert noc.conditions.integrate_adjoint is original


def test_sweep_check_rejects_a_shifted_lhs(traced_twice):
    _, results = traced_twice("ccs126-sweep")
    text = results[0][1]
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[7]["lhs"] = repr(float(rows[7]["lhs"]) + 2e-3)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]),
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    assert run.check_sweep(text) == []
    assert run.check_sweep(buf.getvalue())
    assert run.check_sweep("\n".join(text.splitlines()[:-1]) + "\n")


def test_sphere_check_rejects_a_dropped_curvature_term(traced_twice):
    workload, _ = traced_twice("sphere-check")
    report = json.loads(workload.report_file.read_text(encoding="utf-8"))
    assert run.check_sphere(report) == []

    dropped = copy.deepcopy(report)
    second = dropped["second_order"]
    second["chosen_lhs"] -= second["terms"]["curvature"]
    second["terms"]["curvature"] = 0.0
    assert run.check_sphere(dropped)

    zeroed = copy.deepcopy(report)
    zeroed["second_order"]["terms"]["curvature"] = 0.0
    assert run.check_sphere(zeroed)


def test_op_check_rejects_a_count_off_by_one(traced_twice):
    workload, _ = traced_twice("op-grid")
    report = json.loads(workload.report_file.read_text(encoding="utf-8"))
    assert run.check_op(report, workload.num_feasible) == []
    for delta in (-1, 1):
        bad = copy.deepcopy(report)
        bad["grid_search"]["num_feasible"] += delta
        assert run.check_op(bad, workload.num_feasible)


@pytest.mark.parametrize("K", [2, 3, 8, 51, 200, 201])
def test_lattice_count_matches_enumeration(K):
    c = 2 * np.arange(K) - K + 1
    inside = c[:, None] ** 2 + c[None, :] ** 2 <= (K - 1) ** 2
    assert run.lattice_count(K) == int(inside.sum())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sphere-check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
