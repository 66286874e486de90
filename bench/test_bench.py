"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q bench/test_bench.py

Traced runs go through ``run.py`` in fresh processes, as the benchmark
itself runs them, over a few cells each (about two minutes in all).
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from run import END_TO_END, _timed_cells, tail  # noqa: E402
from speed import SpeedMeter  # noqa: E402

#: Cells per traced test run: enough for every mapped layer to be reached.
TRACE_CELLS = {"renyi-crosscheck": 60, "shannon-large-n": 3, "measures-rows": 6}

#: Which workload each traced layer must be reached on.
LAYER_WORKLOAD = {
    "context.with_escalation": ("renyi-crosscheck", "measures-rows"),
    "orthopoly.orthonormal_coeffs": ("renyi-crosscheck",),
    "orthopoly.raw_recurrence": ("measures-rows",),
    "orthopoly.evaluate_recurrence": ("measures-rows",),
    "orthopoly.zeros_raw": ("shannon-large-n",),
    "bell.renyi_power_integral_bell": ("renyi-crosscheck", "measures-rows"),
    "bell.polynomial_power_coeffs": ("renyi-crosscheck",),
    "hypergeom.hyp2f1_terminating": ("renyi-crosscheck",),
    "lauricella.laguerre_power_integral_lauricella": ("renyi-crosscheck",),
    "lauricella.lauricella_fa_terminating": ("renyi-crosscheck",),
    "quadrature.gauss_rule": ("renyi-crosscheck",),
    "quadrature.integrate_density_power": ("renyi-crosscheck",),
    "quadrature.tanh_sinh_panels": ("shannon-large-n",),
    "quadrature.integrate_log_singular": ("measures-rows",),
    "vec.poly_scaled": ("shannon-large-n",),
    "shannon.shannon_numeric": ("shannon-large-n", "measures-rows"),
    "closed_form.stddev": ("measures-rows",),
    "closed_form.fisher_length": ("measures-rows",),
    "cli.main": ("measures-rows",),
}


def _traced(workload, seed=7):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "1", "--cells", str(TRACE_CELLS[workload])],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (_traced(w), _traced(w)) for w in wl.WORKLOADS}


def test_traced_counts_repeat_exactly(traced_twice):
    for workload, (first, second) in traced_twice.items():
        counts = [name for name in first if tracing.is_count(name)]
        assert counts
        for name in counts:
            assert first[name] == second[name], (workload, name)


def test_every_layer_is_reached_on_its_workload(traced_twice):
    assert set(LAYER_WORKLOAD) == {tracing.layer_name(m, f) for m, f, _ in tracing.LAYERS}
    for layer, names in LAYER_WORKLOAD.items():
        metric = f"{layer}.self_s" if layer == "cli.main" else f"{layer}.calls"
        for workload in names:
            value = traced_twice[workload][0][metric]["value"]
            assert value and value > 0, (layer, workload)
    shannon = traced_twice["shannon-large-n"][0]
    for name in ("quadrature.tanh_sinh_panels.points", "quadrature.tanh_sinh_panels.panels",
                 "vec.poly_scaled.recurrence_steps"):
        assert shannon[name]["value"] > 0, name
    renyi = traced_twice["renyi-crosscheck"][0]
    for name in ("context.with_escalation.computes", "lauricella.lauricella_fa_terminating.terms",
                 "quadrature.rule_cache.entries"):
        assert renyi[name]["value"] > 0, name
    assert 0 < renyi["context.escalation.useful_ratio"]["value"] <= 0.5
    assert traced_twice["measures-rows"][0]["shannon.mpf_path_share"]["value"] > 0


def test_missing_name_is_reported_absent(monkeypatch):
    import types

    fake = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.cli")
    sub.main = lambda argv=None: 0
    monkeypatch.setitem(sys.modules, "fakepkg", fake)
    monkeypatch.setitem(sys.modules, "fakepkg.cli", sub)
    tracer = tracing.Tracer()
    tracer.install(package="fakepkg")
    tracer.active = True
    sys.modules["fakepkg.cli"].main()
    metrics = tracer.metrics(1, 1.0, None)
    assert metrics["cli.main.self_s"].get("absent") is None
    assert metrics["orthopoly.zeros_raw.calls"] == {"value": None, "unit": "count", "absent": True}
    assert metrics["quadrature.rule_cache.entries"]["absent"]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        s[:3] for s in tracing.metric_specs()]


def test_cells_are_seeded_and_drawn_without_replacement():
    for workload in wl.WORKLOADS.values():
        first = workload.cells(random.Random(3))
        assert first == workload.cells(random.Random(3))
        assert len(set(first)) == len(first)
        other = workload.cells(random.Random(4))
        assert other != first and set(other) == set(first)


def test_renyi_cells_are_integrable():
    for cell in wl.renyi_cells(random.Random(0)):
        q = cell.two_q / 2
        assert cell.kind == "hermite" or (cell.alpha * q > -1 and cell.beta * q > -1)


def test_tail_has_ten_cells_beyond_it():
    samples = list(range(100))
    value, pct = tail(samples)
    assert sum(s > value for s in samples) == 10 and pct == 90.0
    assert tail([3.0, 1.0]) == (3.0, 100.0)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "renyi-crosscheck", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _measures_output(cell, **columns):
    """A ``measures`` run that printed the reference row, some columns replaced."""
    ref = wl.load_reference()["measures"][cell.key]
    row = {col: repr(ref[col]) for col in wl.MEASURES_TOL}
    row.update(columns)
    return 0, ",".join(row) + "\n" + ",".join(row.values()) + "\n", ""


def test_measures_check_accepts_the_reference_row():
    sys.path.insert(0, str(ROOT / "src"))
    import spreadpoly

    cell = wl.Cell("jacobi", -0.25, 0.5, 3)
    assert wl.check_measures(spreadpoly, cell, _measures_output(cell), wl.load_reference()) is None


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("column", list(wl.MEASURES_TOL))
def test_measures_check_rejects_a_non_finite_column(column, value):
    # fisher_length's reference is 0.0 on this singular row
    cell = wl.Cell("jacobi", -0.25, 0.5, 3)
    output = _measures_output(cell, **{column: value})
    assert wl.check_measures(None, cell, output, wl.load_reference())


def test_run_completes_the_percentile_sample_past_the_window():
    workload = wl.Workload("sleep", None, lambda sp, cell: time.sleep(0.01), None, 0, 5)
    with SpeedMeter() as meter:
        records, window_cells = _timed_cells(None, workload, range(20), 1e-6, meter)
    assert len(records) == 5 and window_cells == 1
