"""The benchmark's per-layer tracer finds every function it traces.

``bench/tracing.py`` wraps the functions in its ``LAYERS`` by module and
name, and its ``_HOOKS`` read named parameters of some of them.  A
function that is renamed, moved or loses such a parameter turns its
metrics into nulls in a traced run; this test fails first instead.  One
traced run of each workload at its default cell count checks that such a
run still ends with its result line, has no other, and reports every
layer's metrics as finite numbers.  A layer whose module ``import
spreadpoly`` no longer loads is reported absent with null metrics while
the run still exits 0, so the result line alone does not show it; and a
layer that the package no longer calls on its workload reads 0 calls, so
the layers each workload must reach are checked by name.
"""

import importlib
import importlib.util
import inspect
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "module,function", [(m, f) for m, f, _ in tracing.LAYERS], ids=lambda v: v
)
def test_traced_function_exists_with_hooked_parameters(module, function):
    fn = getattr(importlib.import_module(f"spreadpoly.{module}"), function, None)
    assert callable(fn), f"spreadpoly.{module}.{function} is gone"
    params, _ = tracing._HOOKS.get(tracing.layer_name(module, function), ((), None))
    missing = set(params) - set(inspect.signature(fn).parameters)
    assert not missing, f"{module}.{function} lost hooked parameters {sorted(missing)}"


def test_rule_cache_is_observable():
    from spreadpoly import quadrature

    assert callable(quadrature._standard_rule.cache_info)


def _no_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def _is_result(line):
    try:
        obj = json.loads(line)
    except ValueError:
        return False
    return isinstance(obj, dict) and "correct" in obj


#: Layers a workload must reach: a refactor that routes around a traced
#: name leaves its layer present but reading 0 calls.
REACHED = {
    "renyi-crosscheck": (
        "bell.polynomial_power_coeffs",
        "lauricella.lauricella_fa_terminating",
        "quadrature.integrate_density_power",
    ),
    "shannon-large-n": ("orthopoly.raw_recurrence",),
    "measures-rows": ("bell.polynomial_power_coeffs", "orthopoly.raw_recurrence"),
}


def _check_traced_run(workload):
    """The traced benchmark run of ``workload``, at its default cell count,
    exits 0; exactly one stdout line is a result object, it is the last
    line, and it is JSON with no NaN or Infinity; no layer is absent,
    every metric is a finite number, and every layer in ``REACHED`` was
    called."""
    root = TRACING.parent.parent
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    lines = run.stdout.splitlines()
    results = [i for i, line in enumerate(lines) if _is_result(line)]
    assert results == [len(lines) - 1], lines[-3:]
    result = json.loads(lines[-1], parse_constant=_no_constant)
    assert result["correct"] is True
    info = next(json.loads(line[len("# run "):]) for line in lines if line.startswith("# run "))
    assert info["absent"] == []
    bad = {
        name: m["value"]
        for name, m in result["metrics"].items()
        if isinstance(m["value"], bool)
        or not isinstance(m["value"], (int, float))
        or not math.isfinite(m["value"])
    }
    assert not bad, bad
    unreached = [
        layer for layer in REACHED.get(workload, ()) if not result["metrics"][f"{layer}.calls"]["value"]
    ]
    assert not unreached, unreached


def test_traced_renyi_run_ends_with_a_strict_json_result():
    _check_traced_run("renyi-crosscheck")


@pytest.mark.parametrize("workload", ["shannon-large-n", "measures-rows"])
def test_traced_run_ends_with_a_strict_json_result(workload):
    _check_traced_run(workload)
