"""Every script in ``demos/`` runs to completion against ``src/``, writing
nothing to stderr."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@functools.cache
def _run(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_entropy_bounds_prints_zero_margin_at_the_saturated_ground_state():
    # the k = 2 bound equals N at Hermite n = 0, so bound - N is rounding alone
    proc = _run(ROOT / "demos" / "entropy_bounds.py")
    lines = proc.stdout.splitlines()
    start = lines.index("=== hermite (optimal even k) ===")
    row = lines[start + 2].split()
    assert row[0] == "0" and row[3] == "2"
    assert float(row[-1]) == 0
