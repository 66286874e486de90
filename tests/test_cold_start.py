"""A fresh interpreter computes Shannon lengths, a ``measures`` row, the
optimized Laguerre bounds and ``verify --scope bounds`` without importing
scipy: the eigenvalue seeds of the zeros come from numpy's LAPACK, and
``optimize_bound`` finds the Laguerre optimum by mpmath's secant."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Both seed routes run: the float64 zeros of each Shannon cell, and the
#: mpf Gauss-Legendre rules of the zero-panel round, built by the first.
SCRIPT = """
import sys
import spreadpoly
import spreadpoly.cli
from spreadpoly import Family, shannon_numeric

assert shannon_numeric(Family.laguerre(2.0), 8).path == "float64"
argv = ["measures", "--family", "laguerre", "--alpha", "-0.25", "--n", "3", "--q", "3"]
assert spreadpoly.cli.main(argv) == 0
argv = ["bounds", "--family", "laguerre", "--alpha", "5", "--n", "0..3"]
assert spreadpoly.cli.main(argv) == 0
assert spreadpoly.cli.main(["verify", "--scope", "bounds"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_shannon_and_a_measures_row_import_no_scipy():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].startswith("laguerre,-0.25,,3,"), lines
    assert lines[3].startswith("laguerre,5,,0,"), lines
    assert lines[-1] == "[]"
