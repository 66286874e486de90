"""Seeded cell generators, timed cell runners and post-run correctness checks.

A *cell* is one verified value (one table row in ``measures-rows``).  Each
workload has a finite grid of cells grouped into strata of similar cost.
The seed shuffles the members of every stratum; the strata are then
interleaved at fixed, seed-independent offsets (a golden-ratio sequence),
so every prefix of the order holds each stratum in proportion to its size.
A time-bounded run therefore sees the same cost mix whatever the seed,
while the seed still decides which cells fill that mix.  Cells are drawn
without replacement: a run that exhausts the grid stops early.

Cells are frozen records of numbers and strings; the package only ever
receives the inputs built from them.  Nothing here touches ``mp.prec``
between cells.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from mpmath import mp

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

#: Exponent grid of acceptance criterion 3.
RENYI_GRID = (-0.5, 0.0, 0.5, 2.0, 5.0)
RENYI_TWO_Q = (2, 3, 4, 6)
RENYI_DEGREES = range(9)
RENYI_LAURICELLA_MAX_N = 6
#: Criterion 3's pairwise route-agreement gate.
RENYI_GATE = 1e-10

#: Bounded families, grouped so that members cost about the same per n^2:
#: the three with no weight-log term alone, then Laguerre with a ln x term,
#: Jacobi with one ln(1 -+ x) term, and Jacobi with both.
SHANNON_CLASSES = {
    "hermite": (("hermite", 0.0, 0.0),),
    "laguerre": (("laguerre", 0.0, 0.0),),
    "legendre": (("jacobi", 0.0, 0.0),),
    "laguerre-log": (("laguerre", 0.5, 0.0), ("laguerre", 2.0, 0.0), ("laguerre", 5.0, 0.0)),
    "jacobi-one-log": (("jacobi", 0.0, 0.5), ("jacobi", 0.0, 2.0), ("jacobi", 0.5, 0.0),
                       ("jacobi", 2.0, 0.0)),
    "jacobi-two-log": (("jacobi", 0.5, 0.5), ("jacobi", 0.5, 2.0), ("jacobi", 2.0, 0.5),
                       ("jacobi", 2.0, 2.0)),
}
#: Float64 Shannon cost grows like n^2, so every degree is a stratum of its own.
SHANNON_DEGREES = (24, 28, 32, 36, 40, 48, 56, 64, 72, 84, 96, 112)
#: |S - S_ref| allowed, ten times the default Shannon tolerance of 1e-9.
SHANNON_TOL = 1e-8

MEASURES_CLASSES = {
    # negative exponent in (-1/3, 0): mpf Shannon path, finite L2 and L3
    "singular-laguerre": (("laguerre", -0.25, 0.0), ("laguerre", -0.2, 0.0)),
    # mirror images, but the mpf integrator costs them differently
    "singular-jacobi-left": (("jacobi", -0.25, 0.5),),
    "singular-jacobi-right": (("jacobi", 0.5, -0.25),),
    "bounded-hermite": (("hermite", 0.0, 0.0),),
    "bounded-laguerre": (("laguerre", 2.0, 0.0),),
    "bounded-jacobi": (("jacobi", 0.5, 2.0), ("jacobi", 2.0, 0.5)),
}
MEASURES_DEGREES = range(13)
MEASURES_Q = ("2", "3")
#: Relative tolerances of a row against the stored reference, per column.
MEASURES_TOL = {
    "stddev": 1e-12,
    "fisher_length": 1e-12,
    "L2": 1e-12,
    "L_3": 1e-12,
    "shannon_N": SHANNON_TOL,
}
#: L2 of a row against the Gauss route (criterion 3's gate).
MEASURES_GAUSS_GATE = 1e-10

_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Cell:
    kind: str
    alpha: float
    beta: float
    n: int
    two_q: int = 0

    @property
    def family_key(self) -> str:
        return f"{self.kind}/{self.alpha!r}/{self.beta!r}"

    @property
    def key(self) -> str:
        return f"{self.family_key}/{self.n}"

    def describe(self) -> str:
        text = f"{self.kind}(alpha={self.alpha:g}, beta={self.beta:g}) n={self.n}"
        return text + (f" 2q={self.two_q}" if self.two_q else "")


def interleave(strata: dict, rng: random.Random) -> list:
    """Seeded members of every stratum, merged in proportional order."""
    order = []
    for s, key in enumerate(sorted(strata)):
        members = list(strata[key])
        rng.shuffle(members)
        phase = (s * _GOLDEN) % 1.0
        for j, cell in enumerate(members):
            order.append(((j + phase) / len(members), s, cell))
    order.sort(key=lambda t: (t[0], t[1]))
    return [cell for _, _, cell in order]


def renyi_integrable(kind: str, alpha: float, beta: float, two_q: int) -> bool:
    """The documented condition alpha*q, beta*q > -1 (Hermite always)."""
    q = Fraction(two_q, 2)
    if kind == "laguerre":
        return Fraction(alpha) * q > -1
    if kind == "jacobi":
        return Fraction(alpha) * q > -1 and Fraction(beta) * q > -1
    return True


def renyi_cells(rng: random.Random) -> list:
    families = [("hermite", 0.0, 0.0)]
    families += [("laguerre", a, 0.0) for a in RENYI_GRID]
    families += [("jacobi", a, b) for a in RENYI_GRID for b in RENYI_GRID]
    strata = {}
    for kind, a, b in families:
        for two_q in RENYI_TWO_Q:
            if not renyi_integrable(kind, a, b, two_q):
                continue
            for n in RENYI_DEGREES:
                strata.setdefault((kind, two_q, n), []).append(Cell(kind, a, b, n, two_q))
    return interleave(strata, rng)


def shannon_cells(rng: random.Random) -> list:
    strata = {}
    for cls, families in SHANNON_CLASSES.items():
        for n in SHANNON_DEGREES:
            strata[(cls, n)] = [Cell(k, a, b, n) for k, a, b in families]
    return interleave(strata, rng)


def measures_cells(rng: random.Random) -> list:
    strata = {}
    for cls, families in MEASURES_CLASSES.items():
        for n in MEASURES_DEGREES:
            strata[(cls, n)] = [Cell(k, a, b, n) for k, a, b in families]
    return interleave(strata, rng)


# ---------------------------------------------------------------------------
# Timed cell runners: each returns the raw outputs, checked after the timer.
# ---------------------------------------------------------------------------


def _family(sp, cell: Cell):
    if cell.kind == "hermite":
        return sp.Family.hermite()
    if cell.kind == "laguerre":
        return sp.Family.laguerre(cell.alpha)
    return sp.Family.jacobi(cell.alpha, cell.beta)


def run_renyi(sp, cell: Cell):
    """W_q by the Bell and Gauss routes, plus Lauricella for Laguerre n <= 6."""
    fam = _family(sp, cell)
    order = sp.RenyiOrder(cell.two_q)
    vals = [
        sp.renyi_power_integral_bell(fam, cell.n, order),
        sp.integrate_density_power(fam, cell.n, order),
    ]
    if cell.kind == "laguerre" and cell.n <= RENYI_LAURICELLA_MAX_N:
        vals.append(sp.lauricella.laguerre_power_integral_lauricella(cell.n, cell.alpha, order))
    return vals


def run_shannon(sp, cell: Cell):
    res = sp.shannon_numeric(_family(sp, cell), cell.n)
    return res.entropy


def measures_argv(cell: Cell) -> list:
    argv = ["measures", "--family", cell.kind]
    if cell.kind != "hermite":
        argv += ["--alpha", repr(cell.alpha)]
    if cell.kind == "jacobi":
        argv += ["--beta", repr(cell.beta)]
    argv += ["--n", str(cell.n)]
    for q in MEASURES_Q:
        argv += ["--q", q]
    return argv


def run_measures(sp, cell: Cell):
    """One ``spreadpoly measures`` row, in-process, output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = sp.cli.main(measures_argv(cell))
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Correctness checks (run after the timed loop; return None or a reason)
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _rel_dev(a, b):
    """Criterion 3's deviation: relative unless both are below 1e-30."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > mp.mpf(1e-30) else abs(a - b)


def check_renyi(sp, cell: Cell, vals, reference) -> str | None:
    with mp.workprec(256):
        worst = max(
            _rel_dev(vals[i], vals[j])
            for i in range(len(vals))
            for j in range(i + 1, len(vals))
        )
        if not worst <= RENYI_GATE:
            return f"routes disagree by {mp.nstr(worst, 3)} (gate {RENYI_GATE:g})"
    return None


def check_shannon(sp, cell: Cell, entropy, reference) -> str | None:
    ref = reference["shannon"].get(cell.key)
    if ref is None:
        return "no reference value for this cell"
    dev = abs(float(entropy) - ref["S"])
    if not dev <= SHANNON_TOL:
        return f"S={float(entropy)!r} vs reference {ref['S']!r} (|dS|={dev:.3g})"
    return None


def parse_row(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if len(lines) != 2:
        raise ValueError(f"expected a header and one row, got {len(lines)} lines")
    return dict(zip(lines[0].split(","), lines[1].split(",")))


def check_measures(sp, cell: Cell, output, reference) -> str | None:
    rc, text, err = output
    if rc != 0:
        return f"exit code {rc}: {err.strip()}"
    ref = reference["measures"].get(cell.key)
    if ref is None:
        return "no reference value for this cell"
    try:
        row = parse_row(text)
        got = {col: float(row[col]) for col in MEASURES_TOL}
    except (KeyError, ValueError) as exc:
        return f"unreadable row: {exc}"
    for col, tol in MEASURES_TOL.items():
        want = ref[col]
        # an undefined cell prints as inf (or nan); every reference is finite
        if not (math.isfinite(got[col]) and abs(got[col] - want) <= tol * abs(want)):
            return f"{col}={got[col]!r} vs reference {want!r} (rel tol {tol:g})"
    fam = _family(sp, cell)
    order = sp.RenyiOrder(4)
    with mp.workprec(256):
        gauss = sp.length_from_power_integral(
            sp.integrate_density_power(fam, cell.n, order), order
        )
        dev = _rel_dev(mp.mpf(got["L2"]), gauss)
        if not dev <= MEASURES_GAUSS_GATE:
            return f"L2 {got['L2']!r} vs Gauss route {mp.nstr(gauss, 17)} ({mp.nstr(dev, 3)})"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    cells: object
    run: object
    check: object
    #: Cells a traced run processes, so its counts repeat exactly.
    trace_cells: int
    #: Percentiles are taken over this many first cells of the order: the
    #: same cells on every commit, and fewer than a run completes on a
    #: shared 2-core x86 machine.
    sample_cells: int


WORKLOADS = {
    "renyi-crosscheck": Workload("renyi-crosscheck", renyi_cells, run_renyi, check_renyi, 300, 200),
    "shannon-large-n": Workload("shannon-large-n", shannon_cells, run_shannon, check_shannon, 50, 36),
    "measures-rows": Workload("measures-rows", measures_cells, run_measures, check_measures, 10, 10),
}
