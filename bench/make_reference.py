"""Regenerate ``reference.json``: stored values for the finite grids that the
``shannon-large-n`` and ``measures-rows`` workloads draw from.

Every stored value is cross-checked once, here, by an independent route:

* Shannon entropy: SciPy ``quad`` on each inter-zero panel of rho ln rho,
  with zeros from ``scipy.special.roots_*`` and the classical polynomials
  from ``scipy.special.eval_*`` (no code of the package involved);
* standard deviation: the Gauss-rule moments ``moment_quadrature``;
* Fisher length: ``fisher_information_numeric`` when the information is
  finite, growth of ``fisher_truncated`` as the cutoff shrinks when not;
* L2 and L3: the Gauss route ``integrate_density_power``, and the
  Lauricella route for Laguerre at n <= 6.

Run from the repository root (two worker processes, about ten minutes on
a 2-core x86 machine):

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import math
import multiprocessing
import sys
import time
import warnings
from pathlib import Path

from scipy import integrate, special

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from provenance import provenance  # noqa: E402

#: Largest disagreement accepted between a stored value and its cross-check.
XCHECK_TOL = {
    "S": 1e-9,
    "stddev": 1e-12,
    "fisher_length": 1e-7,
    "L2": 1e-10,
    "L_3": 1e-10,
}


# ---------------------------------------------------------------------------
# Independent Shannon entropy (SciPy only)
# ---------------------------------------------------------------------------


def _log_norm(kind, a, b, n):
    """ln of the squared norm h_n of the classical (unnormalized) polynomial."""
    if kind == "hermite":
        return 0.5 * math.log(math.pi) + n * math.log(2.0) + math.lgamma(n + 1)
    if kind == "laguerre":
        return math.lgamma(n + a + 1) - math.lgamma(n + 1)
    return (
        (a + b + 1) * math.log(2.0)
        - math.log(2 * n + a + b + 1)
        + math.lgamma(n + a + 1)
        + math.lgamma(n + b + 1)
        - math.lgamma(n + a + b + 1)
        - math.lgamma(n + 1)
    )


def _classical(kind, a, b, n, x):
    if kind == "hermite":
        return special.eval_hermite(n, x)
    if kind == "laguerre":
        return special.eval_genlaguerre(n, a, x)
    return special.eval_jacobi(n, a, b, x)


def _log_weight(kind, a, b, x):
    if kind == "hermite":
        return -x * x
    if kind == "laguerre":
        return a * math.log(x) - x
    return a * math.log1p(-x) + b * math.log1p(x)


def _roots(kind, a, b, n):
    if n == 0:
        return []
    if kind == "hermite":
        return list(special.roots_hermite(n)[0])
    if kind == "laguerre":
        return list(special.roots_genlaguerre(n, a)[0])
    return list(special.roots_jacobi(n, a, b)[0])


def scipy_entropy(kind, a, b, n):
    """S = -integral rho ln rho, by quad on every inter-zero panel."""
    log_h = _log_norm(kind, a, b, n)

    def rho_log_rho(x):
        p = _classical(kind, a, b, n, x)
        if p == 0.0 or not math.isfinite(p):
            return 0.0
        log_rho = 2.0 * math.log(abs(p)) + _log_weight(kind, a, b, x) - log_h
        return math.exp(log_rho) * log_rho

    zs = _roots(kind, a, b, n)
    if kind == "hermite":
        edge = (zs[-1] if zs else 0.0) + 12.0
        pts = [-edge] + zs + [edge]
    elif kind == "laguerre":
        pts = [0.0] + zs + [(zs[-1] if zs else 0.0) + 300.0]
    else:
        pts = [-1.0] + zs + [1.0]
    total = 0.0
    with warnings.catch_warnings():
        # roundoff warnings near the log singularities; the agreement
        # with the package, checked against XCHECK_TOL, is the arbiter
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for lo, hi in zip(pts, pts[1:]):
            val, _ = integrate.quad(rho_log_rho, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)
            total += val
    return -total


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------


def _shannon_entry(cell):
    import spreadpoly as sp

    S = float(wl.run_shannon(sp, cell))
    S_x = scipy_entropy(cell.kind, cell.alpha, cell.beta, cell.n)
    return cell.key, {"S": S, "xcheck": {"S": abs(S - S_x)}}


def _rel(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _measures_entry(cell):
    import spreadpoly as sp
    import spreadpoly.cli  # noqa: F401
    from mpmath import mp
    from spreadpoly import closed_form, lauricella

    rc, text, err = wl.run_measures(sp, cell)
    if rc != 0:
        raise RuntimeError(f"{cell.describe()}: exit {rc}: {err}")
    row = wl.parse_row(text)
    entry = {col: float(row[col]) for col in wl.MEASURES_TOL}
    fam = wl._family(sp, cell)
    n = cell.n
    xcheck = {}
    with mp.workprec(256):
        m1 = closed_form.moment_quadrature(fam, n, 1)
        m2 = closed_form.moment_quadrature(fam, n, 2)
        xcheck["stddev"] = _rel(entry["stddev"], float(mp.sqrt(m2 - m1 * m1)))
    if entry["fisher_length"] > 0:
        F = float(closed_form.fisher_information_numeric(fam, n))
        xcheck["fisher_length"] = _rel(entry["fisher_length"], 1 / math.sqrt(F))
    else:
        wide = float(closed_form.fisher_truncated(fam, n, 1e-4))
        narrow = float(closed_form.fisher_truncated(fam, n, 1e-8))
        if not narrow > 10 * wide:
            raise RuntimeError(f"{cell.describe()}: Fisher mass does not grow: {wide} {narrow}")
        xcheck["fisher_length"] = 0.0
    for col, two_q in (("L2", 4), ("L_3", 6)):
        order = sp.RenyiOrder(two_q)
        routes = [sp.integrate_density_power(fam, n, order)]
        if cell.kind == "laguerre" and n <= wl.RENYI_LAURICELLA_MAX_N:
            routes.append(lauricella.laguerre_power_integral_lauricella(n, cell.alpha, order))
        with mp.workprec(256):
            xcheck[col] = max(
                _rel(entry[col], float(sp.length_from_power_integral(W, order)))
                for W in routes
            )
    S_x = scipy_entropy(cell.kind, cell.alpha, cell.beta, n)
    xcheck["S"] = abs(math.log(entry["shannon_N"]) - S_x)
    entry["xcheck"] = xcheck
    return cell.key, entry


def _task(job):
    kind, cell = job
    t0 = time.perf_counter()
    key, entry = (_shannon_entry if kind == "shannon" else _measures_entry)(cell)
    print(f"{kind} {cell.describe()}: {time.perf_counter() - t0:.1f}s", flush=True)
    return kind, key, entry


def main() -> int:
    import random

    rng = random.Random(0)
    jobs = [("measures", c) for c in wl.measures_cells(rng)]
    jobs += [("shannon", c) for c in wl.shannon_cells(rng)]
    # longest first, so the two workers finish together
    jobs.sort(key=lambda j: -(j[1].n ** 2 if j[0] == "shannon" else 400 * j[1].n ** 2))
    out = {"shannon": {}, "measures": {}}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        for kind, key, entry in pool.imap_unordered(_task, jobs):
            out[kind][key] = entry
    worst = {}
    for kind in ("shannon", "measures"):
        for key, entry in out[kind].items():
            for col, dev in entry["xcheck"].items():
                worst[col] = max(worst.get(col, 0.0), dev)
                if not dev <= XCHECK_TOL[col]:
                    print(f"cross-check failed: {kind} {key} {col} dev {dev:.3g}")
                    return 1
    prov = provenance()
    payload = {
        "generated_by": "bench/make_reference.py",
        "commit": prov["commit"],
        "versions": {k: prov[k] for k in ("python", "mpmath", "numpy", "scipy", "mpmath_backend")},
        "xcheck_tol": XCHECK_TOL,
        "xcheck_worst": worst,
        "shannon": dict(sorted(out["shannon"].items())),
        "measures": dict(sorted(out["measures"].items())),
    }
    with open(wl.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print("worst cross-check deviations:", worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
