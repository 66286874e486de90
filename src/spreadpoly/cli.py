"""Command-line interface.

Subcommands
-----------
measures     spreading-measure table (stddev, Fisher length, Renyi
             lengths, Shannon length) over a degree range
verify       run the desk-scale self-check registry, JSON report
asymptotics  numeric vs large-n displays for S and N, ratio to the
             reference constant, Cramer-Rao products vs their rates
bounds       optimized entropy upper bounds vs the numeric N

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 numeric failure (the message names the failing quantity).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from mpmath import mp

from .context import (
    ENV_BITS,
    ENV_RTOL,
    ParameterError,
    PrecisionContext,
    default_context,
)
from .families import Family, RenyiOrder
from .closed_form import (
    asymptotic_cramer_rao,
    cramer_rao_product,
    fisher_length,
    stddev,
)
from .bell import renyi_length_bell
from .shannon import (
    jacobi_trivial_bound,
    optimize_bound,
    ratio_constant,
    shannon_asymptotic,
    shannon_numeric,
)
from .report import (
    ABSENT,
    TAG_ASYMPTOTIC,
    TAG_BELL,
    TAG_CLOSED,
    TAG_ORACLE,
    rows_to_csv,
    rows_to_json,
)
from .verification import available_scopes, run_scope

__all__ = ["main", "build_parser"]

class NumericFailure(Exception):
    """Wraps an ArithmeticError with the name of the failing quantity."""


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def _parse_n_range(text: str):
    """Degree list: ``a..b`` inclusive ranges and comma lists, mixable."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ParameterError(f"empty degree token in {text!r}")
        if ".." in token:
            lo_s, _, hi_s = token.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ParameterError(f"bad degree range {token!r}") from None
            if lo > hi:
                raise ParameterError(f"empty degree range {token!r}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(token))
            except ValueError:
                raise ParameterError(f"bad degree {token!r}") from None
    if not out or min(out) < 0:
        raise ParameterError(f"degrees must be nonnegative: {text!r}")
    return out


def _parse_q_list(values):
    """Renyi orders from repeated/comma-joined ``--q`` flags ('2', '3/2')."""
    orders = []
    for value in values or []:
        for token in str(value).split(","):
            token = token.strip()
            if not token:
                continue
            try:
                orders.append(RenyiOrder.from_q(Fraction(token)))
            except (ValueError, ZeroDivisionError):
                raise ParameterError(f"bad Renyi order {token!r}") from None
    seen, unique = set(), []
    for o in orders:
        if o.two_q not in seen:
            seen.add(o.two_q)
            unique.append(o)
    return unique


def _family_from_args(args) -> Family:
    kind = args.family
    if kind == "hermite":
        if args.alpha is not None or args.beta is not None:
            raise ParameterError("hermite takes no --alpha/--beta")
        return Family.hermite()
    if kind == "laguerre":
        if args.alpha is None:
            raise ParameterError("laguerre requires --alpha")
        if args.beta is not None:
            raise ParameterError("laguerre takes no --beta")
        return Family.laguerre(args.alpha)
    if args.alpha is None or args.beta is None:
        raise ParameterError("jacobi requires --alpha and --beta")
    return Family.jacobi(args.alpha, args.beta)


def _context_from_args(args) -> PrecisionContext:
    base = default_context()
    bits = args.bits if args.bits is not None else base.bits
    rtol = args.rtol if args.rtol is not None else base.rel_tol
    return PrecisionContext(bits=bits, rel_tol=rtol)


def _family_columns(family: Family):
    alpha = family.alpha if family.kind != "hermite" else ABSENT
    beta = family.beta if family.kind == "jacobi" else ABSENT
    return alpha, beta


def _emit(args, header, rows, meta):
    if args.format == "json":
        text = rows_to_json(header, rows, args.null_style, meta)
    else:
        text = rows_to_csv(header, rows, args.null_style, meta)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cell(quantity, fn, required=False):
    """Evaluate one table cell; undefined -> None, numeric error -> exit-3.

    A ``required`` cell is one the rest of the row is computed from: there
    an undefined value is a usage error (exit 2) that names the quantity.
    """
    try:
        return fn()
    except ParameterError as exc:
        if required:
            raise ParameterError(f"{quantity} is undefined: {exc}") from exc
        return None
    except ArithmeticError as exc:
        raise NumericFailure(f"{quantity}: {exc}") from exc


def _base_meta(args, ctx):
    if not args.meta:
        return None
    return {"bits": ctx.bits, "rtol": repr(ctx.rel_tol), "format": args.format}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_measures(args) -> int:
    ctx = _context_from_args(args)
    family = _family_from_args(args)
    degrees = _parse_n_range(args.n)
    orders = _parse_q_list(args.q)
    for o in orders:
        if o.is_unit:
            raise ParameterError("q=1 has no Renyi length (Shannon limit); drop it")
    extra = [o for o in orders if o.two_q != 4]
    header = ["family", "alpha", "beta", "n", "stddev", "fisher_length", "L2", "shannon_N"]
    header += [f"L_{o.q}" for o in extra]
    provenance = {
        "stddev": TAG_CLOSED,
        "fisher_length": TAG_CLOSED,
        "L2": TAG_BELL,
        "shannon_N": TAG_ORACLE,
    }
    provenance.update({f"L_{o.q}": TAG_BELL for o in extra})

    alpha, beta = _family_columns(family)
    rows = []
    for n in degrees:
        where = f"{family.describe()} n={n}"
        row = {
            "family": family.kind,
            "alpha": alpha,
            "beta": beta,
            "n": n,
            "stddev": _cell(f"stddev {where}", lambda: stddev(family, n, ctx)),
            "fisher_length": _cell(
                f"fisher_length {where}", lambda: fisher_length(family, n, ctx)
            ),
            "L2": _cell(
                f"L2 {where}", lambda: renyi_length_bell(family, n, RenyiOrder(4), ctx)
            ),
            "shannon_N": _cell(
                f"shannon_N {where}",
                lambda: shannon_numeric(family, n, ctx).length,
            ),
        }
        for o in extra:
            row[f"L_{o.q}"] = _cell(
                f"L_{o.q} {where}",
                lambda o=o: renyi_length_bell(family, n, o, ctx),
            )
        if args.format == "json":
            row["provenance"] = provenance
        rows.append(row)

    meta = _base_meta(args, ctx)
    if meta is not None:
        meta.update({"command": "measures", "family": family.describe()})
    _emit(args, header, rows, meta)
    return 0


def cmd_verify(args) -> int:
    ctx = _context_from_args(args)
    checks = run_scope(args.scope, ctx, args.tol_scale)
    failures = [c for c in checks if not c.ok]
    payload = {
        "scope": args.scope,
        "bits": ctx.bits,
        "rtol": repr(ctx.rel_tol),
        "tol_scale": args.tol_scale,
        "total": len(checks),
        "failures": len(failures),
        "passed": not failures,
        "checks": [c.as_dict() for c in checks],
    }
    import json

    text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if not failures else 1


def cmd_asymptotics(args) -> int:
    ctx = _context_from_args(args)
    family = _family_from_args(args)
    degrees = _parse_n_range(args.n)
    header = [
        "family", "alpha", "beta", "n",
        "S_num", "S_asym", "N_num", "N_asym",
        "ratio", "ratio_dev", "cr_product", "cr_asym", "cr_rel_dev",
    ]
    provenance = {
        "S_num": TAG_ORACLE, "N_num": TAG_ORACLE,
        "S_asym": TAG_ASYMPTOTIC, "N_asym": TAG_ASYMPTOTIC,
        "ratio": TAG_ORACLE, "ratio_dev": TAG_ORACLE,
        "cr_product": TAG_CLOSED, "cr_asym": TAG_ASYMPTOTIC,
        "cr_rel_dev": TAG_CLOSED,
    }
    alpha, beta = _family_columns(family)
    rate = asymptotic_cramer_rao(family, ctx)
    rows = []
    with mp.workprec(ctx.bits):
        limit = ratio_constant()
        for n in degrees:
            where = f"{family.describe()} n={n}"
            sh = _cell(
                f"shannon {where}", lambda: shannon_numeric(family, n, ctx), required=True
            )
            sa = _cell(f"shannon asymptotic {where}", lambda: shannon_asymptotic(family, n))
            dx = _cell(f"stddev {where}", lambda: stddev(family, n, ctx), required=True)
            cr = _cell(f"cramer_rao {where}", lambda: cramer_rao_product(family, n, ctx))
            ratio = sh.length / dx
            if n > 0 or rate.exponent == 0:
                cr_at = rate.at(n)
            else:
                cr_at = None
            if cr is None or cr_at is None or mp.isinf(cr):
                cr_dev = None
            else:
                scale = max(abs(cr), abs(cr_at))
                cr_dev = abs(cr - cr_at) / scale if scale else mp.mpf(0)
            row = {
                "family": family.kind, "alpha": alpha, "beta": beta, "n": n,
                "S_num": sh.entropy,
                "S_asym": None if sa is None else sa.entropy,
                "N_num": sh.length,
                "N_asym": None if sa is None else sa.length,
                "ratio": ratio,
                "ratio_dev": abs(ratio - limit),
                "cr_product": cr,
                "cr_asym": cr_at,
                "cr_rel_dev": cr_dev,
            }
            if args.format == "json":
                row["provenance"] = provenance
            rows.append(row)
    meta = _base_meta(args, ctx)
    if meta is not None:
        meta.update({"command": "asymptotics", "family": family.describe(),
                     "reference_ratio": float(limit)})
    _emit(args, header, rows, meta)
    return 0


def cmd_bounds(args) -> int:
    ctx = _context_from_args(args)
    family = _family_from_args(args)
    degrees = _parse_n_range(args.n)
    header = ["family", "alpha", "beta", "n", "shannon_N", "bound", "bound_param",
              "dominates", "margin"]
    provenance = {"shannon_N": TAG_ORACLE, "bound": TAG_CLOSED,
                  "bound_param": TAG_CLOSED, "dominates": TAG_CLOSED,
                  "margin": TAG_CLOSED}
    alpha, beta = _family_columns(family)
    rows = []
    with mp.workprec(ctx.bits):
        for n in degrees:
            where = f"{family.describe()} n={n}"
            sh = _cell(
                f"shannon_N {where}", lambda: shannon_numeric(family, n, ctx), required=True
            )
            if family.kind == "jacobi":
                bound, param = jacobi_trivial_bound(), None
            else:
                bound, param = _cell(
                    f"bound {where}",
                    lambda: optimize_bound(family, n, None, ctx),
                    required=True,
                )
            margin = bound - sh.length
            row = {
                "family": family.kind, "alpha": alpha, "beta": beta, "n": n,
                "shannon_N": sh.length,
                "bound": bound,
                "bound_param": param,
                "dominates": int(sh.length <= bound + sh.est_error * sh.length),
                "margin": margin,
            }
            if args.format == "json":
                row["provenance"] = provenance
            rows.append(row)
    meta = _base_meta(args, ctx)
    if meta is not None:
        meta.update({"command": "bounds", "family": family.describe()})
    _emit(args, header, rows, meta)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_family_flags(p):
    p.add_argument("--family", required=True,
                   choices=["hermite", "laguerre", "jacobi"])
    p.add_argument("--alpha", type=float, default=None,
                   help="weight exponent (laguerre, jacobi)")
    p.add_argument("--beta", type=float, default=None,
                   help="second weight exponent (jacobi)")
    p.add_argument("--n", required=True,
                   help="degrees: 'a..b' inclusive, comma list, or both")


def _add_output_flags(p):
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", default=None, help="write here instead of stdout")
    p.add_argument("--null-style", choices=["inf", "empty"], default="inf",
                   help="rendering of missing/undefined values")
    p.add_argument("--meta", action="store_true",
                   help="include run metadata (omitted by default so output "
                        "is byte-identical across runs)")


def _add_precision_flags(p):
    p.add_argument("--bits", type=int, default=None,
                   help=f"working precision bits (default: env {ENV_BITS} or 256)")
    p.add_argument("--rtol", type=float, default=None,
                   help=f"escalation agreement tolerance (default: env {ENV_RTOL})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spreadpoly",
        description="Spreading measures of Rakhmanov densities of "
                    "orthonormal Hermite/Laguerre/Jacobi polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="measure table over a degree range")
    _add_family_flags(p)
    p.add_argument("--q", action="append", default=None,
                   help="extra Renyi orders, rationals like 2 or 3/2 "
                        "(repeatable or comma-joined); L2 is always included")
    _add_output_flags(p)
    _add_precision_flags(p)
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("verify", help="run self-checks, emit a JSON report")
    p.add_argument("--scope", default="all", choices=available_scopes())
    p.add_argument("--tol-scale", type=float, default=1.0,
                   help="multiply every check tolerance by this factor")
    p.add_argument("--output", default=None)
    _add_precision_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("asymptotics",
                       help="numeric vs large-n entropy/length displays")
    _add_family_flags(p)
    _add_output_flags(p)
    _add_precision_flags(p)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("bounds", help="entropy upper bounds vs numeric N")
    _add_family_flags(p)
    _add_output_flags(p)
    _add_precision_flags(p)
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"spreadpoly: error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"spreadpoly: numeric failure: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"spreadpoly: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
