"""Command-line interface: argv parsing and output around :mod:`report`.

Subcommands
-----------
measures     spreading-measure table (stddev, Fisher length, Renyi
             lengths, Shannon length) over a degree range
verify       run the desk-scale self-check registry, JSON report
asymptotics  numeric vs large-n displays for S and N, ratio to the
             reference constant, Cramer-Rao products vs their rates
bounds       optimized entropy upper bounds vs the numeric N

The three tables are built by ``report.measures_table``,
``report.asymptotics_table`` and ``report.bounds_table``; this module only
turns flags into their arguments and writes what they return.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 numeric failure (the message names the failing quantity).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from mpmath import mp

from .context import ENV_BITS, ParameterError, PrecisionContext, default_context
from .families import Family, RenyiOrder
from .shannon import ratio_constant
from .report import (
    asymptotics_table,
    bounds_table,
    measures_table,
    rows_to_csv,
    rows_to_json,
)
from .verification import available_scopes, run_scope

__all__ = ["main", "build_parser"]


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
    return default_context() if args.bits is None else PrecisionContext(bits=args.bits)


def _write(args, text):
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_table(args) -> int:
    """measures / asymptotics / bounds: build the table in report, emit it."""
    ctx = _context_from_args(args)
    family = _family_from_args(args)
    degrees = _parse_n_range(args.n)
    if args.command == "measures":
        table = measures_table(family, degrees, _parse_q_list(args.q), ctx)
    elif args.command == "asymptotics":
        table = asymptotics_table(family, degrees, ctx)
    else:
        table = bounds_table(family, degrees, ctx)
    header, rows, provenance = table
    meta = None
    if args.meta:
        meta = {"bits": ctx.bits, "format": args.format, "command": args.command,
                "family": family.describe()}
        if args.command == "asymptotics":
            with mp.workprec(ctx.bits):
                meta["reference_ratio"] = float(ratio_constant())
    if args.format == "json":
        rows = [dict(row, provenance=provenance) for row in rows]
        text = rows_to_json(header, rows, args.null_style, meta)
    else:
        text = rows_to_csv(header, rows, args.null_style, meta)
    _write(args, text)
    return 0


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tol_scale) and args.tol_scale > 0):
        raise ParameterError(f"--tol-scale must be finite and > 0; got {args.tol_scale!r}")
    ctx = _context_from_args(args)
    checks = run_scope(args.scope, ctx, args.tol_scale)
    failures = [c for c in checks if not c.ok]
    payload = {
        "scope": args.scope,
        "bits": ctx.bits,
        "tol_scale": args.tol_scale,
        "total": len(checks),
        "failures": len(failures),
        "passed": not failures,
        "checks": [c.as_dict() for c in checks],
    }
    _write(args, json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return 0 if not failures else 1


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
    p.set_defaults(func=cmd_table)

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
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("bounds", help="entropy upper bounds vs numeric N")
    _add_family_flags(p)
    _add_output_flags(p)
    _add_precision_flags(p)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"spreadpoly: error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"spreadpoly: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
