"""Spreading-measure tables: every table row is assembled here.

One function per table, each taking a family and a list of degrees:

measures_table     stddev, Fisher length, Renyi lengths (L2 and any extra
                   orders, Bell route) and the Shannon length N
asymptotics_table  numeric vs large-n S and N, N/stddev vs the reference
                   constant, Cramer-Rao products vs their rates
bounds_table       optimized entropy upper bound vs the numeric N

Each returns ``(header, rows, provenance)``: the column names, one dict
per degree, and the route that produced each computed column
(closed_form | bell | oracle | asymptotic), which is the same down the
column.  An undefined cell is None; a cell the rest of the row is
computed from, and an odd-2q Renyi length at n >= 1, raise
:class:`ParameterError` instead, and an arithmetic failure raises
:class:`NumericFailure`, both naming the quantity.  The arithmetic
between cells runs at ``ctx.bits``, whatever the caller's ``mp.prec``.
Formatting helpers render rows as CSV (17 significant digits,
round-trippable) or JSON.
"""

from __future__ import annotations

import json

from mpmath import mp

from .context import ParameterError, PrecisionContext
from .families import HERMITE, JACOBI, Family, RenyiOrder
from .closed_form import (
    asymptotic_cramer_rao,
    cramer_rao_product,
    fisher_length,
    stddev,
)
from .bell import renyi_length_bell
from .shannon import (
    _bound_margin,
    jacobi_trivial_bound,
    optimize_bound,
    ratio_constant,
    shannon_asymptotic,
    shannon_numeric,
)

__all__ = [
    "NumericFailure",
    "measures_table",
    "asymptotics_table",
    "bounds_table",
    "format_value",
    "rows_to_csv",
    "rows_to_json",
]

TAG_CLOSED = "closed_form"
TAG_BELL = "bell"
TAG_ORACLE = "oracle"
TAG_ASYMPTOTIC = "asymptotic"

#: A field the row's family does not have (Hermite's alpha and beta, the
#: parameter of the Jacobi bound): an empty CSV field and a JSON null
#: whatever the null style, since it is absent rather than undefined or
#: infinite.
ABSENT = object()

_LEAD = ["family", "alpha", "beta", "n"]

_DEFAULT_CTX = PrecisionContext()


class NumericFailure(ArithmeticError):
    """An arithmetic failure, carrying the name of the failing quantity."""


def _cell(quantity, fn, required=False):
    """Evaluate one table cell; undefined -> None, numeric error -> raise.

    In a ``required`` cell an undefined value is a usage error that names
    the quantity: a cell the rest of the row is computed from, or an extra
    Renyi length, whose routes refuse an odd 2q at n >= 1 rather than
    return a wrong number.
    """
    try:
        return fn()
    except ParameterError as exc:
        if required:
            raise ParameterError(f"{quantity} is undefined: {exc}") from exc
        return None
    except ArithmeticError as exc:
        raise NumericFailure(f"{quantity}: {exc}") from exc


def _row(family: Family, n: int, **cells) -> dict:
    """The family columns and the degree, followed by the row's cells."""
    alpha = family.alpha if family.kind != HERMITE else ABSENT
    beta = family.beta if family.kind == JACOBI else ABSENT
    return {"family": family.kind, "alpha": alpha, "beta": beta, "n": n, **cells}


def measures_table(family: Family, degrees, orders=(), ctx: PrecisionContext = _DEFAULT_CTX):
    """stddev, Fisher length, L2 and the Shannon length N for each degree.

    ``orders`` adds one Renyi-length column ``L_<q>`` per distinct order
    (a :class:`RenyiOrder` or anything ``RenyiOrder.from_q`` takes) other
    than q = 2, which is always present as ``L2``.  q = 1 has no Renyi
    length and is rejected, and so is an odd 2q at any degree n >= 1: the
    ParameterError names the column and the degree.
    """
    orders = dict.fromkeys(map(RenyiOrder.from_q, orders))
    if any(o.is_unit for o in orders):
        raise ParameterError("q=1 has no Renyi length (Shannon limit); drop it")
    extra = [o for o in orders if o.two_q != 4]
    header = _LEAD + ["stddev", "fisher_length", "L2", "shannon_N"]
    header += [f"L_{o.q}" for o in extra]
    provenance = {
        "stddev": TAG_CLOSED,
        "fisher_length": TAG_CLOSED,
        "L2": TAG_BELL,
        "shannon_N": TAG_ORACLE,
    }
    provenance.update({f"L_{o.q}": TAG_BELL for o in extra})

    rows = []
    for n in degrees:
        where = f"{family.describe()} n={n}"
        row = _row(
            family, n,
            stddev=_cell(f"stddev {where}", lambda: stddev(family, n, ctx)),
            fisher_length=_cell(
                f"fisher_length {where}", lambda: fisher_length(family, n, ctx)
            ),
            L2=_cell(
                f"L2 {where}", lambda: renyi_length_bell(family, n, RenyiOrder(4), ctx)
            ),
            shannon_N=_cell(
                f"shannon_N {where}", lambda: shannon_numeric(family, n, ctx).length
            ),
        )
        for o in extra:
            row[f"L_{o.q}"] = _cell(
                f"L_{o.q} {where}", lambda o=o: renyi_length_bell(family, n, o, ctx),
                required=True,
            )
        rows.append(row)
    return header, rows, provenance


def asymptotics_table(family: Family, degrees, ctx: PrecisionContext = _DEFAULT_CTX):
    """Numeric vs large-n S and N, N/stddev vs ratio_constant(), and the
    Cramer-Rao product vs its large-n rate, for each degree."""
    header = _LEAD + [
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
            cr_at = rate.at(n) if n > 0 or rate.exponent == 0 else None
            if cr is None or cr_at is None or mp.isinf(cr):
                cr_dev = None
            else:
                scale = max(abs(cr), abs(cr_at))
                cr_dev = abs(cr - cr_at) / scale if scale else mp.mpf(0)
            rows.append(_row(
                family, n,
                S_num=sh.entropy,
                S_asym=None if sa is None else sa.entropy,
                N_num=sh.length,
                N_asym=None if sa is None else sa.length,
                ratio=ratio,
                ratio_dev=abs(ratio - limit),
                cr_product=cr,
                cr_asym=cr_at,
                cr_rel_dev=cr_dev,
            ))
    return header, rows, provenance


def bounds_table(family: Family, degrees, ctx: PrecisionContext = _DEFAULT_CTX):
    """The tightest entropy upper bound on N, its free parameter (absent for
    Jacobi's N <= 2), its margin bound - N, and whether it dominates the
    numeric N (``dominates`` is 1 exactly when ``margin`` >= 0).  A margin
    within N's error estimate plus a few ulps of the bound reads 0
    (``shannon._bound_margin``, the rule ``verify``'s margin checks share)."""
    header = _LEAD + ["shannon_N", "bound", "bound_param", "dominates", "margin"]
    provenance = {"shannon_N": TAG_ORACLE, "bound": TAG_CLOSED,
                  "bound_param": TAG_CLOSED, "dominates": TAG_CLOSED,
                  "margin": TAG_CLOSED}
    rows = []
    with mp.workprec(ctx.bits):
        for n in degrees:
            where = f"{family.describe()} n={n}"
            sh = _cell(
                f"shannon_N {where}", lambda: shannon_numeric(family, n, ctx), required=True
            )
            if family.kind == JACOBI:
                bound, param = jacobi_trivial_bound(), ABSENT
            else:
                bound, param = _cell(
                    f"bound {where}",
                    lambda: optimize_bound(family, n, ctx),
                    required=True,
                )
            margin = _bound_margin(bound, sh, ctx.bits)
            rows.append(_row(
                family, n,
                shannon_N=sh.length,
                bound=bound,
                bound_param=param,
                dominates=int(margin >= 0),
                margin=margin,
            ))
    return header, rows, provenance


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def format_value(v, null_style: str = "inf") -> str:
    """17-significant-digit decimal; undefined/non-finite per null_style."""
    if v is ABSENT:
        return ""
    if v is None:
        return "inf" if null_style == "inf" else ""
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    f = float(v)
    if f != f or f in (float("inf"), float("-inf")):
        return "inf" if null_style == "inf" else ""
    return format(f, ".17g")


def _csv_quote(token: str) -> str:
    if any(ch in token for ch in ',"\n\r'):
        return '"' + token.replace('"', '""') + '"'
    return token


def rows_to_csv(header, rows, null_style: str = "inf", meta=None) -> str:
    """RFC-4180-style CSV; optional metadata as leading # comment lines."""
    lines = []
    if meta:
        for k in sorted(meta):
            lines.append(f"# {k}: {meta[k]}")
    lines.append(",".join(_csv_quote(h) for h in header))
    for row in rows:
        lines.append(
            ",".join(_csv_quote(format_value(row.get(h), null_style)) for h in header)
        )
    return "\n".join(lines) + "\n"


def _json_value(v, null_style: str):
    if v is ABSENT:
        return None
    if v is None:
        return "inf" if null_style == "inf" else None
    if isinstance(v, (str, int, bool)):
        return v
    f = float(v)
    if f != f or f in (float("inf"), float("-inf")):
        return "inf" if null_style == "inf" else None
    return f

def rows_to_json(header, rows, null_style: str = "inf", meta=None) -> str:
    """JSON array of row objects (wrapped with metadata when requested)."""
    out = []
    for row in rows:
        obj = {h: _json_value(row.get(h), null_style) for h in header}
        if "provenance" in row:
            obj["provenance"] = row["provenance"]
        out.append(obj)
    payload = {"meta": meta, "rows": out} if meta else out
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
