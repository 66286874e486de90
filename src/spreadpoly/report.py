"""Measure reports: one record per (family, n) with per-value provenance.

Each numeric field is wrapped in :class:`Tagged`, naming the route that
produced it (closed_form | bell | lauricella | oracle | asymptotic), so a
table row can always be traced back to the producing formula or
integrator.  Formatting helpers render rows as CSV (17 significant
digits, round-trippable) or JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from mpmath import mp

from .context import ParameterError, PrecisionContext
from .families import HERMITE, JACOBI, LAGUERRE, Family, RenyiOrder
from .closed_form import (
    cramer_rao_product,
    fisher_information_numeric,
    fisher_length,
    moment_quadrature,
    stddev,
)
from .bell import length_from_power_integral, renyi_length_bell
from .lauricella import renyi_length_laguerre_lauricella
from .quadrature import QuadratureError, integrate_density_power
from .shannon import (
    jacobi_trivial_bound,
    optimize_bound,
    shannon_asymptotic,
    shannon_inequality_check,
    shannon_numeric,
)

__all__ = [
    "Tagged",
    "MeasureReport",
    "build_report",
    "format_value",
    "rows_to_csv",
    "rows_to_json",
]

TAG_CLOSED = "closed_form"
TAG_BELL = "bell"
TAG_LAURICELLA = "lauricella"
TAG_ORACLE = "oracle"
TAG_ASYMPTOTIC = "asymptotic"

#: A field the row's family does not have (Hermite's alpha and beta): an
#: empty CSV field and a JSON null whatever the null style, since it is
#: absent rather than undefined or infinite.
ABSENT = object()

_DEFAULT_CTX = PrecisionContext()


@dataclass(frozen=True)
class Tagged:
    """A value plus the route that produced it (None marks undefined)."""

    value: object
    provenance: str


@dataclass(frozen=True)
class MeasureReport:
    """All requested spreading measures of one Rakhmanov density."""

    family: str
    alpha: float
    beta: float
    n: int
    stddev: Tagged
    fisher_length: Tagged
    renyi: dict
    shannon_numeric: Tagged
    shannon_asymptotic: Tagged
    oracle: dict
    bounds: dict
    audits: dict


def _renyi_entry(family: Family, n: int, two_q: int, ctx: PrecisionContext) -> Tagged:
    try:
        return Tagged(renyi_length_bell(family, n, RenyiOrder(two_q), ctx), TAG_BELL)
    except ParameterError:
        return Tagged(None, TAG_BELL)


def build_report(
    family: Family,
    n: int,
    two_q_list=(4,),
    ctx: PrecisionContext = _DEFAULT_CTX,
    *,
    include_oracle: bool = False,
    include_bounds: bool = False,
    include_asymptotic: bool = False,
    include_audits: bool = False,
    shannon_tol: float = 1e-9,
) -> MeasureReport:
    """Assemble one fully tagged record; optional blocks stay empty dicts."""
    sd = Tagged(stddev(family, n, ctx), TAG_CLOSED)
    fl = Tagged(fisher_length(family, n, ctx), TAG_CLOSED)
    renyi = {two_q: _renyi_entry(family, n, two_q, ctx) for two_q in two_q_list}
    sn = Tagged(shannon_numeric(family, n, ctx, tol=shannon_tol), TAG_ORACLE)
    try:
        sa = Tagged(shannon_asymptotic(family, n), TAG_ASYMPTOTIC)
    except ParameterError:
        sa = Tagged(None, TAG_ASYMPTOTIC)
    if not include_asymptotic:
        sa = Tagged(None, TAG_ASYMPTOTIC)

    oracle = {}
    if include_oracle:
        m1 = moment_quadrature(family, n, 1, ctx)
        m2 = moment_quadrature(family, n, 2, ctx)
        oracle["stddev"] = Tagged(mp.sqrt(m2 - m1 * m1), TAG_ORACLE)
        try:
            F = fisher_information_numeric(family, n)
            oracle["fisher_length"] = Tagged(
                mp.inf if F == 0 else 1 / mp.sqrt(F), TAG_ORACLE
            )
        except QuadratureError:
            oracle["fisher_length"] = Tagged(None, TAG_ORACLE)
        for two_q in two_q_list:
            try:
                order = RenyiOrder(two_q)
                W = integrate_density_power(family, n, order, ctx)
                oracle[f"L_{two_q}/2"] = Tagged(
                    length_from_power_integral(W, order), TAG_ORACLE
                )
            except ParameterError:
                oracle[f"L_{two_q}/2"] = Tagged(None, TAG_ORACLE)
        if family.kind == LAGUERRE:
            for two_q in two_q_list:
                try:
                    oracle[f"L_{two_q}/2_lauricella"] = Tagged(
                        renyi_length_laguerre_lauricella(
                            n, family.alpha, RenyiOrder(two_q), ctx
                        ),
                        TAG_LAURICELLA,
                    )
                except ParameterError:
                    oracle[f"L_{two_q}/2_lauricella"] = Tagged(None, TAG_LAURICELLA)

    bounds = {}
    if include_bounds:
        if family.kind == JACOBI:
            bounds["upper"] = Tagged(jacobi_trivial_bound(), TAG_CLOSED)
            bounds["param"] = Tagged(None, TAG_CLOSED)
        else:
            val, par = optimize_bound(family, n, None, ctx)
            bounds["upper"] = Tagged(val, TAG_CLOSED)
            bounds["param"] = Tagged(par, TAG_CLOSED)

    audits = {}
    if include_audits:
        dx = sd.value
        audits["cramer_rao"] = bool(fl.value <= dx * (1 + mp.mpf(10) ** -20))
        audits["shannon_inequality"] = bool(shannon_inequality_check(family, n, ctx))
        if bounds:
            N = sn.value.length
            slack = sn.value.est_error * N
            audits["bound_dominance"] = bool(N <= bounds["upper"].value + slack)

    return MeasureReport(
        family=family.kind,
        alpha=float(family.alpha),
        beta=float(family.beta),
        n=n,
        stddev=sd,
        fisher_length=fl,
        renyi=renyi,
        shannon_numeric=sn,
        shannon_asymptotic=sa,
        oracle=oracle,
        bounds=bounds,
        audits=audits,
    )


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
