"""Tagged measure records and the CSV/JSON renderers built on them."""

import json

import pytest
from mpmath import mp

from spreadpoly.context import PrecisionContext
from spreadpoly.families import Family
from spreadpoly.report import (
    MeasureReport,
    Tagged,
    build_report,
    format_value,
    rows_to_csv,
    rows_to_json,
)

FAST = PrecisionContext(bits=128, rel_tol=1e-18)


def test_build_report_structure_and_provenance():
    rep = build_report(Family.laguerre(2.0), 3, (4, 3), FAST)
    assert isinstance(rep, MeasureReport)
    assert rep.family == "laguerre" and rep.alpha == 2.0 and rep.n == 3
    assert rep.stddev.provenance == "closed_form"
    assert rep.fisher_length.provenance == "closed_form"
    assert set(rep.renyi) == {4, 3}
    assert rep.renyi[4].provenance == "bell"
    assert rep.shannon_numeric.provenance == "oracle"
    assert rep.shannon_numeric.value.entropy > 0
    # optional blocks default to empty
    assert rep.oracle == {} and rep.bounds == {} and rep.audits == {}
    assert rep.shannon_asymptotic.value is None


def test_build_report_optional_blocks():
    rep = build_report(
        Family.hermite(),
        2,
        (4,),
        FAST,
        include_oracle=True,
        include_bounds=True,
        include_asymptotic=True,
        include_audits=True,
    )
    assert abs(rep.oracle["stddev"].value - rep.stddev.value) < mp.mpf(1e-12)
    assert abs(rep.oracle["L_4/2"].value - rep.renyi[4].value) < mp.mpf(1e-12)
    assert rep.oracle["stddev"].provenance == "oracle"
    assert rep.bounds["upper"].value >= rep.shannon_numeric.value.length
    assert rep.bounds["param"].value in range(2, 13)
    assert rep.shannon_asymptotic.provenance == "asymptotic"
    assert rep.audits["cramer_rao"] and rep.audits["shannon_inequality"]
    assert rep.audits["bound_dominance"]


def test_laguerre_report_includes_lauricella_cross_route():
    rep = build_report(Family.laguerre(0.0), 1, (4,), FAST, include_oracle=True)
    lau = rep.oracle["L_4/2_lauricella"]
    assert lau.provenance == "lauricella"
    assert abs(lau.value - rep.renyi[4].value) < mp.mpf(1e-20)


def test_divergent_oracle_fisher_length_is_undefined():
    # F = inf on this branch; the numeric oracle raises instead of a finite value
    rep = build_report(Family.laguerre(0.5), 0, (4,), FAST, include_oracle=True)
    assert rep.oracle["fisher_length"] == Tagged(None, "oracle")
    assert rep.fisher_length.value == 0


def test_format_value_round_trip():
    for v in (1 / 3, 1.2345678901234567e-5, 2.0, -17.25):
        assert float(format_value(v)) == v
    assert format_value(None) == "inf"
    assert format_value(None, "empty") == ""
    assert format_value(mp.inf) == "inf"
    assert format_value(float("nan"), "empty") == ""
    assert format_value(mp.mpf("0.125")) == "0.125"


def test_csv_rendering_and_quoting():
    text = rows_to_csv(
        ["a", "b"],
        [{"a": "plain", "b": 'say "hi", twice'}, {"a": None, "b": 1.5}],
        null_style="empty",
    )
    lines = text.splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == 'plain,"say ""hi"", twice"'
    assert lines[2] == ",1.5"
    assert text.endswith("\n")


def test_csv_meta_lines_sorted_and_commented():
    text = rows_to_csv(["x"], [{"x": 1.0}], meta={"rtol": "1e-30", "bits": 256})
    lines = text.splitlines()
    assert lines[0] == "# bits: 256"
    assert lines[1] == "# rtol: 1e-30"
    assert lines[2] == "x"


def test_json_rendering():
    text = rows_to_json(["a", "b"], [{"a": 1.5, "b": None}], null_style="inf")
    data = json.loads(text)
    assert data == [{"a": 1.5, "b": "inf"}]
    text2 = rows_to_json(["a"], [{"a": None}], null_style="empty")
    assert json.loads(text2) == [{"a": None}]


def test_json_meta_wrapper_and_provenance_passthrough():
    row = {"x": 2.0, "provenance": {"x": "closed_form"}}
    text = rows_to_json(["x"], [row], meta={"bits": 64})
    data = json.loads(text)
    assert data["meta"] == {"bits": 64}
    assert data["rows"][0]["x"] == 2.0
    assert data["rows"][0]["provenance"] == {"x": "closed_form"}
