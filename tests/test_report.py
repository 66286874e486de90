"""The table assemblers and the CSV/JSON renderers of their rows."""

import json
from fractions import Fraction

import pytest
from mpmath import mp

from spreadpoly.context import ParameterError, PrecisionContext
from spreadpoly.families import Family
from spreadpoly.report import (
    ABSENT,
    asymptotics_table,
    bounds_table,
    format_value,
    measures_table,
    rows_to_csv,
    rows_to_json,
)
from spreadpoly.closed_form import stddev

FAST = PrecisionContext(bits=128)


def test_measures_table_columns_rows_and_provenance():
    header, rows, provenance = measures_table(
        Family.hermite(), [0, 2], (Fraction(4), 2, "3"), FAST
    )
    # q = 2 is the L2 column already; the other orders follow in turn
    assert header == ["family", "alpha", "beta", "n", "stddev", "fisher_length",
                      "L2", "shannon_N", "L_4", "L_3"]
    assert [r["n"] for r in rows] == [0, 2]
    assert rows[0]["alpha"] is ABSENT and rows[0]["beta"] is ABSENT
    assert rows[1]["stddev"] == stddev(Family.hermite(), 2, FAST)
    assert provenance == {"stddev": "closed_form", "fisher_length": "closed_form",
                          "L2": "bell", "shannon_N": "oracle",
                          "L_4": "bell", "L_3": "bell"}


def test_measures_table_refuses_odd_order_lengths_past_degree_zero():
    # for odd 2q the routes give a signed integral, integral rho^q only at n = 0
    header, rows, _ = measures_table(Family.hermite(), [0], [Fraction(3, 2)], FAST)
    assert header[-1] == "L_3/2" and rows[0]["L_3/2"] > 0
    with pytest.raises(ParameterError, match="L_3/2 hermite n=2"):
        measures_table(Family.hermite(), [0, 2], [Fraction(3, 2)], FAST)


def test_measures_table_rejects_unit_order():
    with pytest.raises(ParameterError, match="q=1"):
        measures_table(Family.hermite(), [0], [1], FAST)


def test_jacobi_bound_param_is_absent():
    _, rows, _ = bounds_table(Family.jacobi(2.0, 2.0), [0, 3], FAST)
    assert all(r["bound"] == 2 and r["bound_param"] is ABSENT for r in rows)
    assert all(r["dominates"] == 1 for r in rows)


@pytest.mark.parametrize("table", [asymptotics_table, bounds_table])
def test_row_arithmetic_ignores_ambient_precision(table):
    family = Family.laguerre(2.0)
    want = table(family, [1, 10], FAST)
    with mp.workprec(20):
        got = table(family, [1, 10], FAST)
    assert got == want


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
    text = rows_to_csv(["x"], [{"x": 1.0}], meta={"format": "csv", "bits": 256})
    lines = text.splitlines()
    assert lines[0] == "# bits: 256"
    assert lines[1] == "# format: csv"
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
