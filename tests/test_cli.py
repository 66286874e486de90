"""Command-line interface: subcommands, formats, ranges, and exit codes."""

import json

import pytest
from mpmath import mp

import spreadpoly.cli as cli
from spreadpoly.cli import main
from spreadpoly.families import Family
from spreadpoly.report import format_value
from spreadpoly.shannon import shannon_asymptotic

HEADER = "family,alpha,beta,n,stddev,fisher_length,L2,shannon_N"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_measures_hermite_csv(capsys):
    rc, out, err = run(
        capsys, "measures", "--family", "hermite", "--n", "0..2", "--bits", "128"
    )
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "hermite"
    assert first[1] == "" and first[2] == ""  # hermite has no alpha/beta
    assert first[3] == "0"
    # Delta x = sqrt(1/2) for the Gaussian ground state, 17 digits
    assert first[4] == "0.70710678118654757"


def test_measures_mixed_range_and_row_count(capsys):
    rc, out, _ = run(
        capsys,
        "measures", "--family", "laguerre", "--alpha", "2",
        "--n", "0,5,10..12", "--bits", "128",
    )
    assert rc == 0
    lines = out.splitlines()
    assert [r.split(",")[3] for r in lines[1:]] == ["0", "5", "10", "11", "12"]


def test_measures_extra_q_column(capsys):
    rc, out, _ = run(
        capsys,
        "measures", "--family", "hermite", "--n", "1",
        "--q", "3/2", "--bits", "128",
    )
    assert rc == 0
    assert out.splitlines()[0] == HEADER + ",L_3/2"


def test_measures_null_style_empty(capsys):
    rc, out, _ = run(
        capsys,
        "measures", "--family", "hermite", "--n", "0",
        "--null-style", "empty", "--bits", "128",
    )
    assert rc == 0
    row = out.splitlines()[1]
    assert row.startswith("hermite,,,0,")


def test_measures_json_with_provenance(capsys):
    rc, out, _ = run(
        capsys,
        "measures", "--family", "jacobi", "--alpha", "0", "--beta", "0",
        "--n", "0", "--format", "json", "--bits", "128",
    )
    assert rc == 0
    data = json.loads(out)
    assert data[0]["family"] == "jacobi"
    assert data[0]["provenance"]["stddev"] == "closed_form"
    assert data[0]["provenance"]["shannon_N"] == "oracle"


def test_absent_parameter_is_json_null(capsys):
    # under the default --null-style inf too: absent is neither inf nor undefined
    rc, out, _ = run(
        capsys,
        "measures", "--family", "laguerre", "--alpha", "1", "--n", "0",
        "--format", "json", "--bits", "128",
    )
    assert rc == 0
    row = json.loads(out)[0]
    assert row["alpha"] == 1.0 and row["beta"] is None


def test_meta_lines_only_when_requested(capsys):
    rc, plain, _ = run(capsys, "measures", "--family", "hermite", "--n", "0", "--bits", "128")
    rc2, withmeta, _ = run(
        capsys, "measures", "--family", "hermite", "--n", "0", "--bits", "128", "--meta"
    )
    assert rc == rc2 == 0
    assert not plain.startswith("#")
    assert withmeta.startswith("# bits: 128")
    assert plain in withmeta


def test_deterministic_output(capsys):
    args = ("measures", "--family", "laguerre", "--alpha", "0.5", "--n", "0..3",
            "--q", "3", "--bits", "128")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    rc, out, _ = run(
        capsys,
        "measures", "--family", "hermite", "--n", "0",
        "--output", str(target), "--bits", "128",
    )
    assert rc == 0 and out == ""
    assert target.read_text().splitlines()[0] == HEADER


def test_family_parameter_validation(capsys):
    rc, _, err = run(capsys, "measures", "--family", "hermite", "--alpha", "1", "--n", "0")
    assert rc == 2 and "spreadpoly: error:" in err
    rc, _, err = run(capsys, "measures", "--family", "laguerre", "--n", "0")
    assert rc == 2
    rc, _, err = run(capsys, "measures", "--family", "laguerre", "--alpha", "-2", "--n", "0")
    assert rc == 2
    rc, _, err = run(capsys, "measures", "--family", "jacobi", "--alpha", "1", "--n", "0")
    assert rc == 2


def test_unit_order_rejected(capsys):
    rc, _, err = run(
        capsys, "measures", "--family", "hermite", "--n", "0", "--q", "1"
    )
    assert rc == 2
    assert "q=1" in err


def test_bad_range_rejected(capsys):
    rc, _, err = run(capsys, "measures", "--family", "hermite", "--n", "5..2")
    assert rc == 2
    rc, _, err = run(capsys, "measures", "--family", "hermite", "--n", "-1")
    assert rc == 2


def test_argparse_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["measures", "--family", "tchebyshev", "--n", "0"])
    assert info.value.code == 2


def test_numeric_failure_exit_3_names_quantity(capsys, monkeypatch):
    def boom(*a, **k):
        raise ArithmeticError("synthetic overflow")

    monkeypatch.setattr(cli, "stddev", boom)
    rc, _, err = run(capsys, "measures", "--family", "hermite", "--n", "0", "--bits", "128")
    assert rc == 3
    assert "numeric failure" in err and "stddev" in err


def test_verify_scope_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--scope", "stddev", "--bits", "128")
    assert rc == 0
    payload = json.loads(out)
    assert payload["scope"] == "stddev"
    assert payload["failures"] == 0
    assert payload["total"] == len(payload["checks"]) > 0
    assert {"name", "ok", "measured", "tolerance", "detail"} <= set(payload["checks"][0])


def test_verify_tol_scale_failure_exit_1(capsys):
    rc, out, _ = run(
        capsys, "verify", "--scope", "fisher", "--tol-scale", "1e-30", "--bits", "128"
    )
    assert rc == 1
    payload = json.loads(out)
    assert payload["failures"] > 0


def test_asymptotics_columns(capsys):
    rc, out, _ = run(
        capsys,
        "asymptotics", "--family", "hermite", "--n", "10,40", "--bits", "128",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("family,alpha,beta,n,S_num,S_asym,N_num,N_asym,ratio")
    ratio_col = lines[0].split(",").index("ratio_dev")
    devs = [float(r.split(",")[ratio_col]) for r in lines[1:]]
    assert devs[1] < devs[0]  # approach to the universal ratio


def test_asymptotics_derived_columns_run_at_bits(capsys):
    # the CLI leaves the ambient mp.prec alone, so a column computed at it
    # would print the 53-bit value 2.6936423187731924
    rc, out, _ = run(
        capsys,
        "asymptotics", "--family", "laguerre", "--alpha", "2", "--n", "10", "--bits", "512",
    )
    assert rc == 0
    header, row = (line.split(",") for line in out.splitlines())
    with mp.workprec(512):
        want = shannon_asymptotic(Family.laguerre(2.0), 10).entropy
    assert row[header.index("S_asym")] == format_value(want) == "2.6936423187731919"


def test_bounds_dominance_column(capsys):
    rc, out, _ = run(
        capsys,
        "bounds", "--family", "laguerre", "--alpha", "0", "--n", "0..3", "--bits", "128",
    )
    assert rc == 0
    lines = out.splitlines()
    cols = lines[0].split(",")
    di = cols.index("dominates")
    assert all(r.split(",")[di] == "1" for r in lines[1:])


def test_env_bits_override(capsys, monkeypatch):
    monkeypatch.setenv("SPREADPOLY_BITS", "128")
    rc, out, _ = run(capsys, "measures", "--family", "hermite", "--n", "0", "--meta")
    assert rc == 0
    assert out.startswith("# bits: 128")
