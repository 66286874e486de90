"""Command-line interface: subcommands, formats, ranges, and exit codes."""

import json
import math
from pathlib import Path

import pytest
from mpmath import mp

import spreadpoly.report as report
from spreadpoly.cli import build_parser, main
from spreadpoly.bell import length_from_power_integral
from spreadpoly.context import ParameterError, PrecisionContext
from spreadpoly.families import Family, RenyiOrder
from spreadpoly.quadrature import integrate_density_power
from spreadpoly.report import format_value
from spreadpoly.shannon import shannon_asymptotic

HEADER = "family,alpha,beta,n,stddev,fisher_length,L2,shannon_N"

#: Exact stdout of one invocation (argv without ``--bits 128``) per table
#: kind, format and null style.
GOLDEN = json.loads((Path(__file__).parent / "golden_tables.json").read_text())


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


@pytest.mark.parametrize("command", list(GOLDEN))
def test_tables_are_byte_identical_to_golden(capsys, command):
    # a Jacobi bound (N <= 2) has no parameter: its bound_param is a JSON null
    rc, out, err = run(capsys, *command.split(), "--bits", "128")
    assert rc == 0 and err == ""
    assert out == GOLDEN[command]


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
        "measures", "--family", "hermite", "--n", "0",
        "--q", "3/2", "--bits", "128",
    )
    assert rc == 0
    assert out.splitlines()[0] == HEADER + ",L_3/2"
    # at n = 1 the signed W vanishes by parity, and no length is printed
    rc, out, err = run(
        capsys,
        "measures", "--family", "hermite", "--n", "1",
        "--q", "3/2", "--bits", "128",
    )
    assert rc == 2 and out == ""
    assert "L_3/2 hermite n=1" in err


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    # main reuses one parser per process; a second call with fewer --q flags
    # gets neither the first call's appended orders nor its other options
    assert build_parser() is build_parser()
    argv = ["measures", "--family", "hermite", "--n", "0", "--bits", "128"]
    rc, first, _ = run(capsys, *argv, "--q", "3", "--q", "4", "--format", "json")
    assert rc == 0 and '"L_3"' in first and '"L_4"' in first
    rc, second, _ = run(capsys, *argv, "--q", "3")
    assert rc == 0 and second.splitlines()[0] == HEADER + ",L_3"
    args = build_parser().parse_args(argv)
    assert args.q is None and args.format == "csv"


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


@pytest.mark.parametrize(
    "argv",
    [
        ("measures", "--family", "hermite", "--n", "0", "--bits", "128"),
        ("verify", "--scope", "all", "--bits", "128"),
        ("asymptotics", "--family", "hermite", "--n", "1", "--bits", "128"),
        ("bounds", "--family", "hermite", "--n", "1", "--bits", "128"),
    ],
    ids=["measures", "verify", "asymptotics", "bounds"],
)
def test_unwritable_output_is_a_usage_error(capsys, monkeypatch, tmp_path, argv):
    # found before any work: no table or check is computed
    def never(*_):
        raise AssertionError("computed before the output was checked")

    for name in ("run_scope", "measures_table", "asymptotics_table", "bounds_table"):
        monkeypatch.setattr(f"spreadpoly.cli.{name}", never)
    target = tmp_path / "no" / "such" / "dir" / "x.csv"
    rc, out, err = run(capsys, *argv, "--output", str(target))
    assert rc == 2 and out == ""
    assert err.startswith("spreadpoly: error:") and len(err.splitlines()) == 1
    assert str(target) in err


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


@pytest.mark.parametrize(
    "argv,name",
    [
        (("--family", "laguerre", "--alpha", "inf"), "alpha"),
        (("--family", "jacobi", "--alpha", "0.5", "--beta", "inf"), "beta"),
    ],
)
def test_non_finite_exponent_is_a_usage_error(capsys, argv, name):
    rc, out, err = run(capsys, "measures", *argv, "--n", "0", "--bits", "128")
    assert rc == 2 and out == ""
    assert f"{name} must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["measures", "--family", "hermite", "--n", "0"],
        ["verify", "--scope", "erratum"],
        ["asymptotics", "--family", "hermite", "--n", "1"],
        ["bounds", "--family", "hermite", "--n", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_rtol_is_a_usage_error(capsys, argv):
    # the working precision is the one numeric setting
    with pytest.raises(SystemExit) as info:
        main(argv + ["--rtol", "1e-20"])
    assert info.value.code == 2
    assert "--rtol" in capsys.readouterr().err


@pytest.mark.parametrize("n,q", [(3, "3/2"), (1, "3/2"), (3, "1/2"), (1, "5/2")])
def test_odd_order_length_exits_2_naming_it(capsys, n, q):
    # for odd 2q the routes give the signed integral of p_n^2q w^q, which
    # is not integral rho^q at n >= 1: no number is printed
    rc, out, err = run(
        capsys, "measures", "--family", "laguerre", "--alpha", "2", "--n", str(n),
        "--q", q, "--bits", "128",
    )
    assert rc == 2 and out == ""
    assert f"L_{q} laguerre(alpha=2) n={n}" in err and "Traceback" not in err


def test_odd_order_length_at_degree_zero(capsys):
    # p_0 keeps one sign, so the signed integral is integral rho^q there
    rc, out, err = run(
        capsys, "measures", "--family", "laguerre", "--alpha", "2", "--n", "0", "--q", "3/2"
    )
    assert rc == 0 and err == ""
    assert out.splitlines()[1].split(",")[-1] == "5.6953125"


def test_argparse_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["measures", "--family", "tchebyshev", "--n", "0"])
    assert info.value.code == 2


def test_numeric_failure_exit_3_names_quantity(capsys, monkeypatch):
    def boom(*a, **k):
        raise ArithmeticError("synthetic overflow")

    monkeypatch.setattr(report, "stddev", boom)
    rc, _, err = run(capsys, "measures", "--family", "hermite", "--n", "0", "--bits", "128")
    assert rc == 3
    assert "numeric failure" in err and "stddev" in err


def test_unsettled_zeros_exit_3_naming_shannon(capsys, monkeypatch):
    # the float64 Newton on the zeros of the Shannon panels may take no step
    monkeypatch.setattr("spreadpoly.orthopoly._NEWTON_MAX_ITER", 0)
    rc, out, err = run(capsys, "measures", "--family", "hermite", "--n", "3", "--bits", "128")
    assert rc == 3 and out == ""
    assert "numeric failure: shannon_N" in err and "did not settle" in err


@pytest.mark.parametrize(
    "params",
    [
        ("--family", "laguerre", "--alpha", "200"),
        ("--family", "jacobi", "--alpha", "100", "--beta", "100"),
    ],
    ids=["laguerre-200", "jacobi-100-100"],
)
def test_large_exponent_rows_compute(capsys, params):
    # mu_0 overflows a double here (Gamma(201), Gamma(202)); p_0 does not
    rc, out, err = run(capsys, "measures", *params, "--n", "0..2", "--bits", "128")
    assert rc == 0 and err == ""
    assert len(out.splitlines()) == 4


def test_p0_outside_the_doubles_row_computes(capsys):
    # p_0 = 1/sqrt(Gamma(302)) is about 3e-309, below the normal doubles; the
    # float64 Shannon engine starts from it scaled into range, and its S is
    # within the default tol 1e-9 of the mpf route's
    rc, out, err = run(capsys, "measures", "--family", "laguerre", "--alpha", "301", "--n", "2")
    assert rc == 0 and err == ""
    assert float(out.splitlines()[1].split(",")[-1]) == pytest.approx(
        math.exp(4.70226912383446), rel=1e-9
    )


@pytest.mark.parametrize(
    "alpha,beta,bits", [(-0.9, 0, None), (0, -0.9, 128), (-0.9, -0.5, 128), (-0.9, -0.9, 128)]
)
def test_infinite_mpf_shannon_integral_exits_3(capsys, alpha, beta, bits):
    # past the float64 estimate the mpf integrator runs; a node of its end
    # panel rounds onto the end, where w is infinite, and the integral comes
    # out -inf with a tiny estimate: that is a numeric failure, not a length
    argv = ["--family", "jacobi", "--alpha", str(alpha), "--beta", str(beta), "--n", "40"]
    rc, out, err = run(capsys, "measures", *argv, *(["--bits", str(bits)] if bits else []))
    assert rc == 3 and out == ""
    assert "numeric failure: shannon_N" in err and "not finite" in err
    assert f"jacobi(alpha={alpha:g}, beta={beta:g}) at n=40" in err


def test_bell_row_ignores_rtol_and_matches_gauss_l2(capsys):
    # the Bell value is one exact integer sum rounded once, so no agreement
    # tolerance exists to set: at 53 bits it gives the Gauss route's L2
    rc, out, err = run(capsys, "measures", "--family", "hermite", "--n", "2", "--bits", "53")
    assert rc == 0 and err == ""
    row = dict(zip(HEADER.split(","), out.splitlines()[1].split(",")))
    ctx = PrecisionContext(bits=53)
    W = integrate_density_power(Family.hermite(), 2, RenyiOrder(4), ctx)
    with mp.workprec(ctx.bits):
        assert row["L2"] == format_value(+length_from_power_integral(W, RenyiOrder(4)))


@pytest.mark.parametrize(
    "command,target,quantity",
    [
        ("asymptotics", "shannon_numeric", "shannon hermite n=1"),
        ("asymptotics", "stddev", "stddev hermite n=1"),
        ("bounds", "shannon_numeric", "shannon_N hermite n=1"),
        ("bounds", "optimize_bound", "bound hermite n=1"),
    ],
)
def test_undefined_row_input_exits_2_naming_it(capsys, monkeypatch, command, target, quantity):
    # the rest of the row is computed from these cells, so an undefined one
    # cannot become an empty field
    def undefined(*a, **k):
        raise ParameterError("synthetic undefined value")

    monkeypatch.setattr(report, target, undefined)
    rc, out, err = run(capsys, command, "--family", "hermite", "--n", "1", "--bits", "128")
    assert rc == 2 and out == ""
    assert f"{quantity} is undefined" in err and "Traceback" not in err


def test_verify_scope_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--scope", "stddev", "--bits", "128")
    assert rc == 0
    payload = json.loads(out)
    assert payload["scope"] == "stddev"
    assert set(payload) == {"scope", "bits", "total", "failures", "passed", "checks"}
    assert payload["failures"] == 0
    assert payload["total"] == len(payload["checks"]) > 0
    assert {"name", "ok", "measured", "tolerance", "detail"} <= set(payload["checks"][0])


def _no_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("scale", ["2", "nan", "inf", "-1", "0"])
def test_tol_scale_is_a_usage_error(capsys, scale):
    # every gate is a constant, so verify takes no tolerance factor
    with pytest.raises(SystemExit) as info:
        main(["verify", "--scope", "stddev", "--tol-scale", scale])
    assert info.value.code == 2
    assert "--tol-scale" in capsys.readouterr().err


def test_verify_writes_strict_json_for_a_non_finite_deviation(capsys, monkeypatch):
    # a deviation of inf (one side infinite) is written as "inf", as the
    # tables write it, and the report parses with no NaN or Infinity
    import spreadpoly.cli as cli
    from spreadpoly.verification import Check

    checks = [Check("demo/inf", False, float("inf"), 1e-12), Check("demo/ok", True, 0.0, 1e-12)]
    monkeypatch.setattr(cli, "run_scope", lambda scope, ctx: checks)
    rc, out, _ = run(capsys, "verify", "--scope", "stddev")
    assert rc == 1
    payload = json.loads(out, parse_constant=_no_constant)
    assert [c["measured"] for c in payload["checks"]] == ["inf", 0.0]


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


def test_even_order_shortfall_prints_finite_l2(capsys):
    # the Bell sum of this row cancels below 1024 bits; L2 must not be inf
    rc, out, _ = run(
        capsys, "measures", "--family", "laguerre", "--alpha", "5", "--n", "80",
        "--bits", "512",
    )
    assert rc == 0
    header, row = (line.split(",") for line in out.splitlines())
    assert row[header.index("L2")] == "136.90452661069344"


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


@pytest.mark.parametrize("bits", [128, 256])
def test_saturated_bound_margin_reads_zero(capsys, bits):
    # the Hermite k = 2 bound is exact at n = 0, so bound - N is rounding
    # alone: it used to print -2^-126 (128 bits) or -3.5e-77 (256 bits) next
    # to dominates 1
    rc, out, _ = run(capsys, "bounds", "--family", "hermite", "--n", "0..2", "--bits", str(bits))
    assert rc == 0
    header, *rows = (line.split(",") for line in out.splitlines())
    di, mi = header.index("dominates"), header.index("margin")
    assert [row[mi] for row in rows] == ["0", "0.70859040972454435", "1.0946905140078"]
    assert all(row[di] == str(int(float(row[mi]) >= 0)) for row in rows)


ENV_ARGV = [
    ["measures", "--family", "hermite", "--n", "0..2", "--meta"],
    ["asymptotics", "--family", "laguerre", "--alpha", "2", "--n", "1,10"],
    ["bounds", "--family", "hermite", "--n", "0..2"],
    ["verify", "--scope", "stddev"],
]


@pytest.mark.parametrize("argv", ENV_ARGV, ids=lambda argv: argv[0])
def test_env_bits_is_ignored(capsys, monkeypatch, argv):
    # the output depends on the arguments alone: --bits, default 256, is the
    # one precision setting
    monkeypatch.delenv("SPREADPOLY_BITS", raising=False)
    rc, plain, _ = run(capsys, *argv)
    assert rc == 0
    monkeypatch.setenv("SPREADPOLY_BITS", "64")
    rc, with_env, _ = run(capsys, *argv)
    assert rc == 0 and with_env == plain
    if "--meta" in argv:
        assert "# bits: 256\n" in with_env
