"""Self-check scopes: each bundles independent cross-validations of one
quantity and reports machine-readable results."""

import pytest

from spreadpoly.context import PrecisionContext
from spreadpoly.families import Family, RenyiOrder
from spreadpoly.verification import Check, _renyi_cell_checks, available_scopes, run_scope

FAST = PrecisionContext(bits=128)


def test_scope_catalogue():
    names = available_scopes()
    for scope in ("stddev", "fisher", "renyi", "erratum", "shannon", "moments", "bounds"):
        assert scope in names
    assert names[-1] == "all"


def test_stddev_scope_all_pass():
    checks = run_scope("stddev", FAST)
    assert len(checks) > 10
    assert all(c.ok for c in checks)
    assert all(isinstance(c, Check) for c in checks)


def test_fisher_scope_all_pass():
    checks = {c.name: c for c in run_scope("fisher", FAST)}
    assert all(c.ok for c in checks.values()), [n for n, c in checks.items() if not c.ok]
    # reflection keeps the large-n rate bit for bit, as it keeps F
    rate = checks["fisher/reflection/jacobi(2,0)-vs-(0,2)/rate"]
    assert (rate.measured, rate.tolerance) == (0.0, 0.0)


def test_shannon_scope_all_pass():
    checks = run_scope("shannon", FAST)
    closed = [c for c in checks if c.name.startswith("shannon/mean-log-weight/")]
    assert len(closed) == 6
    anchors = [c for c in checks if c.name.startswith("shannon/anchor/")]
    assert len(anchors) == 3 + 25
    assert all(c.detail == "path float64" for c in anchors if not c.name.endswith("/n=0"))
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]


MARGIN_CHECKS = ("bounds/dominance/", "bounds/jacobi-trivial/", "shannon/inequality/")


@pytest.mark.parametrize("bits", [128, 256])
def test_margin_checks_pass_exactly_when_the_margin_is_nonnegative(bits):
    # a margin check records bound - N under report.bounds_table's rule,
    # so it passes exactly when what it records is >= its tolerance 0; at
    # the saturated Hermite ground state bound - N is rounding and reads 0
    checks = run_scope("bounds", PrecisionContext(bits=bits))
    checks += run_scope("shannon", PrecisionContext(bits=bits))
    margins = [c for c in checks if c.name.startswith(MARGIN_CHECKS)]
    assert len(margins) == 9 + 3 + 3
    assert all(c.tolerance == 0 and c.ok == (c.measured >= c.tolerance) for c in margins)
    (ground,) = [c for c in margins if c.name == "bounds/dominance/hermite/n=0"]
    assert ground.measured == 0 and ground.ok


def test_renyi_scope_all_pass():
    checks = run_scope("renyi", FAST)
    assert len(checks) == 165
    bell = [c for c in checks if c.name.endswith("/bell-vs-oracle")]
    assert len(bell) == 60
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]


def test_renyi_cell_compares_power_integrals_not_lengths():
    # the coincidence cell: Bell and Lauricella give W = 0 exactly, the Gauss
    # sum keeps its rounding (1.2e-83 at 256 bits); both lie below criterion
    # 3's 1e-30 floor, so they agree, although their lengths are inf and 6.6e165
    checks = _renyi_cell_checks(Family.laguerre(-0.5), 1, RenyiOrder(3), PrecisionContext(), 1e-10)
    assert [c.name.rsplit("/", 1)[1] for c in checks] == [
        "bell-vs-lauricella", "bell-vs-oracle", "lauricella-vs-oracle"
    ]
    assert all(c.ok for c in checks), [(c.name, c.measured) for c in checks]
    # at q = 1 every route is compared with 1 as well
    unit = _renyi_cell_checks(Family.hermite(), 3, RenyiOrder(2), FAST, 1e-10)
    assert [c.name.rsplit("/", 1)[1] for c in unit] == [
        "bell-vs-oracle", "bell-vs-unit", "oracle-vs-unit"
    ]
    assert all(c.ok for c in unit)


def test_erratum_scope_documents_display_mismatch():
    checks = run_scope("erratum", FAST)
    assert all(c.ok for c in checks)
    # every check carries the printed display value and the verified one
    assert all("display=" in c.detail and "oracle=" in c.detail for c in checks)


def test_check_as_dict_keys():
    checks = run_scope("moments", FAST)
    d = checks[0].as_dict()
    assert set(d) == {"name", "ok", "measured", "tolerance", "detail"}
    assert isinstance(d["ok"], bool)


def test_unknown_scope_rejected():
    with pytest.raises(ValueError):
        run_scope("nonsense", FAST)
