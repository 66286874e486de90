import sys
from pathlib import Path

import pytest
from mpmath import mp

from spreadpoly.context import PrecisionContext

# test modules import the shared oracles as ``oracles`` under any pytest
# import mode, including ``--import-mode=importlib``
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(autouse=True)
def _precision_is_restored():
    """Fail any test that leaves ``mp.prec`` changed.

    The libmp kernels read ``mp.prec`` directly, so a leaked precision
    would silently change the values of every later test.  The precision
    is restored before the failure is reported.
    """
    before = mp.prec
    yield
    after = mp.prec
    if after != before:
        mp.prec = before
        pytest.fail(f"test left mp.prec at {after} bits (was {before})")


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext()


@pytest.fixture(scope="session")
def fast_ctx():
    """Lower-precision context for sweeps where 1e-12-ish checks suffice."""
    return PrecisionContext(bits=128)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion, when they ran."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    if mod is None or not getattr(mod, "RESULTS", None):
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(mod.RESULTS):
        ok, detail = mod.RESULTS[k]
        word = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {k}: {word} — {detail}")
