from mpmath import mp
import pytest

from spreadpoly.context import (
    PrecisionContext,
    PrecisionError,
    agrees,
    default_context,
    with_escalation,
)


def test_agrees_basic():
    assert agrees(mp.mpf(1), mp.mpf(1) + mp.mpf(1e-30), 1e-20)
    assert not agrees(mp.mpf(1), mp.mpf(1.001), 1e-20)
    assert agrees(mp.inf, mp.inf, 1e-20)
    assert not agrees(mp.inf, mp.mpf(5), 1e-20)
    assert agrees(mp.mpf(0), mp.mpf(0), 1e-20)


def test_with_escalation_stabilises():
    calls = []

    def f(bits):
        calls.append(bits)
        with mp.workprec(bits):
            return +(mp.mpf(1) / 3)

    ctx = PrecisionContext(bits=64, rel_tol=1e-15)
    val = with_escalation(f, ctx)
    assert agrees(val, mp.mpf(1) / 3, 1e-15)
    assert calls[0] == 64 and calls[1] == 128


def test_with_escalation_raises_on_chaos():
    # value depends on the working precision -> can never stabilise
    def f(bits):
        return mp.mpf(bits)

    with pytest.raises(PrecisionError):
        with_escalation(f, PrecisionContext(bits=64, rel_tol=1e-15))


def test_with_escalation_checks_every_tuple_element():
    # element 0 settles at once; element 1 never does
    def f(bits):
        with mp.workprec(bits):
            return +(mp.mpf(1) / 3), mp.mpf(bits)

    with pytest.raises(PrecisionError):
        with_escalation(f, PrecisionContext(bits=64, rel_tol=1e-15))


def test_default_context_env_override(monkeypatch):
    monkeypatch.setenv("SPREADPOLY_BITS", "128")
    monkeypatch.setenv("SPREADPOLY_RTOL", "1e-12")
    ctx = default_context()
    assert ctx.bits == 128
    assert ctx.rel_tol == 1e-12
    monkeypatch.delenv("SPREADPOLY_BITS")
    monkeypatch.delenv("SPREADPOLY_RTOL")
    assert default_context().bits == 256
