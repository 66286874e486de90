import inspect
from dataclasses import fields

from mpmath import mp
import pytest

from spreadpoly.context import (
    ParameterError,
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

    val = with_escalation(f, PrecisionContext(bits=64), 1e-15)
    assert agrees(val, mp.mpf(1) / 3, 1e-15)
    assert calls[0] == 64 and calls[1] == 128


def test_with_escalation_raises_on_chaos():
    # value depends on the working precision -> can never stabilise
    def f(bits):
        return mp.mpf(bits)

    with pytest.raises(PrecisionError):
        with_escalation(f, PrecisionContext(bits=64), 1e-15)


def test_with_escalation_checks_every_tuple_element():
    # element 0 settles at once; element 1 never does
    def f(bits):
        with mp.workprec(bits):
            return +(mp.mpf(1) / 3), mp.mpf(bits)

    with pytest.raises(PrecisionError):
        with_escalation(f, PrecisionContext(bits=64), 1e-15)


def test_default_context_env_override(monkeypatch):
    # SPREADPOLY_BITS is the one setting read from the environment
    monkeypatch.setenv("SPREADPOLY_BITS", "128")
    monkeypatch.setenv("SPREADPOLY_RTOL", "1e-12")
    assert default_context() == PrecisionContext(bits=128)
    monkeypatch.delenv("SPREADPOLY_BITS")
    assert default_context() == PrecisionContext() == PrecisionContext(bits=256)


@pytest.mark.parametrize("value", ["abc", "", "12.5"])
def test_malformed_env_bits_is_a_parameter_error(monkeypatch, value):
    monkeypatch.setenv("SPREADPOLY_BITS", value)
    with pytest.raises(ParameterError, match=f"SPREADPOLY_BITS must be an integer; got {value!r}"):
        default_context()


def test_context_has_bits_alone():
    assert [f.name for f in fields(PrecisionContext)] == ["bits"]
    with pytest.raises(ParameterError):
        PrecisionContext(bits=52)
    with pytest.raises(TypeError):
        PrecisionContext(bits=128, rel_tol=1e-18)


def test_with_escalation_takes_its_tolerance_as_an_argument():
    # consecutive runs differ by 1/(2 bits): within 1e-2 at once, never
    # within 1e-4 before the budget of doublings runs out
    def f(bits):
        return mp.mpf(1) + mp.mpf(1) / bits

    assert with_escalation(f, PrecisionContext(bits=64), 1e-2) == f(128)
    with pytest.raises(PrecisionError):
        with_escalation(f, PrecisionContext(bits=64), 1e-4)
    assert list(inspect.signature(with_escalation).parameters) == ["compute", "ctx", "rel_tol"]
