import ast
import inspect
from dataclasses import fields
from pathlib import Path

from mpmath import mp
import pytest

from spreadpoly.context import (
    ParameterError,
    PrecisionContext,
    PrecisionError,
    agrees,
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


SRC = Path(__file__).resolve().parents[1] / "src" / "spreadpoly"


def test_no_module_reads_the_environment():
    # a value depends on its arguments alone: no os.environ, os.getenv or
    # os.putenv anywhere in the package, however it is imported
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in {"environ", "getenv", "putenv"}:
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno} from os import {a.name}" for a in node.names]
    assert len(list(SRC.glob("*.py"))) > 10
    assert not found


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
