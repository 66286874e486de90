"""The package imports no third-party module beyond its declared runtime
dependencies, mpmath and numpy: scipy serves the tests' oracles alone."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spreadpoly"


def _third_party_imports():
    """Top-level names of every absolute import in the package, those
    inside functions included, less the standard library and the package."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"spreadpoly"}


def _project():
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _runtime_dependencies():
    """Distribution names of ``pyproject.toml``'s runtime dependencies."""
    return {re.match(r"[\w.-]+", req).group() for req in _project()["dependencies"]}


def test_package_imports_exactly_its_runtime_dependencies():
    assert _third_party_imports() == _runtime_dependencies() == {"mpmath", "numpy"}


def test_scipy_is_a_test_dependency_only():
    test_extra = _project()["optional-dependencies"]["test"]
    assert any(re.match(r"[\w.-]+", req).group() == "scipy" for req in test_extra)
