"""Every name the package and each of its modules export in ``__all__`` is bound."""

import importlib
import pkgutil

import pytest

import spreadpoly

MODULES = ["spreadpoly"] + sorted(
    f"spreadpoly.{info.name}" for info in pkgutil.iter_modules(spreadpoly.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_are_bound(name):
    module = importlib.import_module(name)
    unbound = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not unbound
