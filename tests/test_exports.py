"""Every exported name resolves, so a deleted function cannot stay in `__all__`."""

import importlib
import pkgutil

import pytest

import symfrieze

MODULES = ["symfrieze"] + [
    f"symfrieze.{m.name}" for m in pkgutil.iter_modules(symfrieze.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it lacks: {missing}"
