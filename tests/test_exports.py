"""Every exported name resolves, so a deleted function cannot stay in
`__all__`, and every module-level import is used or exported, so one
cannot outlive the code that needed it."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


SRC = Path(symfrieze.__file__).resolve().parent

# bindings that `bench/tracer.py` patches, kept although the module never calls them
TRACER_BINDINGS = {
    ("slfrieze", "det"),
    ("search", "dihedral_images"),
    ("search", "propagate_from_zigzag"),
    ("search", "translate"),
}


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return {name for name in imported - used - exported if (path.stem, name) not in TRACER_BINDINGS}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert _unused_imports(path) == set()
