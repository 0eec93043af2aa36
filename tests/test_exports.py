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


# the modules that take an lcm themselves: `scalars` for its one scaling
# helper, `linalg` for the Gaussian rows of `det` and `cluster` for the
# symmetrizer; any other exact int path scales through `scalars._lcm_scaled`
LCM_MODULES = {"scalars", "linalg", "cluster"}


def _takes_lcm(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            if any(alias.name == "lcm" for alias in node.names):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == "lcm":
            if isinstance(node.value, ast.Name) and node.value.id == "math":
                return True
    return False


def test_only_the_scaling_helper_and_two_kernels_take_an_lcm():
    assert {path.stem for path in SRC.glob("*.py") if _takes_lcm(path)} == LCM_MODULES
