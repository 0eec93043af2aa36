"""Values are coerced into their scalar kind once, where they enter.

The public constructors and entry points still reject a float in an exact
computation.  The package's own builders hand on values already in the
kind, through `Matrix._of`, `SLFrieze._of` and the `FriezeGrid`
constructor, so reading a frieze, or translating, mirroring or twisting
it, coerces nothing.  `ast` scans keep the set of functions that coerce
to the boundary listed here, the callers of the coercing
`FriezeGrid.from_cells` to the three that start from display cells, and
the calls of the `FriezeGrid` constructor inside `frieze`.  Gaussian
arithmetic and `linalg` build values through the trusted, reducing
`GaussianRational._of`; only parsing and `GaussianKind` call the checking
constructor, and only `scalars` and `linalg` read the int fields.
The value types are plain `__slots__` classes, so importing the CLI
loads neither `dataclasses` nor the `inspect` module it pulls in.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import WIDTH2_COEFFS
from symfrieze.diffeq import SymmetricDiffEq, dual_equation_coeffs, entry_det_band, solve
from symfrieze.frieze import (
    FriezeGrid,
    GridIndex,
    check_local_rules,
    check_tame,
    extract_coeffs,
    from_equation,
    mirror_grid,
    propagate_from_coeffs,
    propagate_from_zigzag,
    sign_twist,
    translate,
)
from symfrieze.legendrian import Polygon, SymplecticForm, frieze_from_polygon, omega, polygon_from_frieze
from symfrieze.linalg import Matrix
from symfrieze.scalars import GAUSSIAN, RATIONAL, KindMismatch, RationalKind
from symfrieze.slfrieze import SLFrieze, black_of, coeffs_of, gale_dual, projective_dual, symplectic_of

SRC = Path(__file__).resolve().parents[1] / "src" / "symfrieze"

# each takes (kind, a width-2 grid of that kind, a float) and must raise
ENTRY_POINTS = {
    "Matrix": lambda k, g, x: Matrix(k, [[1, x], [0, 1]]),
    "SLFrieze": lambda k, g, x: SLFrieze(k, 3, 2, {**dict(black_of(g).cells()), (0, 0): x}),
    "FriezeGrid.from_cells": lambda k, g, x: FriezeGrid.from_cells(k, 2, {**dict(g.cells()), (0, 0): x}),
    "with_entry": lambda k, g, x: g.with_entry(GridIndex(0, 0), x),
    "from_equation": lambda k, g, x: from_equation(((x, 1, 1),), kind=k),
    "entry_det_band": lambda k, g, x: entry_det_band(((x, 1, 1),), 0, 0, k),
    "dual_equation_coeffs": lambda k, g, x: dual_equation_coeffs(((x, 1, 1),), k),
    "SymmetricDiffEq": lambda k, g, x: SymmetricDiffEq((x,) * 7, extract_coeffs(g)[1], k),
    "solve": lambda k, g, x: solve(SymmetricDiffEq(*extract_coeffs(g), k), (0, 0, 0, x), 0, 3),
    "propagate_from_zigzag": lambda k, g, x: propagate_from_zigzag((1, 1, x, 1), width=2, kind=k),
    "Polygon": lambda k, g, x: Polygon(5, 0, ((x, 0, 0, 0),) * 5, SymplecticForm(1, kind=k)),
    "SymplecticForm": lambda k, g, x: SymplecticForm(x, kind=k),
    "omega": lambda k, g, x: omega(SymplecticForm(1, kind=k), (x, 0, 0, 0), (0, 0, 0, 1)),
}

GRIDS = {kind.name: propagate_from_coeffs(*WIDTH2_COEFFS, kind) for kind in (RATIONAL, GAUSSIAN)}


@pytest.mark.parametrize("kind", [RATIONAL, GAUSSIAN], ids=lambda k: k.name)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_points_reject_a_float(entry, kind):
    with pytest.raises(KindMismatch):
        ENTRY_POINTS[entry](kind, GRIDS[kind.name], 0.5)


def test_reading_a_frieze_coerces_only_its_coefficients(monkeypatch):
    # the README's width-2 frieze; a rebuild coerces the 2n coefficients
    # of its equation and the 3n of its order-3 table
    g = GRIDS["rational"]
    f = black_of(g)
    calls = []
    coerce = RationalKind.coerce

    def counted(self, value):
        calls.append(value)
        return coerce(self, value)

    monkeypatch.setattr(RationalKind, "coerce", counted)

    def count(fn, arg):
        calls.clear()
        fn(arg)
        return len(calls)

    for fn in (coeffs_of, projective_dual, gale_dual):
        assert count(fn, f) == 0, fn.__name__
    assert count(check_local_rules, g) == 0
    for fn in (lambda g: translate(g, 3), mirror_grid, sign_twist):
        assert count(fn, g) == 0
    assert count(check_tame, g) <= 5 * g.period
    assert count(symplectic_of, f) <= 5 * g.period


def test_polygon_frieze_coerces_nothing(monkeypatch):
    # a Polygon holds its vertices in the kind, so its pairings coerce nothing
    p = polygon_from_frieze(propagate_from_zigzag([1] * 8, width=4), 2)
    calls = []
    coerce = RationalKind.coerce
    monkeypatch.setattr(RationalKind, "coerce", lambda self, value: calls.append(value) or coerce(self, value))
    frieze_from_polygon(p)
    assert calls == []


# functions that coerce a caller's values: parsers, public constructors and
# entry points, and the Laurent evaluations, whose values are ints or polynomials
BOUNDARY = {
    "cli._parse_values",
    "formats._decode_value",
    "formats._parse_frieze_text",
    "diffeq._coeff_table",
    "diffeq.SymmetricDiffEq.__init__",
    "diffeq.solve",
    "linalg.Matrix.__init__",
    "linalg.Matrix.scaled",
    "linalg.solve_linear",
    "frieze.SLFrieze.__init__",
    "frieze.FriezeGrid.from_cells",
    "frieze.FriezeGrid.with_entry",
    "frieze.propagate_from_zigzag",
    "frieze.extend_through_zero",
    "legendrian.SymplecticForm.__init__",
    "legendrian.Polygon.__init__",
    "legendrian.omega",
    "legendrian.normalize_lift",
    "cluster.LaurentPolynomial.evaluate",
    "cluster.evaluate_frieze",
}


def _functions_where(test):
    """`module.[Class.]function` of every top-level function or method
    holding a node that passes `test`; nested code counts for the
    function around it, and code outside any function for its class or
    module."""
    found = set()

    def scan(node, name):
        if any(test(n) for n in ast.walk(node)):
            found.add(name)

    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        scan(item, f"{module}.{node.name}.{item.name}")
                    else:
                        scan(item, f"{module}.{node.name}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(node, f"{module}.{node.name}")
            else:
                scan(node, module)
    return found


def test_only_the_boundary_coerces():
    assert _functions_where(lambda n: isinstance(n, ast.Attribute) and n.attr == "coerce") == BOUNDARY


def test_only_display_cell_builders_call_from_cells():
    # translations, mirrors and the sign twist write the band stores instead
    found = _functions_where(lambda n: isinstance(n, ast.Attribute) and n.attr == "from_cells")
    assert found == {
        "formats._unchecked_grid",
        "search.enumerate_friezes",
        "frieze.propagate_from_zigzag",
    }


def test_only_frieze_calls_the_grid_constructor():
    def constructs(n):
        if not isinstance(n, ast.Call):
            return False
        f = n.func
        return (isinstance(f, ast.Name) and f.id == "FriezeGrid") or (
            isinstance(f, ast.Attribute) and f.attr == "FriezeGrid"
        )

    found = _functions_where(constructs)
    assert found and {name.split(".")[0] for name in found} == {"frieze"}



def test_gaussian_values_are_built_through_the_trusted_path():
    def calls_constructor(n):
        f = n.func if isinstance(n, ast.Call) else None
        return "GaussianRational" in (getattr(f, "id", None), getattr(f, "attr", None))

    # parse calls its own class as `cls`, so it is not found by name
    public = _functions_where(calls_constructor)
    assert public and all(name.startswith("scalars.GaussianKind.") for name in public)
    trusted = _functions_where(
        lambda n: isinstance(n, ast.Attribute) and n.attr == "_of"
        and getattr(n.value, "id", None) == "GaussianRational"
    )
    built = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__")
    assert trusted == {f"scalars.GaussianRational.{m}" for m in built} | {
        f"scalars.GaussianKind.{m}" for m in ("zero", "one")
    } | {"linalg._det_gaussian"}
    reads = _functions_where(lambda n: getattr(n, "attr", None) in ("_x", "_y", "_d"))
    assert {name.split(".")[0] for name in reads} == {"scalars", "linalg"}


def test_no_module_imports_dataclasses():
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.add(path.stem)
    assert importers == set()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S skips `site`, whose .pth files may import either module themselves
    code = "import sys, symfrieze.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
