"""The value types agree with frozen dataclasses declared the same way.

Each of the package's fifteen immutable value types is compared with a
reference class built by `dataclasses.make_dataclass(..., frozen=True)`
from the same field list and defaults, whose `__post_init__` is the
checking and coercing code those types once ran as dataclasses.  From the
same sample arguments the two must agree on `==` and `!=` (within a class,
on a differing field and across the two classes), on the hash, on the
`AttributeError` of an assignment, on the repr byte for byte, and on the
exception type and message of every rejected construction.
"""

import copy
import pickle
from dataclasses import field, make_dataclass
from fractions import Fraction

import pytest

from conftest import WIDTH2_COEFFS
from symfrieze.cluster import (
    ExchangeMatrix, LaurentKind, LaurentPolynomial, Seed, _find_symmetrizer, c2_square_aw, initial_seed,
)
from symfrieze.diffeq import SymmetricDiffEq
from symfrieze.formats import FriezeDocument, PolygonDocument, SLDocument
from symfrieze.frieze import GridIndex, MinorWindow, TameResult, ZigZag
from symfrieze.legendrian import Polygon, SymplecticForm
from symfrieze.scalars import GAUSSIAN, RATIONAL
from symfrieze.search import DEDUP_MODES, Census, SearchConfig


def _set(obj, name, value):
    object.__setattr__(obj, name, value)


# the checks and coercions each type ran as a frozen dataclass, verbatim in effect

def _exchange_matrix(self):
    rows = tuple(tuple(v for v in row) for row in self.rows)
    m = len(rows)
    for row in rows:
        if len(row) != m:
            raise ValueError("matrix must be square")
        for v in row:
            if not isinstance(v, int):
                raise TypeError("entries must be integers")
    _set(self, "rows", rows)
    _find_symmetrizer(rows)


def _seed(self):
    cluster = tuple(self.cluster)
    _set(self, "cluster", cluster)
    if len(cluster) != self.matrix.m:
        raise ValueError("cluster size does not match the matrix")
    if len({u.nvars for u in cluster}) > 1:
        raise ValueError("cluster mixes variable counts")


def _diffeq(self):
    if len(self.a) != len(self.b):
        raise ValueError("coefficient lists must share one period")
    if len(self.a) < 5:
        raise ValueError("period must be at least 5")
    _set(self, "a", tuple(self.kind.coerce(v) for v in self.a))
    _set(self, "b", tuple(self.kind.coerce(v) for v in self.b))


def _grid_index(self):
    if (self.I - self.J) % 2 != 0:
        raise ValueError(f"mixed parity index ({self.I}, {self.J})")


def _zigzag(self):
    w = self.width
    if w < 1:
        raise ValueError("zig-zag needs width >= 1")
    if len(self.entries) != 2 * w:
        raise ValueError(f"expected {2 * w} cells, got {len(self.entries)}")
    for o in range(w):
        west, east = self.entries[2 * o][0], self.entries[2 * o + 1][0]
        if west.offset != o or east.offset != o:
            raise ValueError(f"row {o} cells carry wrong offsets")
        if east.x != west.x + 1:
            raise ValueError(f"row {o} cells are not adjacent")
        if o and abs(west.x - self.entries[2 * (o - 1)][0].x) > 1:
            raise ValueError(f"rows {o - 1} and {o} are not linked")


def _form(self):
    if self.variant not in ("standard", "dual"):
        raise ValueError(f"unknown form variant {self.variant!r}")
    _set(self, "a", self.kind.coerce(self.a))


def _polygon(self):
    if self.period < 5:
        raise ValueError(f"period must be at least 5, got {self.period}")
    if len(self.vertices) != self.period:
        raise ValueError(f"need {self.period} vertices, got {len(self.vertices)}")
    coerced = tuple(tuple(self.form.kind.coerce(x) for x in v) for v in self.vertices)
    if any(len(v) != 4 for v in coerced):
        raise ValueError("vertices must be 4-vectors")
    _set(self, "vertices", coerced)


def _search_config(self):
    if self.width < 1:
        raise ValueError("width must be positive")
    if self.bound < 1:
        raise ValueError("bound must be positive")
    if self.dedup not in DEDUP_MODES:
        raise ValueError(f"dedup must be one of {DEDUP_MODES}")


def _straight(values, width=2):
    return ZigZag.straight(values, width).entries


def _moved(entries, k, index):
    return entries[:k] + ((index, entries[k][1]),) + entries[k + 1:]


X = [LaurentPolynomial.variable(2, i) for i in range(2)]
ZZ = _straight((1, 2, 3, 4))
FORM = SymplecticForm(1)
VERTICES = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]]
WINDOW = MinorWindow(3, 0, -6, Fraction(-1), Fraction(0))

# class: (fields, defaults, post-init, sample args, args with one field changed, rejected args)
CASES = {
    LaurentKind: (("nvars",), {}, None, (2,), (3,), []),
    ExchangeMatrix: (("rows",), {}, _exchange_matrix, ([[0, 1], [-2, 0]],), ([[0, -1], [2, 0]],), [
        ([[0, 1]],),
        ([[0, 1.0], [-1, 0]],),
        ([[1, 0], [0, 0]],),
        ([[0, 1], [1, 0]],),
        ([[0, 2, -1], [-1, 0, 1], [1, -1, 0]],),
    ]),
    Seed: (("cluster", "matrix"), {}, _seed, (X, c2_square_aw(1)), (X[::-1], c2_square_aw(1)), [
        (X[:1], c2_square_aw(1)),
        ([X[0], LaurentPolynomial.variable(3, 0)], c2_square_aw(1)),
    ]),
    SymmetricDiffEq: (("a", "b", "kind"), {"kind": RATIONAL}, _diffeq, (*WIDTH2_COEFFS, RATIONAL),
                      (WIDTH2_COEFFS[0], WIDTH2_COEFFS[1][::-1], RATIONAL), [
        (WIDTH2_COEFFS[0], WIDTH2_COEFFS[1][:6], RATIONAL),
        ((1, 1, 1, 1), (1, 1, 1, 1), RATIONAL),
        ((0.5,) * 7, WIDTH2_COEFFS[1], GAUSSIAN),
        (("x",) * 7, WIDTH2_COEFFS[1], RATIONAL),
    ]),
    FriezeDocument: (("width", "period", "scalar", "entries", "provenance"), {"provenance": None}, None,
                     (1, 6, "rational", {(0, 0): "1"}, None), (1, 6, "rational", {(0, 0): "2"}, None), []),
    SLDocument: (("order", "width", "period", "scalar", "entries"), {}, None,
                 (3, 2, 7, "rational", {(0, 0): "1"}), (3, 2, 7, "gaussian", {(0, 0): "1"}), []),
    PolygonDocument: (("period", "base", "scalar", "form_variant", "form_a", "vertices"), {}, None,
                      (5, 0, "rational", "standard", "1", ((1, 0, 0, 0),) * 5),
                      (5, 1, "rational", "standard", "1", ((1, 0, 0, 0),) * 5), []),
    GridIndex: (("I", "J"), {}, _grid_index, (2, 4), (2, 6), [(1, 2), (0, -3)]),
    MinorWindow: (("size", "i", "j", "value", "expected"), {}, None,
                  (3, 0, -6, Fraction(-1), Fraction(0)), (3, 0, -6, Fraction(-1), Fraction(1)), []),
    TameResult: (("ok", "window"), {"window": None}, None, (False, WINDOW), (True, WINDOW), []),
    ZigZag: (("width", "entries"), {}, _zigzag, (2, ZZ), (2, _straight((1, 2, 3, 5))), [
        (0, ()),
        (2, ZZ[:3]),
        (2, _moved(ZZ, 2, GridIndex(0, 0))),
        (2, _moved(ZZ, 3, GridIndex(2, 4))),
        (2, _moved(_moved(ZZ, 2, GridIndex(2, 4)), 3, GridIndex(3, 5))),
    ]),
    SymplecticForm: (("a", "variant", "kind"), {"variant": "standard", "kind": RATIONAL}, _form,
                     ("1/2", "dual", RATIONAL), ("1/2", "standard", RATIONAL), [
        (1, "other", RATIONAL),
        (0.5, "standard", RATIONAL),
        ("x", "dual", GAUSSIAN),
    ]),
    Polygon: (("period", "base", "vertices", "form"), {}, _polygon, (5, 0, VERTICES, FORM),
              (5, 0, VERTICES, SymplecticForm(2)), [
        (4, 0, VERTICES[:4], FORM),
        (5, 0, VERTICES[:4], FORM),
        (5, 0, [v[:3] for v in VERTICES], FORM),
        (5, 0, [[0.5, 0, 0, 0]] * 5, FORM),
    ]),
    SearchConfig: (("width", "bound", "dedup"), {"dedup": "none"}, _search_config, (2, 5, "dihedral"),
                   (2, 5, "translation"), [(0, 5, "none"), (2, 0, "none"), (2, 5, "mirror")]),
    Census: (("count", "orbits", "largest_seed"), {}, None, (6, 1, 5), (6, 1, 4), []),
}


def _reference(cls):
    fields, defaults, post_init, *_ = CASES[cls]
    spec = [(f, object, field(default=defaults[f])) if f in defaults else (f, object) for f in fields]
    namespace = {"__post_init__": post_init} if post_init else {}
    return make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as e:  # the type and the message are compared
        return type(e), str(e)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_value_type_agrees_with_a_frozen_dataclass(cls):
    fields, defaults, _, args, other, rejected = CASES[cls]
    ref = _reference(cls)
    new, old = cls(*args), ref(*args)
    assert repr(new) == repr(old)
    assert (new == cls(*args), new != cls(*args)) == (old == ref(*args), old != ref(*args)) == (True, False)
    assert (new == cls(*other), new != cls(*other)) == (old == ref(*other), old != ref(*other)) == (False, True)
    assert (new == old, new != old, old == new) == (False, True, False)
    sub, ref_sub = type("Sub", (cls,), {"__slots__": ()})(*args), type("Sub", (ref,), {})(*args)
    assert (new == sub, new != sub) == (old == ref_sub, old != ref_sub) == (False, True)
    assert _outcome(hash, new) == _outcome(hash, old)
    if _outcome(hash, old)[0] == "ok":
        assert hash(cls(*args)) == hash(new)
    for name in fields + ("extra",):
        for obj in (new, old):
            with pytest.raises(AttributeError) as exc:
                setattr(obj, name, 0)
            assert str(exc.value) == f"cannot assign to field {name!r}"
        with pytest.raises(AttributeError):
            delattr(new, name)
    assert cls(**dict(zip(fields, args))) == new
    required = [v for f, v in zip(fields, args) if f not in defaults]
    assert repr(cls(*required)) == repr(ref(*required))
    # a scalar kind compares by identity, so a pickled copy matches by repr
    assert copy.copy(new) == new and repr(pickle.loads(pickle.dumps(new))) == repr(new)
    for bad in rejected:
        got, want = _outcome(cls, *bad), _outcome(ref, *bad)
        assert got[0] is want[0] and got[0] != "ok" and got[1] == want[1], bad


def test_private_slots_stay_out_of_equality_and_repr():
    m = ExchangeMatrix(((0, 1), (-2, 0)))
    assert m.symmetrizer == (2, 1) and "_symmetrizer" not in repr(m)
    form = SymplecticForm(3, "dual")
    assert len(form._entries) == 6 and "_entries" not in repr(form)
    assert initial_seed(1) == initial_seed(1) and hash(initial_seed(1)) == hash(initial_seed(1))
