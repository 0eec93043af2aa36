import random
from fractions import Fraction

import pytest

from conftest import WIDTH2_COEFFS, WIDTH3_COEFFS
from oracles import naive_frieze_from_polygon, naive_normalization_failure
from symfrieze import legendrian
from symfrieze.diffeq import SymmetricDiffEq, companion
from symfrieze.frieze import GridIndex, ZeroPivot, propagate_from_zigzag
from symfrieze.legendrian import (
    DegenerateGamma,
    EvenPeriod,
    NormalizationViolated,
    Polygon,
    SingularFrame,
    SymplecticForm,
    block_symplectic_check,
    coeffs_from_polygon,
    frieze_entries_by_4x4,
    frieze_from_polygon,
    normalize_lift,
    omega,
    polygon_from_frieze,
)
from symfrieze.linalg import Matrix, det
from symfrieze.scalars import GAUSSIAN, RATIONAL, GaussianRational

V_COLUMNS = [
    (1, 4, 3, 1, 0, 0, 0),
    (0, 1, 2, 1, 1, 0, 0),
    (0, 0, 1, 1, 3, 1, 0),
    (0, 0, 0, 1, 6, 4, 1),
]


@pytest.fixture(scope="module")
def poly2(width2_int):
    return polygon_from_frieze(width2_int, 4)


# ---------------------------------------------------------------------------
# the two pairing forms

def test_forms_are_skew_inverse_pairs():
    rng = random.Random(11)
    minus = Matrix.identity(RATIONAL, 4).scaled(Fraction(-1))
    for _ in range(20):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        std = SymplecticForm(a).matrix()
        alt = SymplecticForm(a, "dual").matrix()
        assert alt * std == minus
        assert det(std) == 1 and det(alt) == 1
        assert std.transpose() == -std and alt.transpose() == -alt


def test_pairing_of_vector_with_itself_vanishes():
    assert omega(SymplecticForm(4, "dual"), (1, 2, 3, 4), (1, 2, 3, 4)) == 0


# ---------------------------------------------------------------------------
# lifting a grid to a vertex sequence

def test_lift_window(poly2):
    assert poly2.form.a == 4 and poly2.form.variant == "dual"
    assert poly2.base == 3
    for c in range(7):
        for r in range(4):
            assert poly2.vertices[c][r] == V_COLUMNS[r][c]


def test_named_pairings(poly2):
    assert omega(poly2.form, poly2.vertex(4), poly2.vertex(7)) == 6
    assert omega(poly2.form, poly2.vertex(5), poly2.vertex(8)) == 3
    for t in range(poly2.base, poly2.base + 7):
        assert omega(poly2.form, poly2.vertex(t), poly2.vertex(t + 1)) == 0
        assert omega(poly2.form, poly2.vertex(t), poly2.vertex(t + 2)) == 1


def test_first_frame_is_standard(poly2):
    cols = [poly2.vertex(1 + c) for c in range(4)]
    frame = Matrix(RATIONAL, [[cols[c][r] for c in range(4)] for r in range(4)])
    assert frame == SymplecticForm(Fraction(4)).matrix()


def test_vertex_antiperiodic(poly2):
    v = poly2.vertex(4)
    assert poly2.vertex(11) == tuple(-x for x in v)


def test_round_trips(width2_int, width3_int, width1_signed):
    for g, i0 in ((width2_int, 4), (width2_int, 0), (width3_int, 2), (width1_signed, 1)):
        assert frieze_from_polygon(polygon_from_frieze(g, i0)) == g


def test_third_neighbor_pairing_recovers_a(width2_int, width3_int):
    for g, (a, _) in ((width2_int, WIDTH2_COEFFS), (width3_int, WIDTH3_COEFFS)):
        p = polygon_from_frieze(g, 0)
        n = len(a)
        for i in range(n):
            assert omega(p.form, p.vertex(i - 3), p.vertex(i)) == a[i % n]


def test_anchor_shift_is_transposed_companion(width2_int, poly2):
    eq = SymmetricDiffEq(*WIDTH2_COEFFS)
    p5 = polygon_from_frieze(width2_int, 5)
    T = companion(eq, 5).transpose()
    for j in range(3, 10):
        v = poly2.vertex(j)
        moved = tuple(sum(T[r, c] * v[c] for c in range(4)) for r in range(4))
        assert moved == p5.vertex(j)


# ---------------------------------------------------------------------------
# entries from vertex determinants

def test_entries_by_4x4(poly2, width2_int):
    for i in range(7):
        for j in range(i - 1, i + 3):
            blk, wht = frieze_entries_by_4x4(poly2, i, j)
            assert blk == width2_int.black(i, j)
            assert wht == width2_int.white(i - 1, j - 1)
    blk, _ = frieze_entries_by_4x4(poly2, 3, 2)
    assert blk == 1
    _, wht = frieze_entries_by_4x4(poly2, 2, 2)
    assert wht == width2_int.white(1, 1)


def test_block_intertwining(width2_int, width3_int, width1_signed):
    for g in (width2_int, width3_int, width1_signed):
        assert block_symplectic_check(g)
    assert not block_symplectic_check(
        width2_int.with_entry(GridIndex(2, 4), Fraction(99))
    )


def _zigzag_grid(rng, width, kind):
    """A random zig-zag grid of the kind, drawn again on a zero pivot."""
    while True:
        if kind is RATIONAL:
            values = [Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3)) for _ in range(2 * width)]
        else:
            values = [
                GaussianRational(Fraction(rng.randint(1, 3)), Fraction(rng.randint(-2, 2), 2))
                for _ in range(2 * width)
            ]
        try:
            return propagate_from_zigzag(values, width, kind)
        except ZeroPivot:
            continue


@pytest.fixture(scope="module")
def polygon_grids(width1_int, width2_int, width3_int):
    rng = random.Random(41)
    grids = [width1_int, width2_int, width3_int, propagate_from_zigzag([1] * 8, 4)]
    return grids + [_zigzag_grid(rng, w, kind) for w in range(1, 5) for kind in (RATIONAL, GAUSSIAN)]


def test_polygon_frieze_matches_pairing_oracle(polygon_grids):
    anchors = [(0, 9)] * 4 + [(2,), (-1,)] * 4
    for g, some in zip(polygon_grids, anchors):
        for anchor in some:
            p = polygon_from_frieze(g, anchor)
            got = frieze_from_polygon(p)
            assert got == g
            for (x, o), want in naive_frieze_from_polygon(p).items():
                assert got.cell(x, o) == want, (g, anchor, x, o)


def test_polygon_frieze_pairs_each_vertex_pair_once(monkeypatch, poly2):
    calls = []
    pair = legendrian.omega
    monkeypatch.setattr(legendrian, "omega", lambda *args: calls.append(args) or pair(*args))
    frieze_from_polygon(poly2)
    assert len(calls) == poly2.period * (poly2.width + 3)


def _planted(p, j, vertex):
    """Copy of p with the stored vertex at absolute index j replaced."""
    vertices = list(p.vertices)
    vertices[j - p.base] = vertex
    return Polygon(p.period, p.base, tuple(vertices), p.form)


def test_polygon_normalization_failures_match_oracle(polygon_grids):
    # the width-2 and width-3 fixtures and the random width-2 Gaussian grid
    for g in (polygon_grids[1], polygon_grids[2], polygon_grids[7]):
        p = polygon_from_frieze(g, 1)
        for j in (p.base, p.base + 4):
            # adding V_{j-2} keeps the pairings of V_{j-2} and V_{j-1} with V_j but adds
            # d[j+1, j+1] to omega(V_j, V_{j+1}); doubling V_j breaks only second neighbors
            v, back = p.vertex(j), p.vertex(j - 2)
            plants = (
                (1, _planted(p, j, tuple(x + y for x, y in zip(v, back)))),
                (2, _planted(p, j, tuple(x + x for x in v))),
            )
            for k, bad in plants:
                t, broken = naive_normalization_failure(bad)
                assert broken == k
                with pytest.raises(NormalizationViolated) as e:
                    frieze_from_polygon(bad)
                assert e.value.index == t
                with pytest.raises(NormalizationViolated) as e:
                    naive_frieze_from_polygon(bad)
                assert e.value.index == t


# ---------------------------------------------------------------------------
# float normalization

def close(u, v, tol=1e-9):
    return all(abs(complex(a) - complex(b)) < tol for a, b in zip(u, v))


def test_normalize_identity_scales(poly2):
    raw = [tuple(complex(x) for x in v) for v in poly2.vertices]
    pn = normalize_lift(raw, poly2.form, base=poly2.base)
    sign = 1 if abs(pn.vertices[0][0] - 1) < 1e-9 else -1
    for s in range(7):
        assert close(pn.vertices[s], tuple(sign * complex(x) for x in poly2.vertices[s]))


def test_normalize_recovers_scaled_input(poly2):
    raw = [tuple(complex(x) for x in v) for v in poly2.vertices]
    scaled = [
        tuple(x * (2 if s == 2 else 1) * (1 / 3 if s == 4 else 1) for x in v)
        for s, v in enumerate(raw)
    ]
    pn = normalize_lift(scaled, poly2.form, base=poly2.base)
    sign = 1 if abs(pn.vertices[0][0] - 1) < 1e-9 else -1
    for s in range(7):
        assert close(pn.vertices[s], tuple(sign * complex(x) for x in poly2.vertices[s]))


def test_normalize_rejections(poly2):
    with pytest.raises(EvenPeriod):
        normalize_lift([(1, 0, 0, 0)] * 8, poly2.form)
    with pytest.raises(DegenerateGamma):
        normalize_lift([(0, 0, 0, 0)] * 7, poly2.form)
    raw = [tuple(complex(x) for x in v) for v in poly2.vertices]
    raw[2] = (5 + 0j, 1 + 0j, 2 + 0j, 0j)
    with pytest.raises(NormalizationViolated):
        normalize_lift(raw, poly2.form, base=poly2.base)


def test_normalize_error_order(poly2):
    raw = [tuple(complex(x) for x in v) for v in poly2.vertices]
    # V_2 = 0 makes the second-neighbor pairing at t = 0 vanish
    raw[2] = (0j,) * 4
    with pytest.raises(DegenerateGamma) as e:
        normalize_lift(raw, poly2.form, base=poly2.base)
    assert e.value.index == 0
    # omega(V_3, V_4 + V_5) = omega(V_3, V_5) = 1 breaks orthogonality at t = 3
    raw[4] = tuple(x + y for x, y in zip(raw[4], raw[5]))
    with pytest.raises(NormalizationViolated) as e:
        normalize_lift(raw, poly2.form, base=poly2.base)
    assert e.value.index == 3
    with pytest.raises(EvenPeriod):
        normalize_lift(raw + [raw[0]], poly2.form, base=poly2.base)


def test_normalize_gaussian_polygon():
    g = _zigzag_grid(random.Random(43), 2, GAUSSIAN)
    p = polygon_from_frieze(g, 2)
    scales = [GaussianRational(Fraction(s + 1), Fraction(s % 3 - 1, 2)) for s in range(p.period)]
    raw = [tuple(c * x for x in v) for c, v in zip(scales, p.vertices)]
    pn = normalize_lift(raw, p.form, base=p.base)
    want = [tuple(complex(x.re, x.im) for x in v) for v in p.vertices]
    sign = 1 if abs(pn.vertices[0][0] - want[0][0]) < 1e-9 else -1
    for s in range(p.period):
        assert close(pn.vertices[s], tuple(sign * x for x in want[s]))
    assert pn.form.kind.name == "complex-float" and pn.base == p.base


# ---------------------------------------------------------------------------
# recurrence coefficients from the vertex sequence

def test_coeffs_from_polygon(poly2, width3_int):
    assert coeffs_from_polygon(poly2) == tuple(
        tuple(Fraction(v) for v in cyc) for cyc in WIDTH2_COEFFS
    )
    p3 = polygon_from_frieze(width3_int, 5)
    assert coeffs_from_polygon(p3) == tuple(
        tuple(Fraction(v) for v in cyc) for cyc in WIDTH3_COEFFS
    )


def test_transvection_invariance(poly2, width2_int):
    t = Fraction(3, 2)
    u = (Fraction(1), Fraction(2), Fraction(0), Fraction(1))

    def transvect(x):
        val = omega(poly2.form, u, x)
        return tuple(x[r] + t * val * u[r] for r in range(4))

    moved = Polygon(7, poly2.base, tuple(transvect(v) for v in poly2.vertices), poly2.form)
    assert omega(poly2.form, moved.vertex(4), moved.vertex(7)) == 6
    assert coeffs_from_polygon(moved) == coeffs_from_polygon(poly2)
    assert frieze_from_polygon(moved) == width2_int


def test_singular_frame(poly2):
    dup = list(poly2.vertices)
    dup[3] = dup[2]
    with pytest.raises(SingularFrame):
        coeffs_from_polygon(Polygon(7, poly2.base, tuple(dup), poly2.form))
