import random
from fractions import Fraction

import pytest

from conftest import WIDTH2_COEFFS, WIDTH3_COEFFS
from oracles import (
    mul4,
    naive_block_symplectic_check,
    naive_companion,
    naive_form_matrix,
    naive_frieze_from_polygon,
    naive_normalization_failure,
    naive_pairing,
    naive_pairings,
    transpose4,
)
from symfrieze import legendrian
from symfrieze.diffeq import SymmetricDiffEq
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
from symfrieze.scalars import COMPLEX, GAUSSIAN, RATIONAL, ComplexFloatKind, GaussianRational

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

def _units(kind):
    zero, one = kind.zero(), kind.one()
    return [[one if r == c else zero for c in range(4)] for r in range(4)]


def form_rows(form):
    """The form matrix as the package pairs it: row r, column c is _pair(e_r, e_c)."""
    units = _units(form.kind)
    return [[legendrian._pair(form, u, v) for v in units] for u in units]


def test_forms_are_skew_inverse_pairs():
    rng = random.Random(11)
    minus = [[-x for x in row] for row in _units(RATIONAL)]
    for _ in range(20):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        std = form_rows(SymplecticForm(a))
        alt = form_rows(SymplecticForm(a, "dual"))
        assert mul4(alt, std) == minus
        assert det(Matrix(RATIONAL, std)) == 1 and det(Matrix(RATIONAL, alt)) == 1
        for m in (std, alt):
            assert transpose4(m) == [[-x for x in row] for row in m]


def test_pairing_of_vector_with_itself_vanishes():
    assert omega(SymplecticForm(4, "dual"), (1, 2, 3, 4), (1, 2, 3, 4)) == 0


def _random_scalar(rng, kind):
    if kind is RATIONAL:
        return Fraction(rng.randint(-20, 20), rng.randint(1, 9))
    if kind is GAUSSIAN:
        return GaussianRational(Fraction(rng.randint(-20, 20), rng.randint(1, 9)), rng.randint(-5, 5))
    return complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))


@pytest.mark.parametrize("kind", [RATIONAL, GAUSSIAN, COMPLEX], ids=lambda k: k.name)
@pytest.mark.parametrize("variant", ["standard", "dual"])
def test_omega_matches_pairing_oracle(kind, variant):
    # the oracle sums the nonzero terms in the same row-major order, so
    # complex floats must agree to the last bit as well
    rng = random.Random(f"{kind.name}/{variant}")
    for _ in range(40):
        form = SymplecticForm(_random_scalar(rng, kind), variant, kind)
        u, v = ([_random_scalar(rng, kind) for _ in range(4)] for _ in range(2))
        assert omega(form, u, v) == naive_pairing(form, u, v)


@pytest.mark.parametrize("kind", [RATIONAL, GAUSSIAN, COMPLEX], ids=lambda k: k.name)
@pytest.mark.parametrize("variant", ["standard", "dual"])
def test_form_matrix_entries_pair_unit_vectors(kind, variant):
    # the block check reads entry (r, c) of a form matrix as _pair(e_r, e_c)
    for a in (kind.coerce(0), kind.coerce(-3), _random_scalar(random.Random(5), kind)):
        form = SymplecticForm(a, variant, kind)
        assert form_rows(form) == naive_form_matrix(form), a


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
    frame = [[cols[c][r] for c in range(4)] for r in range(4)]
    assert frame == form_rows(SymplecticForm(Fraction(4)))


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
    T = list(zip(*naive_companion(eq, 5)))
    for j in range(3, 10):
        v = poly2.vertex(j)
        moved = tuple(sum(T[r][c] * v[c] for c in range(4)) for r in range(4))
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
        elif kind is COMPLEX:
            values = [complex(rng.choice([1, 2, 3]), rng.choice([-1, 0, 1]) / 2) for _ in range(2 * width)]
        else:
            values = [
                GaussianRational(Fraction(rng.randint(1, 3)), Fraction(rng.randint(-2, 2), 2))
                for _ in range(2 * width)
            ]
        try:
            return propagate_from_zigzag(values, width, kind)
        except ZeroPivot:
            continue


@pytest.mark.parametrize("width", range(1, 5))
@pytest.mark.parametrize("kind", [RATIONAL, GAUSSIAN, COMPLEX], ids=lambda k: k.name)
def test_block_check_matches_dense_oracle(kind, width):
    # a grid whole and five times with one black entry moved by one (60
    # planted cases over the twelve runs); the exact kinds compare with ==,
    # complex floats within the kind's tolerance
    rng = random.Random(f"block/{kind.name}/{width}")
    g = _zigzag_grid(rng, width, kind)
    assert block_symplectic_check(g) and naive_block_symplectic_check(g)
    for _ in range(5):
        i, o = rng.randrange(g.period), rng.randrange(width)
        bad = g.with_entry(GridIndex(2 * i, 2 * (i + o)), g.black(i, i + o) + kind.one())
        assert not block_symplectic_check(bad) and not naive_block_symplectic_check(bad)


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
    # Gaussian and complex-float polygons pair in their kind, through _pair
    calls = []
    pair = legendrian._pair
    monkeypatch.setattr(legendrian, "_pair", lambda *args: calls.append(args) or pair(*args))
    for kind in (GAUSSIAN, COMPLEX):
        p = Polygon(poly2.period, poly2.base, poly2.vertices, SymplecticForm(poly2.form.a, "dual", kind))
        calls.clear()
        frieze_from_polygon(p)
        assert len(calls) == p.period * (p.width + 3)
    # a rational polygon pairs on ints, with each vertex scaled once
    calls.clear()
    scaled = []
    lcm_scaled = legendrian._lcm_scaled
    monkeypatch.setattr(legendrian, "_lcm_scaled", lambda values: scaled.append(tuple(values)) or lcm_scaled(values))
    frieze_from_polygon(poly2)
    assert calls == []
    assert [v for v in scaled if len(v) == 4] == list(poly2.vertices)
    assert [v for v in scaled if len(v) != 4] == [tuple(f for *_, f in poly2.form._entries)]


@pytest.mark.parametrize("variant", ["standard", "dual"])
def test_rational_pairings_match_oracle(variant):
    # vertex t carries its own prime denominator beside 2^31 - 1 (even t) or
    # 2^61 - 1 (odd t, so D_t is above 2^64), a zero and signed entries; the
    # form's a is integral or not, and the reach w + 3 crosses the wrap
    rng = random.Random(f"pairings/{variant}")
    primes = (11, 13, 17, 19, 23, 29, 31, 37, 41)
    for w in range(1, 5):
        vertices = []
        for t in range(w + 5):
            v = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), d)
                 for d in (primes[t], 2**61 - 1 if t % 2 else 2**31 - 1, rng.choice((1, 2, 2**31 - 1)))]
            v.insert(rng.randrange(4), Fraction(0))
            vertices.append(tuple(v))
        for a in (Fraction(-7, 3), Fraction(5, 2**61 - 1), Fraction(0)):
            form = SymplecticForm(a, variant)
            got = legendrian._pairings(form, vertices, w + 3)
            assert got == naive_pairings(form, vertices, w + 3), (w, a)
            assert all(type(x) is Fraction for row in got for x in row)


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
                assert (e.value.index, e.value.step) == (t, k)
                with pytest.raises(NormalizationViolated) as e:
                    naive_frieze_from_polygon(bad)
                assert (e.value.index, e.value.step) == (t, k)


def test_normalization_error_names_the_pair_and_its_value():
    # doubling V_2 keeps omega(V_0, V_1) = 0 but makes omega(V_0, V_2) = 2
    p = polygon_from_frieze(propagate_from_zigzag([1] * 4, 2), 1)
    bad = _planted(p, 2, tuple(x + x for x in p.vertex(2)))
    with pytest.raises(NormalizationViolated, match=r"^vertices 0 and 2 are not paired to one$") as e:
        frieze_from_polygon(bad)
    assert (e.value.index, e.value.step) == (0, 2)
    # V_3 + V_1 breaks the first-neighbour pairing of V_3 and V_4
    bad = _planted(p, 3, tuple(x + y for x, y in zip(p.vertex(3), p.vertex(1))))
    with pytest.raises(NormalizationViolated, match=r"^vertices 3 and 4 are not paired to zero$"):
        frieze_from_polygon(bad)


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


def test_normalize_keeps_the_tolerance(poly2):
    # a 1e-7 error is out of reach of the default 1e-9 but within 1e-5
    raw = [[complex(x) for x in v] for v in poly2.vertices]
    raw[1][0] += 1e-7
    pn = normalize_lift(raw, poly2.form, tolerance=1e-5, base=poly2.base)
    assert pn.form.kind.tolerance == 1e-5
    assert frieze_from_polygon(pn).width == 2
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
    with pytest.raises(SingularFrame) as e:
        coeffs_from_polygon(Polygon(7, poly2.base, tuple(dup), poly2.form))
    # vertices 5 and 6 (stored at 2 and 3) sit in the frame V_{-4}..V_{-1} of vertex 0
    assert e.value.index == 0


def test_near_singular_complex_frame_raises(poly2):
    # a near-duplicate vertex leaves a pivot within tolerance; shrunken
    # vertices give frame determinants near 1e-12 from pivots near 1e-3
    near = [[complex(x) for x in v] for v in poly2.vertices]
    near[3] = [x + 1e-12 for x in near[2]]
    small = [[1e-3 * complex(x) for x in v] for v in poly2.vertices]
    for vertices in (near, small):
        loose, tight = (
            Polygon(7, poly2.base, tuple(map(tuple, vertices)), SymplecticForm(4, "dual", ComplexFloatKind(t)))
            for t in (1e-9, 1e-15)
        )
        with pytest.raises(SingularFrame) as e:
            coeffs_from_polygon(loose)
        assert e.value.index == 0
        got = coeffs_from_polygon(tight)
    # the shrunken frames scale both Cramer determinants alike
    for cyc, want in zip(got, WIDTH2_COEFFS):
        assert close(cyc, want, 1e-6)


def test_coeffs_from_polygon_takes_three_determinants_per_vertex(monkeypatch, poly2, width3_int):
    for p in (poly2, polygon_from_frieze(width3_int, 5)):
        want = coeffs_from_polygon(p)
        calls = []
        monkeypatch.setattr(legendrian, "det", lambda m: calls.append(m) or det(m))
        assert coeffs_from_polygon(p) == want
        monkeypatch.undo()
        assert len(calls) == 3 * p.period
