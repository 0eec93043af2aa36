import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import SIGNED_COEFFS, WIDTH2_COEFFS, WIDTH3_COEFFS
from oracles import naive_coeffs_of
from symfrieze.frieze import (
    FriezeError,
    MinorWindow,
    NotSuperperiodic,
    ZeroPivot,
    propagate_from_coeffs,
    propagate_from_zigzag,
)
from symfrieze.legendrian import frieze_from_polygon, polygon_from_frieze
from symfrieze.linalg import Matrix, det
from symfrieze.scalars import COMPLEX, GAUSSIAN, RATIONAL, GaussianRational
from symfrieze.slfrieze import (
    MinorCondition,
    SLFrieze,
    WidthParity,
    black_of,
    check_middle_symmetry,
    check_unimodular,
    coeffs_of,
    dual_equation_coeffs,
    entry_det_band,
    entry_det_complement,
    from_equation,
    gale_dual,
    projective_dual,
    sl_translate,
    symplectic_of,
)


def triple(a, b):
    # recurrence cycles carried by the black subarray of a tame grid
    n = len(a)
    return (a, b, tuple(a[(i - 1) % n] for i in range(n)))


@pytest.fixture(scope="module")
def blacks2(width2_int):
    return black_of(width2_int)


@pytest.fixture(scope="module")
def blacks3(width3_int):
    return black_of(width3_int)


# ---------------------------------------------------------------------------
# propagation from coefficient cycles

def test_from_equation_matches_black_subarray(blacks2, blacks3, width1_signed):
    assert from_equation(triple(*WIDTH2_COEFFS)) == blacks2
    assert from_equation(triple(*WIDTH3_COEFFS)) == blacks3
    assert from_equation(triple(*SIGNED_COEFFS)) == black_of(width1_signed)


def test_order_one_frieze():
    f = from_equation(((1, 2, 2, 1, 3),))
    assert f.order == 1 and f.width == 2 and f.period == 5
    assert check_unimodular(f).ok
    assert f.row_cycle(0) == tuple(Fraction(v) for v in (1, 2, 2, 1, 3))


def test_shape_keyword_mismatches():
    with pytest.raises(ValueError):
        from_equation(((1, 2, 2, 1, 3),), order=2)
    with pytest.raises(ValueError):
        from_equation(((1, 2, 2, 1, 3),), width=1)


def test_nonclosing_cycle():
    with pytest.raises(NotSuperperiodic):
        from_equation(((1, 1, 1, 1, 1),))


def test_cell_given_twice_is_named():
    cells = {(i, o): 1 for i in range(3) for o in (-1, 0)}
    cells[(4, 0)] = 2  # (1, offset 0) one period on
    with pytest.raises(ValueError, match=r"^cell \(1, offset 0\) given twice$") as e:
        SLFrieze(RATIONAL, 1, 0, cells)
    assert e.type is ValueError


def test_equality_needs_kind_order_and_width(blacks2, blacks3):
    assert blacks2.__eq__("frieze") is NotImplemented
    assert blacks2 != SLFrieze(GAUSSIAN, 3, 2, dict(blacks2.cells()))
    assert blacks2 != from_equation(((1, 2, 2, 1, 3),))  # order 1, width 2
    assert blacks2 != blacks3  # order 3, width 3
    assert blacks2 == SLFrieze(RATIONAL, 3, 2, dict(blacks2.cells()))


def test_get_reduction(blacks2):
    v = blacks2.get(0, 1)
    assert blacks2.get(0, 1 + 7) == -v  # odd order flips per period step
    assert blacks2.get(0, 1 + 14) == v
    assert blacks2.get(0, -2) == 0  # guard band


def test_unimodular_fixtures(blacks2, blacks3, width1_signed, width7_zero):
    assert check_unimodular(blacks2).ok
    assert check_unimodular(blacks3).ok
    assert check_unimodular(black_of(width1_signed)).ok
    f7 = black_of(width7_zero)
    assert f7.row_cycle(3) == (Fraction(-1),) * 12
    assert check_unimodular(f7).ok


def test_minor_scan_reads_each_cell_once(blacks3, monkeypatch):
    reads = Counter()
    get = SLFrieze.get

    def counting_get(self, i, j):
        reads[i, j] += 1
        return get(self, i, j)

    monkeypatch.setattr(SLFrieze, "get", counting_get)
    assert check_unimodular(blacks3).ok
    assert reads and max(reads.values()) == 1


# ---------------------------------------------------------------------------
# coefficient recovery

def test_coeffs_of_round_trip(blacks2, blacks3):
    c2 = coeffs_of(blacks2)
    assert c2 == triple(*WIDTH2_COEFFS)
    assert all(c2[2][(i - 1) % 7] == blacks2.get(i + 1, i + 2) for i in range(7))
    assert from_equation(coeffs_of(blacks3)) == blacks3


def test_coeffs_of_random_round_trips():
    rng = random.Random(7)
    for _ in range(12):
        w = rng.randint(1, 3)
        f = black_of(propagate_from_zigzag([rng.randint(1, 4) for _ in range(2 * w)], w))
        assert from_equation(coeffs_of(f)) == f


def _arbitrary_friezes(kind, draw):
    """One SLFrieze of arbitrary cells, boundary rows included, per order
    1-5 and width 0-5."""
    return [
        SLFrieze(kind, k, w, {(i, o): draw() for i in range(k + w + 2) for o in range(-1, w + 1)})
        for k in range(1, 6)
        for w in range(6)
    ]


def _coeff_cases():
    rng = random.Random(41)
    return [
        (RATIONAL, _arbitrary_friezes(RATIONAL, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5)))),
        (GAUSSIAN, _arbitrary_friezes(GAUSSIAN, lambda: GaussianRational(
            Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4), 3)))),
        (COMPLEX, _arbitrary_friezes(COMPLEX, lambda: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))),
    ]


@pytest.mark.parametrize("kind,friezes", _coeff_cases(), ids=["rational", "gaussian", "complex"])
def test_coeffs_of_matches_cofactor_oracle(kind, friezes):
    for f in friezes:
        got, want = coeffs_of(f), naive_coeffs_of(f)
        if kind.exact:
            assert got == want, f
        else:
            assert [len(row) for row in got] == [len(row) for row in want], f
            for g_row, w_row in zip(got, want):
                assert all(abs(g - v) <= 1e-9 for g, v in zip(g_row, w_row)), f


# ---------------------------------------------------------------------------
# determinant entry formulas

def test_entry_formulas_width3(blacks3):
    c3 = coeffs_of(blacks3)
    for i in range(8):
        for t in range(-1, 4):
            want = blacks3.get(i, i + t)
            if t >= 0:
                assert entry_det_band(c3, i, i + t) == want
            assert entry_det_complement(c3, i, i + t) == want
    assert entry_det_band(c3, 2, 2) == c3[0][2]
    assert entry_det_complement(c3, 2, 4) == c3[2][0]
    assert entry_det_complement(c3, 2, 5) == 1


def test_entry_formulas_width2(blacks2):
    c2 = coeffs_of(blacks2)
    for i in range(7):
        for t in range(3):
            want = blacks2.get(i, i + t)
            assert entry_det_band(c2, i, i + t) == want
            assert entry_det_complement(c2, i, i + t) == want


# ---------------------------------------------------------------------------
# projective dual

def test_dual_is_mirrored_transpose(blacks2):
    d2 = projective_dual(blacks2)
    for (i, o), _ in blacks2.cells():
        j = i + o
        assert blacks2.get(i, j) == d2.get(j - 2 - 3, i - 3 - 1)
    assert check_unimodular(d2).ok
    assert projective_dual(d2) == sl_translate(blacks2, -2)
    assert coeffs_of(d2) == dual_equation_coeffs(coeffs_of(blacks2))


def test_dual_width3(blacks3):
    d3 = projective_dual(blacks3)
    for (i, o), _ in blacks3.cells():
        j = i + o
        assert blacks3.get(i, j) == d3.get(j - 3 - 3, i - 3 - 1)
    assert projective_dual(d3) == sl_translate(blacks3, -2)


def test_self_dual_degenerate_cases():
    f0 = black_of(propagate_from_coeffs((1,) * 5, (1,) * 5))
    assert projective_dual(f0) == f0
    f1 = from_equation(((1, 2, 2, 1, 3),))
    assert projective_dual(f1) == f1


# ---------------------------------------------------------------------------
# symplectic reconstruction

def test_symplectic_round_trips(width2_int, width3_int, width1_signed, width7_zero):
    for g in (width2_int, width3_int, width1_signed, width7_zero):
        assert symplectic_of(black_of(g)) == g


def test_symplectic_rejects_broken_minor(blacks2):
    cells = {(i, o): blacks2.get(i, i + o) for i in range(7) for o in range(-1, 3)}
    cells[(2, 1)] = cells[(2, 1)] + 1
    with pytest.raises(MinorCondition) as exc:
        symplectic_of(SLFrieze(RATIONAL, 3, 2, cells))
    assert exc.value.window == MinorWindow(3, 0, 1, Fraction(7), Fraction(2))


# ---------------------------------------------------------------------------
# gale dual

def test_symplectic_needs_order_three():
    f = SLFrieze(RATIONAL, 2, 0, {(i, o): 1 for i in range(4) for o in (-1, 0)})
    with pytest.raises(FriezeError, match=r"^symplectic conversion needs order 3, got 2$") as e:
        symplectic_of(f)
    assert e.type is FriezeError


def test_gale_needs_positive_width():
    f = SLFrieze(RATIONAL, 3, 0, {(i, o): 1 for i in range(5) for o in (-1, 0)})
    with pytest.raises(ValueError, match=r"^gale dual needs width at least 1$") as e:
        gale_dual(f)
    assert e.type is ValueError


def test_gale_shape_and_rows(blacks2):
    c2 = coeffs_of(blacks2)
    ga = gale_dual(blacks2)
    assert ga.order == 2 and ga.width == 3 and ga.period == 7
    assert check_unimodular(ga).ok
    assert ga.row_cycle(0) == c2[0]
    assert ga.row_cycle(1) == tuple(c2[1][(i + 1) % 7] for i in range(7))
    assert check_middle_symmetry(ga)


def test_gale_width3(blacks3):
    ga3 = gale_dual(blacks3)
    assert ga3.order == 3 and ga3.width == 3
    assert check_unimodular(ga3).ok
    assert check_middle_symmetry(ga3)


def test_middle_symmetry_guards(blacks2, blacks3):
    with pytest.raises(WidthParity):
        check_middle_symmetry(blacks2)
    assert not check_middle_symmetry(blacks3)


def test_gale_twice_is_a_translate(blacks2):
    ga = gale_dual(blacks2)
    hits = [t for t in range(7) if gale_dual(ga) == sl_translate(blacks2, t)]
    assert len(hits) == 1


def test_dual_pair_annihilates(blacks2, width2_int):
    # the two parallelogram slices pair to zero under an alternating weight
    ga = gale_dual(blacks2)
    W = [[ga.get(6 + r, 5 + c) for c in range(7)] for r in range(3)]
    V = [[width2_int.black(4 + r, 3 + c) for c in range(7)] for r in range(4)]
    for r in range(3):
        for s in range(4):
            assert sum((-1) ** c * W[r][c] * V[s][c] for c in range(7)) == 0


def test_annihilating_shift_exists():
    rng = random.Random(19)
    for w in (1, 2, 3):
        f = black_of(propagate_from_zigzag([rng.randint(1, 4) for _ in range(2 * w)], w))
        gd = gale_dual(f)
        n = f.period
        shifts = [
            s
            for s in range(n)
            if all(
                sum((-1) ** c * gd.get(p, c + s) * f.get(i, c) for c in range(n)) == 0
                for p in range(n)
                for i in range(n)
            )
        ]
        assert shifts


# ---------------------------------------------------------------------------
# glide / minor-center equivalence on order-3 arrays

def _sl_glide(f):
    return all(
        f.kind.eq(v, f.get(i + o + 3, i + f.width + 2)) for (i, o), v in f.cells()
    )


def _minors_are_centers(f):
    for i in range(f.period):
        for t in range(f.period):
            j = i + t - 5
            m = Matrix(
                f.kind, [[f.get(i + r, j + c) for c in range(3)] for r in range(3)]
            )
            if not f.kind.eq(det(m), f.get(i + 1, j + 1)):
                return False
    return True


def _coeff_match(f):
    c = coeffs_of(f)
    n = f.period
    return all(c[2][i] == c[0][(i - 1) % n] for i in range(n))


def test_three_symplectic_criteria_agree():
    rng = random.Random(11)
    for _ in range(6):
        w = rng.randint(1, 3)
        f = black_of(propagate_from_zigzag([rng.randint(1, 4) for _ in range(2 * w)], w))
        assert (_minors_are_centers(f), _sl_glide(f), _coeff_match(f)) == (True,) * 3
    for _ in range(6):
        f = gale_dual(black_of(propagate_from_zigzag([rng.randint(1, 4) for _ in range(6)], 3)))
        verdicts = (_minors_are_centers(f), _sl_glide(f), _coeff_match(f))
        assert all(verdicts) or not any(verdicts)


def test_grid_round_trips():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    nonzero = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)

    @hypothesis.given(
        st.sampled_from([RATIONAL, GAUSSIAN]),
        st.integers(min_value=1, max_value=3).flatmap(
            lambda w: st.lists(
                st.tuples(nonzero, st.integers(min_value=-2, max_value=2)),
                min_size=2 * w, max_size=2 * w,
            )
        ),
        st.integers(min_value=-8, max_value=8),
    )
    # no shrink phase, as in test_tame: a failing example is reported as drawn
    @hypothesis.settings(
        max_examples=30, deadline=None, derandomize=True, database=None,
        phases=(hypothesis.Phase.explicit, hypothesis.Phase.generate),
    )
    def check(kind, seed, anchor):
        if kind is RATIONAL:
            values = [re for re, _ in seed]
        else:
            values = [GaussianRational(re, Fraction(im)) for re, im in seed]
        try:
            g = propagate_from_zigzag(values, len(seed) // 2, kind)
        except ZeroPivot:
            hypothesis.reject()
        assert frieze_from_polygon(polygon_from_frieze(g, anchor)) == g
        f = black_of(g)
        assert symplectic_of(f) == g
        twice = gale_dual(gale_dual(f))
        assert any(twice == sl_translate(f, t) for t in range(f.period))

    check()
