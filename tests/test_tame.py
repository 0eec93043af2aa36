"""Tameness verdicts: the recurrence rebuild against the minor scans.

For exact kinds `check_tame` and `symplectic_of` accept a grid that
equals the one rebuilt from its own coefficients, and run the
adjacent-minor scan otherwise.  Every verdict and every reported window
must equal both the private scan's and the cofactor oracle's, and every
grid the rebuild can produce must pass the scan.
"""

import random
from fractions import Fraction

import pytest

from conftest import SIGNED_COEFFS, WIDTH1_COEFFS, WIDTH2_COEFFS, WIDTH3_COEFFS
from oracles import naive_centres, naive_tame
from symfrieze import frieze
from symfrieze.frieze import (
    FriezeGrid,
    GridIndex,
    ZeroPivot,
    _scan_tame,
    check_tame,
    extract_coeffs,
    propagate_from_coeffs,
    propagate_from_zigzag,
    sign_twist,
)
from symfrieze.scalars import COMPLEX, GAUSSIAN, RATIONAL, GaussianRational
from symfrieze.slfrieze import (
    MinorCondition,
    SLFrieze,
    black_of,
    symplectic_of,
)

KINDS = (RATIONAL, GAUSSIAN)


def _value(rng, kind):
    re = Fraction(rng.randint(1, 4), rng.randint(1, 2))
    if kind is RATIONAL:
        return re
    return GaussianRational(re, Fraction(rng.randint(-2, 2)))


def random_grid(rng, kind, width):
    """Grid grown from a random straight zig-zag of nonzero values."""
    while True:
        values = [_value(rng, kind) for _ in range(2 * width)]
        try:
            return propagate_from_zigzag(values, width, kind)
        except ZeroPivot:
            continue


def perturbed(grid, x, o):
    """Copy of `grid` with one added to the cell at column x of row o."""
    idx = GridIndex(x - o, x + o)
    return grid.with_entry(idx, grid.cell(x, o) + grid.kind.one())


def perturbed_sl(f, i, o):
    """Copy of `f` with one added to its stored cell (i, offset o)."""
    cells = dict(f.cells())
    cells[(i, o)] = cells[(i, o)] + f.kind.one()
    return SLFrieze(f.kind, f.order, f.width, cells)


@pytest.fixture(scope="module")
def grids():
    """One random grid per exact kind at each width 1-5."""
    rng = random.Random(41)
    return [random_grid(rng, kind, w) for kind in KINDS for w in range(1, 6)]


def assert_tame_agrees(g):
    got = check_tame(g)
    assert got == _scan_tame(g)
    assert got == naive_tame(g)
    return got


# ---------------------------------------------------------------------------
# check_tame

def test_tame_grids_agree(grids):
    for g in grids:
        assert assert_tame_agrees(g).ok


def test_perturbed_grids_agree(grids):
    rng = random.Random(43)
    failures = 0
    for g in grids:
        for _ in range(2):
            x, o = rng.randrange(2 * g.period), rng.randint(-1, g.width)
            failures += not assert_tame_agrees(perturbed(g, x, o)).ok
    assert failures >= len(grids) // 2


@pytest.mark.parametrize("kind,width", [(RATIONAL, 1), (RATIONAL, 2)])
def test_every_single_cell_perturbation_agrees(kind, width):
    # every row from the top boundary to the bottom one, every column of
    # the display period: a rebuild that compared less would accept one
    g = random_grid(random.Random(47 + width), kind, width)
    verdicts = set()
    for x in range(2 * g.period):
        for o in range(-1, width + 1):
            h = perturbed(g, x, o)
            verdicts.add(assert_tame_agrees(h).ok)
            assert not check_tame(h) or (x - o) % 2  # a black cell always breaks
    assert verdicts == {True, False}


def test_sign_twist_of_even_widths_agrees(grids):
    for g in grids:
        if g.width % 2 == 0:
            assert_tame_agrees(sign_twist(g))


def test_degenerate_grids_agree(width2_null, width7_zero, width1_gauss, width1_signed):
    assert not assert_tame_agrees(width2_null).ok
    assert assert_tame_agrees(width7_zero).ok
    assert not assert_tame_agrees(width1_gauss).ok
    assert assert_tame_agrees(width1_signed).ok
    zero = FriezeGrid.from_cells(
        RATIONAL, 3, {(x, o): 0 for x in range(16) for o in range(-1, 4)}
    )
    assert not assert_tame_agrees(zero).ok


# ---------------------------------------------------------------------------
# symplectic_of

def assert_symplectic_agrees(f):
    want = naive_centres(f)
    if want.ok:
        assert symplectic_of(f) == FriezeGrid.from_blacks(f.kind, f.width, f.get)
        return True
    with pytest.raises(MinorCondition) as exc:
        symplectic_of(f)
    w = want.window
    assert exc.value.window == w
    assert str(exc.value) == f"3x3 minor at ({w.i}, {w.j}) is {w.value}, expected {w.expected}"
    return False


def test_symplectic_of_agrees(grids, width2_null, width7_zero):
    rng = random.Random(59)
    verdicts = set()
    for g in grids:
        f = black_of(g)
        assert assert_symplectic_agrees(f)
        # the boundary rows are not part of the rebuilt grid's input
        for o in (-1, f.width, rng.randrange(f.width)):
            verdicts.add(assert_symplectic_agrees(perturbed_sl(f, rng.randrange(f.period), o)))
    assert verdicts == {False}
    assert not assert_symplectic_agrees(black_of(width2_null))
    f7 = black_of(width7_zero)
    assert assert_symplectic_agrees(f7)
    # zeros next to the boundary hide its rows from the white cells, so
    # the rebuilt grid is tame although f is not
    for o in (-1, 7):
        assert not assert_symplectic_agrees(perturbed_sl(f7, 5, o))


# ---------------------------------------------------------------------------
# soundness of the fast path: every grid the rebuild returns passes the scan

def test_propagated_grids_pass_the_scan(grids, width7_zero):
    cycles = [WIDTH1_COEFFS, WIDTH2_COEFFS, WIDTH3_COEFFS, SIGNED_COEFFS,
              ((0,) * 6, (-1,) * 6), ((1,) * 5, (1,) * 5)]
    cases = [(RATIONAL, a, b) for a, b in cycles]
    cases += [(g.kind, *extract_coeffs(g)) for g in grids + [width7_zero]]
    for kind, a, b in cases:
        assert _scan_tame(propagate_from_coeffs(a, b, kind)).ok


def test_complex_floats_take_the_scan(width2_int, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("complex floats must not be rebuilt")

    monkeypatch.setattr(frieze, "propagate_from_coeffs", refuse)
    g = FriezeGrid.from_cells(COMPLEX, 2, {xo: complex(v) for xo, v in width2_int.cells()})
    assert check_tame(g) == _scan_tame(g)
    assert check_tame(g).ok
    broken = perturbed(g, 0, 0)
    assert check_tame(broken) == _scan_tame(broken)
    assert not check_tame(broken).ok
    assert symplectic_of(black_of(g)) == g


# ---------------------------------------------------------------------------
# the identity the fast path relies on: coefficients <-> grid round trips

def test_coefficient_round_trips():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    nonzero = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)

    @hypothesis.given(
        st.sampled_from(KINDS),
        st.integers(min_value=1, max_value=4).flatmap(
            lambda w: st.lists(
                st.tuples(nonzero, st.integers(min_value=-2, max_value=2)),
                min_size=2 * w, max_size=2 * w,
            )
        ),
    )
    # no shrink phase, as in test_linalg: a failing example is reported as drawn
    @hypothesis.settings(
        max_examples=30, deadline=None, derandomize=True, database=None,
        phases=(hypothesis.Phase.explicit, hypothesis.Phase.generate),
    )
    def check(kind, seed):
        if kind is RATIONAL:
            values = [re for re, _ in seed]
        else:
            values = [GaussianRational(re, Fraction(im)) for re, im in seed]
        try:
            g = propagate_from_zigzag(values, len(seed) // 2, kind)
        except ZeroPivot:
            hypothesis.reject()
        a, b = extract_coeffs(g)
        rebuilt = propagate_from_coeffs(a, b, kind)
        assert rebuilt == g  # grid -> coefficients -> grid
        assert extract_coeffs(rebuilt) == (a, b)  # coefficients -> grid -> coefficients

    check()
