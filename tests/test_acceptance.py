"""End-to-end checks, one test per release criterion.

Each test prints its verdict in the terminal summary (see conftest).
Exact-arithmetic comparisons use zero tolerance; float comparisons 1e-9.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import SIGNED_COEFFS, WIDTH1_COEFFS, WIDTH2_COEFFS, WIDTH3_COEFFS
from symfrieze.cluster import (
    LaurentPolynomial,
    belt_step,
    c2_square_aw,
    formal_frieze,
    initial_seed,
    mutate_matrix,
    mutate_seed,
)
from symfrieze.diffeq import (
    SymmetricDiffEq,
    band_determinant,
    is_superperiodic,
    monodromy,
    solve,
    variety_residuals,
    white_band_determinant,
)
from symfrieze.frieze import (
    FriezeGrid,
    check_glide,
    check_local_rules,
    check_periodicity,
    check_tame,
    extend_through_zero,
    extract_coeffs,
    find_nonzero_double_zigzag,
    propagate_from_coeffs,
    sign_twist,
    translate,
)
from symfrieze.legendrian import (
    block_symplectic_check,
    frieze_entries_by_4x4,
    frieze_from_polygon,
    normalize_lift,
    omega,
    polygon_from_frieze,
)
from symfrieze.linalg import Matrix, det, minor
from symfrieze.scalars import RATIONAL
from symfrieze.search import SearchConfig, dihedral_orbits, enumerate_friezes
from symfrieze.slfrieze import (
    black_of,
    check_middle_symmetry,
    check_unimodular,
    gale_dual,
    projective_dual,
)

GOLDEN_ROWS = {
    WIDTH1_COEFFS: ({0: (1, 2, 3, 5, 2, 1) * 2}, 6),
    WIDTH2_COEFFS: (
        {
            0: (6, 14, 3, 1, 1, 2, 3, 6, 4, 5, 2, 1, 1, 3),
            1: (6, 4, 5, 2, 1, 1, 3, 6, 14, 3, 1, 1, 2, 3),
        },
        14,
    ),
    WIDTH3_COEFFS: (
        {
            0: (2, 5, 4, 6, 4, 6, 3, 2, 1, 1, 4, 30, 10, 4, 1, 1),
            1: (1, 3, 14, 10, 20, 6, 3, 1) * 2,
            2: (1, 1, 4, 30, 10, 4, 1, 1, 2, 5, 4, 6, 4, 6, 3, 2),
        },
        16,
    ),
    SIGNED_COEFFS: ({0: (0, -1, 1, -2, -1, -1) * 2}, 6),
}

TWIN_ROWS = {
    0: (-1, 1, -2, 5, -4, 6, -4, 6, -3, 2, -1, 1, -4, 30, -10, 4),
    1: (3, 1, 1, 3, 14, 10, 20, 6, 3, 1, 1, 3, 14, 10, 20, 6),
    2: (-3, 2, -1, 1, -4, 30, -10, 4, -1, 1, -2, 5, -4, 6, -4, 6),
}

W_LIT = (
    (1, 1, 3, 6, 1, 0, 0),
    (0, 1, 6, 14, 3, 1, 0),
    (0, 0, 1, 3, 1, 1, 1),
)
V_LIT = (
    (1, 4, 3, 1, 0, 0, 0),
    (0, 1, 2, 1, 1, 0, 0),
    (0, 0, 1, 1, 3, 1, 0),
    (0, 0, 0, 1, 6, 4, 1),
)


@pytest.fixture(scope="module")
def width2_census():
    return enumerate_friezes(SearchConfig(2, 30))


def test_criterion_01_exact_reconstruction():
    started = time.perf_counter()
    for coeffs, (rows, min_period) in GOLDEN_ROWS.items():
        g = propagate_from_coeffs(*coeffs)
        for o in range(-1, g.width + 1):
            want = rows.get(o, (1,) * (2 * g.period))
            assert g.row_cycle(o) == tuple(Fraction(v) for v in want)
        assert check_local_rules(g) == ()
        assert check_tame(g).ok
        assert check_glide(g)
        assert check_periodicity(g) == min_period
    assert time.perf_counter() - started < 1.0


def test_criterion_02_superperiodicity_detection():
    a, b = WIDTH2_COEFFS
    eq = SymmetricDiffEq(a, b)
    minus = Matrix.identity(RATIONAL, 4).scaled(-1)
    assert is_superperiodic(eq)
    assert monodromy(eq) == minus
    assert all(v == 0 for v in variety_residuals(a, b))
    for pos in range(14):
        pa, pb = list(a), list(b)
        (pa if pos < 7 else pb)[pos % 7] += 1
        bumped = SymmetricDiffEq(tuple(pa), tuple(pb))
        assert not is_superperiodic(bumped)
        assert monodromy(bumped) != minus
        assert any(v != 0 for v in variety_residuals(tuple(pa), tuple(pb)))
    for k in range(4):
        init = tuple(Fraction(t == k) for t in range(4))
        assert solve(eq, init, 1, 7)[3:7] == tuple(-v for v in init)


def test_criterion_03_determinant_entry_formulas(width2_int, width3_int):
    checked = 0
    for g, coeffs in ((width2_int, WIDTH2_COEFFS), (width3_int, WIDTH3_COEFFS)):
        eq = SymmetricDiffEq(*coeffs)
        for i in range(g.period):
            for off in range(g.width):
                assert band_determinant(eq, i, i + off) == g.black(i, i + off)
                assert white_band_determinant(eq, i, i + off) == g.white(
                    i - 1, i - 1 + off
                )
                checked += 2
    assert checked >= 60


def test_criterion_04_dual_arrays(width2_int):
    f2 = black_of(width2_int)
    assert check_unimodular(f2).ok
    d2 = projective_dual(f2)
    for (i, o), _ in f2.cells():
        j = i + o
        assert f2.get(i, j) == d2.get(j - 2 - 3, i - 3 - 1)
    ga = gale_dual(f2)
    assert ga.order == 2 and ga.width == 3
    assert check_unimodular(ga).ok
    assert check_middle_symmetry(ga)
    for r in range(3):
        for c in range(7):
            assert ga.get(6 + r, 5 + c) == W_LIT[r][c]
    for r in range(4):
        for c in range(7):
            assert width2_int.black(4 + r, 3 + c) == V_LIT[r][c]
    for r in range(3):
        for s in range(4):
            assert sum((-1) ** c * W_LIT[r][c] * V_LIT[s][c] for c in range(7)) == 0


def test_criterion_05_singular_grids(
    width1_const, width7_zero, width2_null, width1_gauss
):
    assert check_tame(width1_const).ok
    assert check_tame(width7_zero).ok
    broken = check_tame(width2_null)
    assert not broken.ok and broken.window.size == 3
    gauss = check_tame(width1_gauss)
    assert not gauss.ok and gauss.window.size == 4
    assert gauss.window.value == width1_gauss.kind.from_int(-1)
    assert extend_through_zero((-1, 1, -2, -1, -1, 0, -1), 1) == [Fraction(1)]


def test_criterion_06_cluster_structure():
    started = time.perf_counter()
    x1 = LaurentPolynomial.variable(2, 0)
    x2 = LaurentPolynomial.variable(2, 1)
    one = LaurentPolynomial.constant(2, 1)
    cycle = [
        x1,
        x2,
        (one + x2**2) / x1,
        (one + x1 + x2**2) / (x1 * x2),
        ((one + x1) ** 2 + x2**2) / (x1 * x2**2),
        (one + x1) / x2,
    ]
    F1 = formal_frieze(1)
    assert [F1.get(x, x) for x in range(1, 13)] == cycle * 2
    assert all(v.is_positive() for v in cycle)

    M = c2_square_aw(2)
    for k in (0, 2, 0):
        M = mutate_matrix(M, k)
    assert M.rows == ((0, 1, -1, 0), (-1, 0, 0, 0), (2, 0, 0, -1), (0, 0, 1, 0))

    for w in (1, 2):
        sd = initial_seed(w)
        for _ in range(2 * (w + 5)):
            sd = belt_step(belt_step(sd, 1), -1)
        assert sd == initial_seed(w)

    for w in (1, 2, 3):
        F = formal_frieze(w)
        sd = initial_seed(w)
        for t in range(2 * (w + 5)):
            cols = {
                F.get(2 * t + 1 + c - o, 2 * t + 1 + c + o)
                for c in (0, 1)
                for o in range(w)
            }
            assert set(sd.cluster) == cols
            sd = belt_step(belt_step(sd, 1), -1)
    assert time.perf_counter() - started < 60.0


def test_criterion_07_polygon_correspondence(width2_int, width3_int):
    p = polygon_from_frieze(width2_int, 4)
    assert frieze_from_polygon(p) == width2_int
    for i in range(7):
        for j in range(i - 1, i + 3):
            blk, wht = frieze_entries_by_4x4(p, i, j)
            assert blk == width2_int.black(i, j)
            assert wht == width2_int.white(i - 1, j - 1)
    assert omega(p.form, p.vertex(4), p.vertex(7)) == 6
    for t in range(p.base, p.base + 7):
        assert omega(p.form, p.vertex(t), p.vertex(t + 1)) == 0
        assert omega(p.form, p.vertex(t), p.vertex(t + 2)) == 1
    assert block_symplectic_check(width2_int)
    assert block_symplectic_check(width3_int)

    raw = [tuple(complex(x) for x in v) for v in p.vertices]
    scaled = [
        tuple(x * (2 if s == 2 else 1) / (3 if s == 4 else 1) for x in v)
        for s, v in enumerate(raw)
    ]
    recovered = normalize_lift(scaled, p.form, base=p.base)
    sign = 1 if abs(recovered.vertices[0][0] - 1) < 1e-9 else -1
    for s in range(7):
        for r in range(4):
            assert abs(recovered.vertices[s][r] - sign * complex(p.vertices[s][r])) < 1e-9


def test_criterion_08_sign_twist(width3_int, width2_int):
    twin = FriezeGrid.from_cells(
        RATIONAL,
        3,
        {(x, o): TWIN_ROWS[o][x] for o in TWIN_ROWS for x in range(16)},
    )
    assert sign_twist(width3_int) == translate(twin, 7)
    for g in (width3_int, width2_int):
        assert sign_twist(sign_twist(g)) == g
    # tameness survives the twist exactly when the period is even
    assert check_tame(sign_twist(width3_int)).ok
    signed = propagate_from_coeffs(*SIGNED_COEFFS)
    assert check_tame(sign_twist(signed)).ok


def test_criterion_09_positive_census(width2_census):
    started = time.perf_counter()
    six = enumerate_friezes(SearchConfig(1, 5))
    elapsed = time.perf_counter() - started
    assert len(six) == 6
    orbits = dihedral_orbits(six)
    assert len(orbits) == 1 and len(orbits[0]) == 6
    for g in six:
        for x in range(12):
            v = g.get(x, x)
            assert v > 0 and v.denominator == 1
    assert elapsed < 1.0

    count, orbit_count = len(width2_census), len(dihedral_orbits(width2_census))
    assert (count, orbit_count) == (112, 9)


def test_criterion_10_property_suites(width2_census, width1_const, width7_zero):
    rng = random.Random(101)

    # determinant condensation identity on random square matrices
    for _ in range(100):
        m = rng.randint(3, 5)
        M = Matrix(
            RATIONAL,
            [[Fraction(rng.randint(-4, 4)) for _ in range(m)] for _ in range(m)],
        )
        inner = list(range(1, m - 1))
        head = list(range(m - 1))
        tail = list(range(1, m))
        lhs = det(M) * minor(M, inner, inner)
        rhs = minor(M, tail, tail) * minor(M, head, head) - minor(
            M, tail, head
        ) * minor(M, head, tail)
        assert lhs == rhs

    # random mutation words never leave the Laurent ring
    for _ in range(1000):
        w = rng.randint(1, 3)
        sd = initial_seed(w)
        for _ in range(rng.randint(1, 8)):
            sd = mutate_seed(sd, rng.randrange(2 * w))

    # every enumerated grid survives a coefficient round trip
    sample = (enumerate_friezes(SearchConfig(1, 5)) + list(width2_census))[:50]
    assert len(sample) == 50
    for g in sample:
        a, b = extract_coeffs(g)
        assert propagate_from_coeffs(a, b) == g

    # genuinely singular grids expose no all-nonzero double zig-zag
    assert find_nonzero_double_zigzag(width1_const) is None
    assert find_nonzero_double_zigzag(width7_zero) is None
