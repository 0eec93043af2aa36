import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import SIGNED_COEFFS, WIDTH1_COEFFS, WIDTH2_COEFFS, hostile_fractions
from oracles import (
    mul4,
    naive_band_determinant,
    naive_companion,
    naive_entry_det_complement,
    naive_from_equation,
    naive_monodromy,
    naive_superperiodic,
    naive_unit_monodromy,
)
from symfrieze.cluster import ZeroSubstitution, evaluate_frieze
from symfrieze.diffeq import (
    SymmetricDiffEq,
    _table,
    band_determinant,
    entry_det_band,
    entry_det_complement,
    is_superperiodic,
    monodromy,
    solve,
    variety_residuals,
    white_band_determinant,
)
from symfrieze.frieze import (
    NotSuperperiodic,
    dihedral_images,
    extract_coeffs,
    from_equation,
    propagate_from_coeffs,
    propagate_from_zigzag,
    translate,
)
from symfrieze.linalg import Matrix, det
from symfrieze.scalars import COMPLEX, GAUSSIAN, RATIONAL, GaussianRational
from symfrieze.slfrieze import black_of, coeffs_of, gale_dual


@pytest.fixture(scope="module")
def eq2():
    return SymmetricDiffEq(*WIDTH2_COEFFS)


def test_construction_checks():
    with pytest.raises(ValueError):
        SymmetricDiffEq((1, 2, 3), (1, 2, 3))
    with pytest.raises(ValueError):
        SymmetricDiffEq((1,) * 6, (1,) * 5)


def test_periodic_access(eq2):
    assert eq2.n == 7
    assert eq2.a_at(8) == eq2.a[1]
    assert eq2.b_at(-1) == eq2.b[6]


def test_solve_matches_grid_row(eq2, width2_int):
    got = solve(eq2, (0, 0, 0, 1), 1, 9)
    assert got == tuple(width2_int.black(1, j) for j in range(1, 10))


def test_solve_requires_four_values(eq2):
    with pytest.raises(ValueError):
        solve(eq2, (1, 2, 3), 0, 5)


def test_window_returns_negated(eq2):
    # any initial window reappears negated four steps before the period ends
    for k in range(4):
        init = tuple(Fraction(t == k) for t in range(4))
        out = solve(eq2, init, 1, 7)
        assert out[3:7] == tuple(-v for v in init)


def test_superperiodic_fixtures(eq2):
    assert is_superperiodic(eq2)
    assert is_superperiodic(SymmetricDiffEq(*SIGNED_COEFFS))
    assert not is_superperiodic(SymmetricDiffEq((1,) * 6, (1,) * 6))


def test_companion_pushes_window(eq2):
    rng = [Fraction(3), Fraction(-1), Fraction(2), Fraction(5)]
    nxt = solve(eq2, rng, 4, 1)[0]
    e = naive_companion(eq2, 4)
    pushed = [sum(rng[k] * e[k][c] for k in range(4)) for c in range(4)]
    assert pushed == [rng[1], rng[2], rng[3], nxt]


def test_companion_det_one(eq2):
    for j in range(7):
        assert det(Matrix(RATIONAL, naive_companion(eq2, j))) == 1


def test_monodromy_is_minus_identity(eq2):
    minus = -Matrix.identity(RATIONAL, 4)
    assert monodromy(eq2) == minus
    assert monodromy(SymmetricDiffEq(*SIGNED_COEFFS)) == minus


def test_monodromy_moves_blocks(eq2, width2_int):
    def block(j):
        return [[width2_int.black(r, j - 3 + c) for c in range(4)] for r in range(4)]

    assert mul4(block(0), [list(row) for row in monodromy(eq2).rows]) == block(7)


def test_band_determinants_reproduce_entries(eq2, width2_int):
    for i in range(7):
        for off in range(2):
            assert band_determinant(eq2, i, i + off) == width2_int.black(i, i + off)
            assert white_band_determinant(eq2, i, i + off) == width2_int.white(
                i - 1, i - 1 + off
            )
        assert band_determinant(eq2, i, i + 2) == 1
        for off in (3, 4, 5):
            assert band_determinant(eq2, i, i + off) == 0


def test_empty_band(eq2):
    assert band_determinant(eq2, 0, -1) == 1


def _band_equations():
    rng = random.Random(31)
    eqs = []
    for t in range(8):
        n = 5 + t // 2
        if t % 2:
            draw = lambda: GaussianRational(
                Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4), 3)
            )
            kind = GAUSSIAN
        else:
            draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            kind = RATIONAL
        a = tuple(draw() for _ in range(n))
        b = tuple(draw() for _ in range(n))
        eqs.append(SymmetricDiffEq(a, b, kind))
    return eqs


BAND_EQUATIONS = _band_equations()


def _hostile_table(rng, k, n):
    """k cycles of period n; their denominators run 2^61 - 1, 3, 5, ..."""
    values = hostile_fractions(rng, k * n)
    return tuple(tuple(values[s * n : s * n + n]) for s in range(k))


def _hostile_band_equations():
    rng = random.Random(37)
    return [pytest.param(SymmetricDiffEq(*_hostile_table(rng, 2, n)), id=f"rational-hostile-n{n}")
            for n in (5, 7)]


@pytest.mark.parametrize("eq", BAND_EQUATIONS + _hostile_band_equations(),
                         ids=lambda eq: f"{eq.kind.name}-n{eq.n}")
def test_band_builder_matches_cofactor_band(eq):
    table = _table(eq)
    for i in (-2, 0, 3):
        for off in range(-1, 9):
            want = naive_band_determinant(eq, i, i + off)
            assert band_determinant(eq, i, i + off) == want, (i, off)
            assert entry_det_band(table, i, i + off, eq.kind) == want, (i, off)


@pytest.mark.parametrize("eq", BAND_EQUATIONS[:2], ids=lambda eq: eq.kind.name)
def test_band_builder_bounds(eq):
    table = _table(eq)
    assert entry_det_band(table, 4, 3, eq.kind) == eq.kind.one()
    assert band_determinant(eq, 4, 3) == eq.kind.one()
    with pytest.raises(ValueError):
        band_determinant(eq, 4, 2)
    with pytest.raises(ValueError):
        entry_det_band(table, 4, 2, eq.kind)


def _complement_tables(draw):
    """Random tables of orders 1-4 and widths 0-3 (periods k+2..k+5)."""
    return [
        tuple(tuple(draw() for _ in range(k + w + 2)) for _ in range(k))
        for k in range(1, 5)
        for w in range(4)
    ]


def _complement_cases():
    rng = random.Random(31)
    cases = [
        (RATIONAL, _complement_tables(lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5)))),
        (GAUSSIAN, _complement_tables(lambda: GaussianRational(
            Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4), 3)))),
        (COMPLEX, _complement_tables(lambda: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))),
    ]
    # the same shapes with hostile denominators, and Gaussian copies that
    # take each entry's neighbour as imaginary part
    hostile = [_hostile_table(rng, len(t), len(t[0])) for t in cases[0][1]]
    gaussian = [tuple(tuple(GaussianRational(x, y) for x, y in zip(row, row[1:] + row[:1])) for row in t)
                for t in hostile]
    return cases + [(RATIONAL, hostile), (GAUSSIAN, gaussian)]


@pytest.mark.parametrize("kind,tables", _complement_cases(),
                         ids=["rational", "gaussian", "complex", "rational-hostile", "gaussian-hostile"])
def test_complement_builder_matches_cofactor_complement(kind, tables):
    for table in tables:
        k, n = len(table), len(table[0])
        w = n - k - 2
        for i in range(-n, n):
            for t in range(-1, w + 1):
                got = entry_det_complement(table, i, i + t, kind)
                want = naive_entry_det_complement(table, i, i + t, kind)
                if kind.exact:
                    assert got == want, (k, n, i, t)
                else:
                    assert abs(got - want) <= 1e-9, (k, n, i, t)


def test_complement_builder_bounds():
    table = ((1, 2, 3, 4, 5, 6), (2, 1, 1, 3, 1, 2))  # order 2, width 2
    assert entry_det_complement(table, 3, 5) == 1
    for t in (-2, 3):
        for build in (entry_det_complement, naive_entry_det_complement):
            with pytest.raises(ValueError, match=rf"^offset {t} outside \[-1, 2\]$"):
                build(table, 3, 3 + t, RATIONAL)


def test_variety_residuals_vanish():
    res = variety_residuals(*WIDTH2_COEFFS)
    assert len(res) == 10
    assert all(v == 0 for v in res)


def test_variety_residuals_need_period_six():
    with pytest.raises(ValueError, match=r"^the system needs period at least 6$") as e:
        variety_residuals((1,) * 5, (1,) * 5)
    assert e.type is ValueError


def test_variety_residuals_detect_perturbation():
    a, b = WIDTH2_COEFFS
    bumped = (a[0] + 1,) + a[1:]
    assert any(v != 0 for v in variety_residuals(bumped, b))
    assert not is_superperiodic(SymmetricDiffEq(bumped, b))


# the two-parameter width-1 family is evaluate_frieze at the cluster
# point (x1, x2) = (b, a), shifted two diagonal steps

def test_width1_family_base_point(width1_int):
    g = translate(evaluate_frieze((1, 1)), 2)
    assert is_superperiodic(SymmetricDiffEq(*extract_coeffs(g)))
    assert g == width1_int


def test_width1_family_generic_point(width1_int):
    g = evaluate_frieze((1, 2))
    assert is_superperiodic(SymmetricDiffEq(*extract_coeffs(g)))
    assert all(g != translate(width1_int, t) for t in range(6))
    assert any(g == h for h in dihedral_images(width1_int))


def test_width1_family_excludes_zero():
    with pytest.raises(ZeroSubstitution):
        evaluate_frieze((0, 1))
    with pytest.raises(ZeroSubstitution):
        evaluate_frieze((1, 0))


def test_superperiodic_family_spot_checks():
    # the two-parameter width-1 family stays superperiodic off its exclusions
    for a in (1, 2, 3, Fraction(1, 2)):
        for b in (1, 2, Fraction(5, 3)):
            assert is_superperiodic(SymmetricDiffEq(*extract_coeffs(evaluate_frieze((b, a)))))


def _oracle_equations():
    """Superperiodic equations of widths 0-4 over three kinds, each with a
    copy whose b[0] is bumped by one, tagged with the expected verdict."""
    rng = random.Random(8)
    draws = {
        RATIONAL: lambda: Fraction(rng.randint(1, 9), rng.randint(1, 4)),
        GAUSSIAN: lambda: GaussianRational(
            Fraction(rng.randint(1, 9), rng.randint(1, 3)), Fraction(rng.randint(-3, 3), 2)
        ),
        COMPLEX: lambda: complex(rng.uniform(0.5, 3), rng.uniform(-1, 1)),
    }
    cases = []
    for kind, draw in draws.items():
        for w in range(5):
            if w == 0:
                a = b = (kind.one(),) * 5
            else:
                g = propagate_from_zigzag([draw() for _ in range(2 * w)], w, kind)
                a, b = extract_coeffs(g)
            bumped = (b[0] + kind.one(),) + tuple(b[1:])
            cases.append((f"{kind.name}-w{w}", SymmetricDiffEq(a, b, kind), True))
            cases.append((f"{kind.name}-w{w}-bumped", SymmetricDiffEq(a, bumped, kind), False))
    return cases


ORACLE_EQUATIONS = _oracle_equations()
oracle_cases = pytest.mark.parametrize(
    "eq,superperiodic", [c[1:] for c in ORACLE_EQUATIONS], ids=[c[0] for c in ORACLE_EQUATIONS]
)


@oracle_cases
def test_monodromy_matches_companion_product(eq, superperiodic):
    got, want = monodromy(eq).rows, naive_monodromy(eq)
    if eq.kind is COMPLEX:
        # one period run against a matrix product: equal up to rounding
        assert all(abs(x - y) < 1e-9 for r, s in zip(got, want) for x, y in zip(r, s))
    else:
        assert got == tuple(tuple(r) for r in want)


@oracle_cases
def test_superperiodic_matches_four_windows(eq, superperiodic):
    assert is_superperiodic(eq) is superperiodic
    assert naive_superperiodic(eq) is superperiodic


@oracle_cases
def test_propagation_fails_exactly_off_superperiodic(eq, superperiodic):
    if superperiodic:
        g = propagate_from_coeffs(eq.a, eq.b, eq.kind)
        assert all(eq.kind.eq(x, y) for x, y in zip(extract_coeffs(g)[0], eq.a))
    else:
        with pytest.raises(NotSuperperiodic):
            propagate_from_coeffs(eq.a, eq.b, eq.kind)


def _recur_cases():
    """Exact tables for the scaled-integer recurrence, tagged by name.

    For each of the rational and Gaussian kinds and widths 1-4: the
    order-3 table of a zig-zag grid whose parts are drawn up to a bound
    that falls with the width, so that the largest coefficient
    denominator of a table lies between 10^4 and 10^11 (rational) or far
    past it (Gaussian); the table of its Gale dual
    (order w, width 3); and a copy of each with one entry moved by 1/7,
    which must fail to close at the oracle's diagonal.
    """
    rng = random.Random(27)
    part = lambda top: Fraction(rng.randint(1, top), rng.randint(1, top))
    draws = {
        RATIONAL: part,
        GAUSSIAN: lambda top: GaussianRational(part(top), part(top) - part(top)),
    }
    bounds = {1: 10**3, 2: 10**2, 3: 25, 4: 12}
    cases = []
    for kind, draw in draws.items():
        for w in range(1, 5):
            g = propagate_from_zigzag([draw(bounds[w]) for _ in range(2 * w)], w, kind)
            for name, table in (("order3", _table(SymmetricDiffEq(*extract_coeffs(g), kind))),
                                ("gale", coeffs_of(gale_dual(black_of(g))))):
                s, p = rng.randrange(len(table)), rng.randrange(len(table[0]))
                row = table[s][:p] + (table[s][p] + kind.coerce(Fraction(1, 7)),) + table[s][p + 1 :]
                cases.append((f"{kind.name}-w{w}-{name}", kind, table))
                cases.append((f"{kind.name}-w{w}-{name}-moved", kind, table[:s] + (row,) + table[s + 1 :]))
    return cases


RECUR_CASES = _recur_cases()


def _recur_params(cases):
    return pytest.mark.parametrize("kind,table", [c[1:] for c in cases], ids=[c[0] for c in cases])


def test_rational_tables_run_on_ints(fraction_ops):
    # `_Scaled` runs a rational table on ints and builds each value once,
    # so Fraction arithmetic here means the table took the kind's own route
    cases = [table for name, kind, table in RECUR_CASES if kind is RATIONAL and not name.endswith("moved")]
    eqs = [SymmetricDiffEq(table[0], table[1], RATIONAL) for table in cases if len(table) == 3]
    fraction_ops.clear()
    for table in cases:
        from_equation(table, RATIONAL)
    for eq in eqs:
        monodromy(eq)
    assert len(eqs) > 1 and not fraction_ops


def _assert_canonical(v):
    # lowest terms and a positive denominator, hashed like a fresh value
    if isinstance(v, Fraction):
        x, y, d, fresh = v.numerator, 0, v.denominator, Fraction(v.numerator, v.denominator)
    else:
        x, y, d, fresh = v._x, v._y, v._d, GaussianRational(v.re, v.im)
    assert gcd(x, y, d) == 1 and d > 0 and hash(v) == hash(fresh), v


@_recur_params(RECUR_CASES)
def test_from_equation_matches_fraction_recurrence(kind, table):
    want = naive_from_equation(table, kind)
    if isinstance(want, int):
        with pytest.raises(NotSuperperiodic) as e:
            from_equation(table, kind)
        assert e.value.index == want
        return
    got = dict(from_equation(table, kind).cells())
    assert got == want
    for v in got.values():
        _assert_canonical(v)


@_recur_params([c for c in RECUR_CASES if len(c[2]) == 3])
def test_monodromy_matches_fraction_recurrence(kind, table):
    eq = SymmetricDiffEq(table[0], table[1], kind)
    got, want = monodromy(eq), naive_unit_monodromy(eq)
    assert got.rows == tuple(tuple(row) for row in want)
    for row in got.rows:
        for v in row:
            _assert_canonical(v)
    one, zero = kind.one(), kind.zero()
    assert is_superperiodic(eq) is (want == [[-one if r == c else zero for c in range(4)] for r in range(4)])
