import random
from fractions import Fraction

import pytest

from oracles import cofactor_det
from symfrieze.cluster import LaurentKind, LaurentPolynomial
from symfrieze.linalg import Matrix, det
from symfrieze.scalars import (
    COMPLEX,
    GAUSSIAN,
    RATIONAL,
    ComplexFloatKind,
    GaussianRational,
    KindMismatch,
)


def rational_matrix(rng, n, span=9):
    return Matrix(
        RATIONAL,
        [[Fraction(rng.randint(-span, span)) for _ in range(n)] for _ in range(n)],
    )


def test_det_matches_cofactor_expansion():
    rng = random.Random(3)
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            m = rational_matrix(rng, n)
            assert det(m) == cofactor_det([list(r) for r in m.rows])


def test_det_gaussian():
    rng = random.Random(5)
    for _ in range(20):
        rows = [
            [
                GaussianRational(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        m = Matrix(GAUSSIAN, rows)
        assert det(m) == cofactor_det(rows)


def test_det_with_zero_pivots():
    # Bareiss needs row swaps here
    m = Matrix(RATIONAL, [[0, 1, 2], [3, 0, 1], [1, 1, 0]])
    assert det(m) == cofactor_det([[Fraction(v) for v in r] for r in ((0, 1, 2), (3, 0, 1), (1, 1, 0))])
    z = Matrix(RATIONAL, [[0, 0], [1, 1]])
    assert det(z) == 0


def random_fraction(rng):
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7, 12)))


def random_gaussian(rng):
    return GaussianRational(random_fraction(rng), random_fraction(rng))


def check_kernel(kind, rows):
    got = det(Matrix(kind, rows))
    if kind is RATIONAL:
        assert type(got) is Fraction
    else:
        assert type(got) is GaussianRational
        assert type(got.re) is Fraction and type(got.im) is Fraction
    assert got == (cofactor_det(rows) if rows else kind.one())
    return got


@pytest.mark.parametrize("kind, entry", [(RATIONAL, random_fraction), (GAUSSIAN, random_gaussian)])
@pytest.mark.parametrize("n", range(7))
def test_kernel_matches_cofactor_expansion(kind, entry, n):
    # fractional entries, a quarter of them zero; every third matrix has a
    # last row that is a combination of the others, so its det is zero
    rng = random.Random(f"{kind.name}:{n}")
    for trial in range(12 if n < 6 else 3):
        rows = [[entry(rng) for _ in range(n)] for _ in range(n)]
        if n > 1 and trial % 3 == 2:
            c = entry(rng)
            rows[-1] = [u * c - v for u, v in zip(rows[0], rows[-2])]
            assert check_kernel(kind, rows) == kind.zero()
        else:
            check_kernel(kind, rows)


def test_kernel_row_swaps_and_singular():
    h, t = Fraction(1, 2), Fraction(1, 3)
    cases = [
        # zero leading pivots: swaps at the first and the second step
        [[0, 0, h], [0, t, 1], [h, 2, t]],
        # the second pivot turns zero only after the first elimination step
        [[h, 1, t], [1, 2, 5], [t, 7, h]],
        [[0, 1, 2, 3], [0, 0, h, 1], [t, 0, 0, 2], [0, 2, 1, 0]],
        # singular: a zero column, a zero row, two equal rows
        [[0, 1, 2], [0, h, 1], [0, 3, t]],
        [[h, 1, 2], [0, 0, 0], [t, 3, 1]],
        [[h, t, 2], [1, 1, 1], [h, t, 2]],
    ]
    i = GaussianRational(Fraction(0), Fraction(1))
    for rows in cases:
        rows = [[Fraction(v) for v in row] for row in rows]
        check_kernel(RATIONAL, rows)
        # the same shapes over Z[i], with fractional imaginary parts
        g = [[GaussianRational(v) * GaussianRational(Fraction(1), v) for v in row] for row in rows]
        check_kernel(GAUSSIAN, g)
        check_kernel(GAUSSIAN, [[v * i for v in row] for row in g])
    assert det(Matrix(RATIONAL, cases[3])) == 0
    assert det(Matrix(GAUSSIAN, cases[4])) == GAUSSIAN.zero()


def test_gaussian_det_rejects_a_float_entry():
    # used to die in det with "'float' object has no attribute 'denominator'"
    with pytest.raises(KindMismatch):
        det(Matrix(GAUSSIAN, [[GaussianRational(1.5)]]))


def test_laurent_det_takes_generic_bareiss():
    kind = LaurentKind(2)
    x, y = (LaurentPolynomial.variable(2, v) for v in range(2))
    one, zero = kind.one(), kind.zero()
    # zero first pivot forces a swap; x^-1 makes it Laurent, not polynomial
    rows = [[zero, y, one], [x * y, x + y, y * y], [one / x, x * x, x + one]]
    assert det(Matrix(kind, rows)) == cofactor_det(rows)
    assert det(Matrix(kind, [[x, y], [x * x, x * y]])) == zero


def test_laurent_det_with_a_zero_column_is_zero():
    kind = LaurentKind(2)
    x, y = (LaurentPolynomial.variable(2, v) for v in range(2))
    zero = kind.zero()
    # the second column has no pivot left after the first elimination step
    rows = [[x, zero, y], [y, zero, x], [x * y, zero, kind.one()]]
    assert det(Matrix(kind, rows)) == zero


def test_complex_float_det_uses_tolerance():
    near_singular = Matrix(COMPLEX, [[1, 1], [1, 1 + 1e-12]])
    assert det(near_singular) == 0
    tight = Matrix(ComplexFloatKind(1e-15), near_singular.rows)
    assert det(tight) != 0


def test_complex_float_solve():
    # Cramer's rule through det, as coeffs_from_polygon reads its coefficients
    a = Matrix(COMPLEX, [[0, 1j, 2], [1, 3, -1], [2 - 1j, 1 - 1j, 4]])
    rows = [list(r) for r in a.rows]
    assert COMPLEX.eq(det(a), cofactor_det(rows))
    x = (1 + 2j, -1j, 0.5)
    b = [sum(rows[r][c] * x[c] for c in range(3)) for r in range(3)]
    for j in range(3):
        swapped = Matrix(COMPLEX, [row[:j] + [v] + row[j + 1:] for row, v in zip(rows, b)])
        assert COMPLEX.eq(det(swapped) / det(a), x[j])


def test_det_matches_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)

    def sym(v):
        if isinstance(v, GaussianRational):
            return sym(v.re) + sympy.I * sym(v.im)
        return sympy.Rational(v.numerator, v.denominator)

    @hypothesis.given(
        st.sampled_from([RATIONAL, GAUSSIAN]),
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(
                st.lists(st.tuples(fractions, fractions), min_size=n, max_size=n),
                min_size=n, max_size=n,
            )
        ),
    )
    # no shrink phase: shrinking a failure re-runs sympy for minutes, so
    # a failing example is reported as drawn
    @hypothesis.settings(
        max_examples=25, deadline=None, derandomize=True, database=None,
        phases=(hypothesis.Phase.explicit, hypothesis.Phase.generate),
    )
    def check(kind, pairs):
        if kind is RATIONAL:
            rows = [[re for re, _ in row] for row in pairs]
        else:
            rows = [[GaussianRational(re, im) for re, im in row] for row in pairs]
        want = sympy.Matrix([[sym(v) for v in row] for row in rows]).det()
        assert sympy.expand(sym(det(Matrix(kind, rows))) - want) == 0

    check()


def test_empty_det_is_one():
    assert det(Matrix(RATIONAL, [])) == 1


def test_identity_det_is_one():
    assert det(Matrix.identity(RATIONAL, 3)) == 1


def test_equality_and_repr():
    m = Matrix(RATIONAL, [[1, Fraction(1, 2)], [0, -3]])
    assert m == Matrix(RATIONAL, [[1, Fraction(1, 2)], [0, -3]])
    assert m != Matrix.identity(RATIONAL, 2) and m != Matrix.identity(RATIONAL, 3)
    assert m != m.rows and m.__eq__(m.rows) is NotImplemented
    assert repr(m) == "Matrix(rational, [1 1/2; 0 -3])"


def test_shape_errors():
    with pytest.raises(ValueError):
        Matrix(RATIONAL, [[1, 2], [3]])
    with pytest.raises(ValueError):
        det(Matrix(RATIONAL, [[1, 2]]))
