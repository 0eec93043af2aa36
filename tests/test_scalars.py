from fractions import Fraction

import pytest

from symfrieze.scalars import (
    COMPLEX,
    GAUSSIAN,
    RATIONAL,
    ComplexFloatKind,
    GaussianRational,
    KindMismatch,
    kind_by_name,
)


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_rational_basics():
    assert RATIONAL.name == "rational"
    assert RATIONAL.exact
    assert RATIONAL.zero() == 0
    assert RATIONAL.one() == 1
    assert RATIONAL.from_int(-3) == Fraction(-3)
    assert RATIONAL.coerce("7/2") == Fraction(7, 2)
    assert RATIONAL.is_zero(Fraction(0))
    assert RATIONAL.eq(Fraction(1, 2), Fraction(2, 4))


def test_rational_rejects_floats():
    with pytest.raises(KindMismatch):
        RATIONAL.coerce(0.5)


def test_gaussian_arithmetic():
    i = G(0, 1)
    assert i * i == G(-1)
    assert (G(1, 2) * G(3, -1)) == G(5, 5)
    assert G(1, 2) + G(3, -1) == G(4, 1)
    assert G(1, 2) - G(3, -1) == G(-2, 3)
    assert -G(1, 2) == G(-1, -2)


def test_gaussian_division():
    q = G(5, 5) / G(3, -1)
    assert q == G(1, 2)
    assert q * G(3, -1) == G(5, 5)


def test_gaussian_str_parse_round_trip():
    for v in (G(1, 2), G(-1, -2), G(Fraction(1, 2), Fraction(-3, 4)), G(5), G(0, 1)):
        assert GaussianRational.parse(str(v)) == v
    assert GaussianRational.parse("7/2") == G(Fraction(7, 2))


def test_gaussian_kind():
    assert GAUSSIAN.name == "gaussian"
    assert GAUSSIAN.coerce(3) == G(3)
    assert GAUSSIAN.coerce(Fraction(1, 2)) == G(Fraction(1, 2))
    assert GAUSSIAN.i() * GAUSSIAN.i() == G(-1)
    assert GAUSSIAN.is_zero(G(0))
    with pytest.raises(KindMismatch):
        GAUSSIAN.coerce(1.5)


def test_complex_tolerance():
    assert COMPLEX.name == "complex-float"
    assert not COMPLEX.exact
    assert COMPLEX.eq(1.0 + 0j, 1.0 + 1e-12j)
    assert not COMPLEX.eq(1.0 + 0j, 1.0 + 1e-6j)
    tight = ComplexFloatKind(tolerance=1e-15)
    assert not tight.eq(1.0 + 0j, 1.0 + 1e-12j)
    assert COMPLEX.sqrt(-1 + 0j) == pytest.approx(1j)


@pytest.mark.parametrize("tolerance", [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")])
def test_complex_tolerance_must_be_finite_and_non_negative(tolerance):
    with pytest.raises(ValueError, match=r"^tolerance must be finite and non-negative, got "):
        ComplexFloatKind(tolerance)
    with pytest.raises(ValueError):
        kind_by_name("complex-float", tolerance)
    assert kind_by_name("rational", tolerance) is RATIONAL
    assert kind_by_name("gaussian", tolerance) is GAUSSIAN


def test_complex_tolerance_zero_is_exact_comparison():
    exact = ComplexFloatKind(0.0)
    assert exact.eq(1.5 + 0j, 1.5 + 0j)
    assert not exact.eq(1.0 + 0j, 1.0 + 1e-300j)


def test_complex_coerce_accepts_exact_values():
    assert COMPLEX.coerce(GaussianRational(Fraction(1, 2), Fraction(3))) == 0.5 + 3j
    assert COMPLEX.coerce(Fraction(1, 4)) == 0.25 + 0j
    assert COMPLEX.coerce("1+2i") == 1 + 2j


@pytest.mark.parametrize("text, want", [
    ("1+2i", 1 + 2j), (" 1 - 2i ", 1 - 2j), ("2i", 2j), ("i", 1j), ("-i", -1j),
    ("inf", complex("inf")), ("-inf", complex("-inf")), ("Infinity", complex("inf")),
    ("1e400", complex("inf")), ("-infi", complex(0, float("-inf"))),
])
def test_complex_text_reads_only_a_trailing_i_as_the_unit(text, want):
    assert COMPLEX.coerce(text) == want


def test_kind_by_name():
    assert kind_by_name("rational") is RATIONAL
    assert kind_by_name("gaussian") is GAUSSIAN
    assert kind_by_name("complex-float") is COMPLEX
    custom = kind_by_name("complex-float", tolerance=1e-3)
    assert custom.tolerance == 1e-3
    with pytest.raises(KeyError):
        kind_by_name("septimal")
