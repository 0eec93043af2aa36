import copy
import pickle
import random
import sys
import time
from fractions import Fraction
from math import gcd

import pytest

from oracles import NaiveGaussian

from symfrieze.cluster import LaurentKind
from symfrieze.scalars import (
    COMPLEX,
    GAUSSIAN,
    RATIONAL,
    ComplexFloatKind,
    GaussianRational,
    KindMismatch,
    _lcm_scaled,
    kind_by_name,
)


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_rational_basics():
    assert RATIONAL.name == "rational"
    assert RATIONAL.exact
    assert RATIONAL.zero() == 0
    assert RATIONAL.one() == 1
    assert RATIONAL.coerce(-3) == Fraction(-3)
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
    assert G(1, 2).__eq__((1, 2)) is NotImplemented and G(1, 2) != (1, 2)


def test_a_real_gaussian_equals_the_int_or_fraction_it_is():
    one, half = GAUSSIAN.one(), G(Fraction(-1, 2))
    assert GaussianRational(1) == 1 and 1 == GaussianRational(1)
    assert GaussianRational(1) == Fraction(1) and Fraction(1) == GaussianRational(1)
    assert GAUSSIAN.eq(one, 1) and GAUSSIAN.coerce(1) == 1
    assert half == Fraction(-1, 2) and half != Fraction(1, 2) and half != -1
    assert G(1, 1) != 1 and G(0, 1) != 0 and G(0) == 0
    for inexact in (1.0, 1 + 0j):
        assert one.__eq__(inexact) is NotImplemented and one != inexact
    # dict and set lookups agree with ==
    assert {1: "one"}[one] == "one" and Fraction(-1, 2) in {half} and half in {Fraction(-1, 2)}
    assert hash(G(Fraction(7, 3))) == hash(Fraction(7, 3)) and hash(G(0)) == hash(0)


def test_gaussian_division():
    q = G(5, 5) / G(3, -1)
    assert q == G(1, 2)
    assert q * G(3, -1) == G(5, 5)


def test_gaussian_str_parse_round_trip():
    for v in (G(1, 2), G(-1, -2), G(Fraction(1, 2), Fraction(-3, 4)), G(5), G(0, 1)):
        assert GaussianRational.parse(str(v)) == v
    assert GaussianRational.parse("7/2") == G(Fraction(7, 2))


def test_canonical_rational_text_never_reaches_fraction_parsing(monkeypatch):
    # p and p/q are split into ints by the lexer; only other spellings go to Fraction(text)
    texts = ("7", "-12", "0", "3/7", " -5/2 ", "120/8", f"{2**70}/3")
    want = [Fraction(7), Fraction(-12), Fraction(0), Fraction(3, 7), Fraction(-5, 2), Fraction(15),
            Fraction(2**70, 3)]
    parsed, new = [], Fraction.__new__

    def spy(cls, numerator=0, *args, **kwargs):
        if isinstance(numerator, str):
            parsed.append(numerator)
        return new(cls, numerator, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    assert [RATIONAL.coerce(text) for text in texts] == want
    assert parsed == []
    assert RATIONAL.coerce("0.5") == Fraction(1, 2) and parsed == ["0.5"]


@pytest.mark.parametrize("kind", [RATIONAL, GAUSSIAN], ids=lambda k: k.name)
def test_exponent_text_past_the_digit_limit_is_refused_at_once(kind):
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)  # the interpreter's default
        assert kind.coerce("1e400") == kind.coerce(10**400)
        assert kind.coerce("1e4299") == kind.coerce(10**4299)
        for text in ("1e99999999", "-2.5E+99999999", " 1e-99999999 ", "1e4300", "12e4299"):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="digits"):
                kind.coerce(text)
            assert time.perf_counter() - start < 0.1
        sys.set_int_max_str_digits(0)  # no limit
        assert kind.coerce("1e4300") == kind.coerce(10**4300)
    finally:
        sys.set_int_max_str_digits(saved)


def _gaussian_samples(rng):
    """(value, oracle value) pairs: zero, negative parts, shared and coprime
    denominators, and numerators past 2**64."""
    dens = (1, 2, 3, 4, 6, 9, 35, 2**61 - 1)

    def part():
        num = rng.choice((0, rng.randint(-9, 9), rng.randint(-(2**80), 2**80)))
        return Fraction(num, rng.choice(dens))

    parts = [(Fraction(0), Fraction(0)), (Fraction(-1, 2), Fraction(-3, 4))]
    parts.append((Fraction(1, 6), Fraction(1, 35)))
    parts += [(part(), part()) for _ in range(120)]
    return [(GaussianRational(re, im), NaiveGaussian(re, im)) for re, im in parts]


def _agrees(v, naive):
    assert type(v) is GaussianRational
    assert v._d > 0 and gcd(v._x, v._y, v._d) == 1
    for got, want in ((v.re, naive.re), (v.im, naive.im)):
        assert type(got) is Fraction and got == want
        assert got.denominator > 0 and gcd(got.numerator, got.denominator) == 1
    assert str(v) == str(naive)
    assert GaussianRational.parse(str(v)) == v
    assert bool(v) is bool(naive)


def test_gaussian_arithmetic_matches_the_two_fraction_oracle():
    samples = _gaussian_samples(random.Random(18))
    zero = GaussianRational(0)
    for k, (a, na) in enumerate(samples):
        b, nb = samples[(7 * k + 3) % len(samples)]
        _agrees(a, na)
        _agrees(-a, -na)
        _agrees(a + b, na + nb)
        _agrees(a - b, na - nb)
        _agrees(a * b, na * nb)
        assert (a == b) is (na == nb)
        if nb:
            _agrees(a / b, na / nb)
            same = a * b / b
        else:
            with pytest.raises(ZeroDivisionError, match="division by Gaussian zero"):
                a / b
            same = GaussianRational(a.re, a.im) + zero
        assert same == a and hash(same) == hash(a)
        assert a - a == zero and hash(a - a) == hash(zero)
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / zero


LCM_SCALED_INPUTS = [
    [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), Fraction(4, 7), Fraction(-5, 11)],
    [Fraction(1, 2**61 - 1), Fraction(-3, 2**31 - 1), Fraction(2**70, 2**61 - 1)],
    [Fraction(-7, 6), 0, Fraction(0), -4, Fraction(5, 4), 9, Fraction(-1, 10)],
    [3, -2, 0],
    [Fraction(-9, 16)],
    [5],
    [],
]


@pytest.mark.parametrize("values", LCM_SCALED_INPUTS, ids=range(len(LCM_SCALED_INPUTS)))
def test_lcm_scaled_matches_fraction_arithmetic(values):
    d, ints = _lcm_scaled(values)
    want = 1
    for v in values:
        den = Fraction(v).denominator
        want = want * den // gcd(want, den)
    assert d == want
    assert len(ints) == len(values) and all(type(x) is int for x in ints)
    assert all(Fraction(x, d) == v for x, v in zip(ints, values))


def test_gaussian_values_are_immutable():
    v = GaussianRational(Fraction(1, 2), 3)
    for name in ("re", "im", "_x", "_y", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(v, name, 1)
    assert v == GaussianRational(Fraction(1, 2), 3)


def test_gaussian_parts_must_be_exact():
    # a float part used to enter exact work: squaring printed 2.1875+0.75i
    with pytest.raises(KindMismatch):
        GAUSSIAN.coerce(GaussianRational(1.5, 0.25))
    with pytest.raises(KindMismatch):
        GaussianRational(1, 2j)


def test_gaussian_parts_must_be_numbers():
    for bad in ("1/2", None, True):
        with pytest.raises(TypeError) as e:
            GaussianRational(bad)
        assert e.type is TypeError
    with pytest.raises(TypeError):
        GaussianRational(1, "2")


def test_gaussian_kind():
    assert GAUSSIAN.name == "gaussian"
    assert GAUSSIAN.coerce(3) == G(3)
    assert GAUSSIAN.coerce(Fraction(1, 2)) == G(Fraction(1, 2))
    assert GAUSSIAN.coerce("0+1i") == G(0, 1)
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


@pytest.mark.parametrize("tolerance", [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")])
def test_complex_tolerance_must_be_finite_and_non_negative(tolerance):
    with pytest.raises(ValueError, match=r"^tolerance must be finite and non-negative, got "):
        ComplexFloatKind(tolerance)
    # a given tolerance is checked whatever the kind; a good one leaves an exact kind as it is
    for name, kind in (("complex-float", None), ("rational", RATIONAL), ("gaussian", GAUSSIAN)):
        with pytest.raises(ValueError, match=r"^tolerance must be finite and non-negative, got "):
            kind_by_name(name, tolerance)
        if kind is not None:
            assert kind_by_name(name, 1e-6) is kind


def test_complex_tolerance_zero_is_exact_comparison():
    exact = ComplexFloatKind(0.0)
    assert exact.eq(1.5 + 0j, 1.5 + 0j)
    assert not exact.eq(1.0 + 0j, 1.0 + 1e-300j)


def test_complex_coerce_accepts_exact_values():
    assert COMPLEX.coerce(GaussianRational(Fraction(1, 2), Fraction(3))) == 0.5 + 3j
    assert COMPLEX.coerce(Fraction(1, 4)) == 0.25 + 0j
    assert COMPLEX.coerce("1+2i") == 1 + 2j


@pytest.mark.parametrize("re, im", [
    (Fraction(1, 3), Fraction(-2, 7)),
    (Fraction(-(2**200) - 1, 2**199), Fraction(5, 2**61 - 1)),
    (Fraction(10**400 + 1, 3 * 10**400), Fraction(-1, 10**300 + 7)),
    (Fraction(1, 10**320), Fraction(-7, 3)),
])
def test_complex_coerce_rounds_gaussian_parts_like_float(re, im):
    assert COMPLEX.coerce(GaussianRational(re, im)) == complex(float(re), float(im))


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


KINDS = [RATIONAL, GAUSSIAN, COMPLEX, ComplexFloatKind(1e-6), LaurentKind(2), LaurentKind(3)]


@pytest.mark.parametrize("kind", KINDS, ids=repr)
def test_a_copied_or_pickled_kind_equals_the_original(kind):
    for twin in (copy.deepcopy(kind), pickle.loads(pickle.dumps(kind))):
        assert twin is not kind
        assert (twin == kind, twin != kind, hash(twin) == hash(kind)) == (True, False, True)


def test_kinds_are_equal_by_class_and_fields():
    assert [[a == b for b in KINDS] for a in KINDS] == [[a is b for b in KINDS] for a in KINDS]
    assert ComplexFloatKind() == COMPLEX and kind_by_name("complex-float", 1e-6) == KINDS[3]
    assert repr(RATIONAL) == "RationalKind()" and repr(COMPLEX) == "ComplexFloatKind(tolerance=1e-09)"
