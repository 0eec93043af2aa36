"""Scalar domains the friezes are computed over.

Every grid, matrix, and polynomial in this package is parametrized by a
ScalarKind: a small value that knows how to build, compare, and test
elements of one coefficient domain. Exact kinds (rationals, Gaussian
rationals) compare with ``==``; the complex floating kind compares within a
tolerance. Mixing elements of two kinds raises KindMismatch instead of
letting Python's numeric coercions silently produce floats inside an exact
computation.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Any


class KindMismatch(TypeError):
    """A value from one scalar kind leaked into another kind's computation."""


# the canonical spellings p[/q] and a[/b]±c[/e]i, split into digit groups
_EXACT_TEXT = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?(?:\s*([+-])\s*(\d+)(?:/(\d+))?i)?\s*")
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*$")
_set = object.__setattr__  # fills the slots of an immutable value


class _Frozen:
    """Base of the package's immutable value types.

    A subclass lists its public fields in `_fields`, in order, and fills
    them through `__init__`; those fields alone give `==` (only within
    one class), the hash and the repr `Name(field=value, ...)`.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *values: Any):
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class ScalarKind(_Frozen):
    """Factory and comparator for one coefficient domain.

    Kinds are values: two kinds are equal when they have the same class
    and equal fields, so a copy or a pickle of a kind equals the original.
    Each subclass names itself and supplies `zero`, `one`, `coerce` and
    `eq`; `coerce` takes any int, and exact kinds read a falsy element as
    zero.
    """

    __slots__ = ()
    name: str
    exact = True

    def is_zero(self, value: Any) -> bool:
        return not value


class GaussianRational:
    """Immutable Gaussian rational re + im*i, each part an int or a Fraction.

    Held as three ints (x + y*i)/d in lowest terms (d > 0, gcd(x, y, d) = 1),
    so equal values have equal fields; arithmetic builds through `_of`.
    """

    __slots__ = ("_x", "_y", "_d")

    def __new__(cls, re: int | Fraction, im: int | Fraction = 0) -> "GaussianRational":
        for part in (re, im):
            if isinstance(part, bool) or not isinstance(part, (int, Fraction)):
                _reject_float(part)
                raise TypeError(f"a Gaussian part must be an int or a Fraction, not {part!r}")
        d, (x, y) = _lcm_scaled((re, im))
        return cls._of(x, y, d)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"GaussianRational is immutable; cannot set {name!r}")

    @classmethod
    def _of(cls, x: int, y: int, d: int) -> "GaussianRational":
        # (x + y*i)/d for ints with d > 0, reduced here by one gcd
        g = gcd(x, y, d)
        v = object.__new__(cls)
        _set(v, "_x", x // g)
        _set(v, "_y", y // g)
        _set(v, "_d", d // g)
        return v

    @property
    def re(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._y, self._d)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, d, c, e, f = self._x, self._y, self._d, other._x, other._y, other._d
        return GaussianRational._of(a * f + c * d, b * f + e * d, d * f)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, d, c, e, f = self._x, self._y, self._d, other._x, other._y, other._d
        return GaussianRational._of(a * f - c * d, b * f - e * d, d * f)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._of(-self._x, -self._y, self._d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, e = self._x, self._y, other._x, other._y
        return GaussianRational._of(a * c - b * e, a * e + b * c, self._d * other._d)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        # (a + bi)/d / ((c + ei)/f) = f(a + bi)(c - ei) / (d(c^2 + e^2))
        c, e = other._x, other._y
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by Gaussian zero")
        a, b = self._x * other._d, self._y * other._d
        return GaussianRational._of(a * c + b * e, b * c - a * e, self._d * norm)

    def __bool__(self) -> bool:
        return bool(self._x or self._y)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self._x == other._x and self._y == other._y and self._d == other._d
        if isinstance(other, (int, Fraction)):
            # a real value in lowest terms is x/d with gcd(x, d) = 1
            return self._y == 0 and self._x == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        # a real value hashes as the Fraction and int it equals
        if self._y == 0:
            return hash(Fraction(self._x, self._d))
        return hash((self._x, self._y, self._d))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        x, y, d = self._x, self._y, self._d
        return f"{_ratio(x, d)}{'-' if y < 0 else '+'}{_ratio(abs(y), d)}i"

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Inverse of __str__; also accepts a bare rational as purely real.

        The spellings a[/b]±c[/e]i and p[/q] are read by `_lex` straight
        into the int triple; any other rational text goes through
        `_fraction`.
        """
        parts = _lex(text)
        if parts is None:
            return cls(_fraction(text))
        x, y, d = parts
        if d == 0:
            raise ZeroDivisionError(f"{text.strip()!r} has a zero denominator")
        return cls._of(x, y or 0, d)


def _lcm_scaled(values) -> tuple[int, list]:
    """d, the lcm of the denominators of `values` (a sequence of ints and
    Fractions), and each value times d, as a list of ints.  The one lcm
    scaling of the package's exact int paths."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _lex(text: str) -> tuple | None:
    """(x, y, d) with value (x + y*i)/d for text spelled p[/q] (y is None)
    or a[/b]±c[/e]i, around optional whitespace; None for any other text.
    The digit groups go to int() alone, which keeps its digit limit; d is
    0 when a denominator is, and d >= 0 always."""
    m = _EXACT_TEXT.fullmatch(text)
    if m is None:
        return None
    a, b, sign, c, e = m.groups()
    b = int(b) if b else 1
    if sign is None:
        return int(a), None, b
    e = int(e) if e else 1
    c = int(c) * b
    return int(a) * e, -c if sign == "-" else c, b * e


def _fraction(text: str) -> Fraction:
    """text as a Fraction.  The spelling p[/q] is read by `_lex` as two
    ints, and Fraction(p, q) raises on q = 0.  Any other text (decimals,
    exponents, underscores) goes to Fraction(text), refusing exponent
    text whose mantissa digits plus |exponent| pass the int digit limit
    (0 for none) before Fraction spends seconds on 10**exponent."""
    parts = _lex(text)
    if parts is not None and parts[1] is None:
        return Fraction(parts[0], parts[2])
    m, limit = _EXPONENT.search(text), sys.get_int_max_str_digits()
    if m and limit and sum(map(str.isdigit, text[: m.start()])) + abs(int(m.group(1))) > limit:
        raise ValueError(f"{text.strip()!r} would exceed {limit} digits")
    return Fraction(text)


def _ratio(p: int, q: int) -> str:
    # p/q (q > 0) in lowest terms, printed as Fraction prints it
    g = gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def _reject_float(value: Any) -> None:
    if isinstance(value, (float, complex)):
        raise KindMismatch(f"refusing to coerce inexact {value!r} into an exact kind")


class RationalKind(ScalarKind):
    __slots__ = ()
    name = "rational"

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, value: Any) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return _fraction(value)
        _reject_float(value)
        raise KindMismatch(f"cannot interpret {value!r} as a rational")

    def eq(self, a: Fraction, b: Fraction) -> bool:
        return a == b


class GaussianKind(ScalarKind):
    __slots__ = ()
    name = "gaussian"

    def zero(self) -> GaussianRational:
        return GaussianRational._of(0, 0, 1)

    def one(self) -> GaussianRational:
        return GaussianRational._of(1, 0, 1)

    def coerce(self, value: Any) -> GaussianRational:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        if isinstance(value, str):
            return GaussianRational.parse(value)
        _reject_float(value)
        raise KindMismatch(f"cannot interpret {value!r} as a Gaussian rational")

    def eq(self, a: GaussianRational, b: GaussianRational) -> bool:
        return a == b


class ComplexFloatKind(ScalarKind):
    """Complex floats compared within an absolute tolerance (default 1e-9)."""

    __slots__ = _fields = ("tolerance",)
    name = "complex-float"
    exact = False

    def __init__(self, tolerance: float = 1e-9):
        if not 0 <= tolerance < float("inf"):
            raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")
        super().__init__(tolerance)

    def zero(self) -> complex:
        return 0j

    def one(self) -> complex:
        return 1 + 0j

    def coerce(self, value: Any) -> complex:
        if isinstance(value, GaussianRational):
            # int true division rounds correctly, as float(Fraction) does
            return complex(value._x / value._d, value._y / value._d)
        if isinstance(value, (int, float, complex, Fraction)):
            return complex(value)
        if isinstance(value, str):
            text = value.replace(" ", "")  # only a trailing i is the unit: "inf" stays
            return complex(text[:-1] + "j" if text.endswith("i") else text)
        raise KindMismatch(f"cannot interpret {value!r} as a complex float")

    def is_zero(self, value: complex) -> bool:
        return abs(value) <= self.tolerance

    def eq(self, a: complex, b: complex) -> bool:
        return abs(a - b) <= self.tolerance


RATIONAL = RationalKind()
GAUSSIAN = GaussianKind()
COMPLEX = ComplexFloatKind()

_BY_NAME = {kind.name: kind for kind in (RATIONAL, GAUSSIAN, COMPLEX)}
SCALAR_NAMES = tuple(_BY_NAME)


def kind_by_name(name: str, tolerance: float | None = None) -> ScalarKind:
    """Look up a scalar kind for CLI/serialization use; a given tolerance
    is range-checked for every kind, and kept by a complex-float one."""
    try:
        kind = _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown scalar kind {name!r}") from None
    if tolerance is not None:
        checked = ComplexFloatKind(tolerance)
        if name == "complex-float":
            return checked
    return kind
