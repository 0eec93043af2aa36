"""Scalar domains the friezes are computed over.

Every grid, matrix, and polynomial in this package is parametrized by a
ScalarKind: a small strategy object that knows how to build, compare, and
test elements of one coefficient domain. Exact kinds (rationals, Gaussian
rationals) compare with ``==``; the complex floating kind compares within a
tolerance. Mixing elements of two kinds raises KindMismatch instead of
letting Python's numeric coercions silently produce floats inside an exact
computation.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Protocol


class KindMismatch(TypeError):
    """A value from one scalar kind leaked into another kind's computation."""


class ScalarKind(Protocol):
    """Factory and comparator for one coefficient domain."""

    name: str
    exact: bool

    def zero(self) -> Any: ...

    def one(self) -> Any: ...

    def from_int(self, n: int) -> Any: ...

    def coerce(self, value: Any) -> Any: ...

    def is_zero(self, value: Any) -> bool: ...

    def eq(self, a: Any, b: Any) -> bool: ...


@dataclass(frozen=True)
class GaussianRational:
    """Gaussian rational a + b*i with exact Fraction parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        # multiply by the conjugate; denominator is |other|^2, exact
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by Gaussian zero")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __str__(self) -> str:
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"

    _PATTERN = re.compile(
        r"^\s*(?P<re>[+-]?\d+(?:/\d+)?)\s*"
        r"(?P<sign>[+-])\s*(?P<im>\d+(?:/\d+)?)i\s*$"
    )

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Inverse of __str__; also accepts a bare rational as purely real."""
        m = cls._PATTERN.match(text)
        if m:
            im = Fraction(m.group("im"))
            if m.group("sign") == "-":
                im = -im
            return cls(Fraction(m.group("re")), im)
        return cls(Fraction(text.strip()))


def _reject_float(value: Any) -> None:
    if isinstance(value, (float, complex)):
        raise KindMismatch(f"refusing to coerce inexact {value!r} into an exact kind")


class RationalKind:
    name = "rational"
    exact = True

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def coerce(self, value: Any) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        _reject_float(value)
        raise KindMismatch(f"cannot interpret {value!r} as a rational")

    def is_zero(self, value: Fraction) -> bool:
        return value == 0

    def eq(self, a: Fraction, b: Fraction) -> bool:
        return a == b

    def __repr__(self) -> str:
        return "RATIONAL"


class GaussianKind:
    name = "gaussian"
    exact = True

    def zero(self) -> GaussianRational:
        return GaussianRational(Fraction(0))

    def one(self) -> GaussianRational:
        return GaussianRational(Fraction(1))

    def from_int(self, n: int) -> GaussianRational:
        return GaussianRational(Fraction(n))

    def i(self) -> GaussianRational:
        return GaussianRational(Fraction(0), Fraction(1))

    def coerce(self, value: Any) -> GaussianRational:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        if isinstance(value, str):
            return GaussianRational.parse(value)
        _reject_float(value)
        raise KindMismatch(f"cannot interpret {value!r} as a Gaussian rational")

    def is_zero(self, value: GaussianRational) -> bool:
        return not value

    def eq(self, a: GaussianRational, b: GaussianRational) -> bool:
        return a.re == b.re and a.im == b.im

    def __repr__(self) -> str:
        return "GAUSSIAN"


class ComplexFloatKind:
    """Complex floats compared within an absolute tolerance (default 1e-9)."""

    name = "complex-float"
    exact = False

    def __init__(self, tolerance: float = 1e-9):
        if not 0 <= tolerance < float("inf"):
            raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")
        self.tolerance = tolerance

    def zero(self) -> complex:
        return 0j

    def one(self) -> complex:
        return 1 + 0j

    def from_int(self, n: int) -> complex:
        return complex(n)

    def coerce(self, value: Any) -> complex:
        if isinstance(value, GaussianRational):
            return complex(value.re, value.im)
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

    def sqrt(self, value: complex) -> complex:
        return cmath.sqrt(value)

    def __repr__(self) -> str:
        return f"ComplexFloatKind(tolerance={self.tolerance})"


RATIONAL = RationalKind()
GAUSSIAN = GaussianKind()
COMPLEX = ComplexFloatKind()

_BY_NAME = {kind.name: kind for kind in (RATIONAL, GAUSSIAN, COMPLEX)}
SCALAR_NAMES = tuple(_BY_NAME)


def kind_by_name(name: str, tolerance: float | None = None) -> ScalarKind:
    """Look up a scalar kind for CLI/serialization use."""
    try:
        kind = _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown scalar kind {name!r}") from None
    if name == "complex-float" and tolerance is not None:
        return ComplexFloatKind(tolerance)
    return kind
