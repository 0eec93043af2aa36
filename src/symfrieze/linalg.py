"""Small dense matrices over a ScalarKind, and `det`, the one
linear-algebra routine of the package: there is no matrix product,
transpose or solver.

Sizes stay small (2x2 through roughly 10x10), but the adjacent-minor
scans take thousands of determinants, so `det` picks a path by the kind:

- rational and Gaussian: each row is scaled to ints by the lcm of its
  denominators (a rational row by `scalars._lcm_scaled`, a Gaussian one
  into two int rows here), Bareiss elimination runs on Gaussian integers
  (the imaginary matrix all 0 for rationals), and the determinant over
  the product of the lcms is a Fraction, or a GaussianRational by `_of`;
- any other exact kind (Laurent polynomials): Bareiss elimination on the
  kind's own elements, which needs only *, - and exact /;
- complex floats: partial-pivot LU, with the kind's tolerance as zero test.

Every exact path returns the same value as Bareiss over the kind itself.
`Matrix(kind, rows)` coerces its entries; the package builds its own
matrices, of values already in the kind, through the private `Matrix._of`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Any, Iterable

from .scalars import GaussianKind, GaussianRational, RationalKind, ScalarKind, _lcm_scaled


class Matrix:
    __slots__ = ("kind", "rows")

    def __init__(self, kind: ScalarKind, rows: Iterable[Iterable[Any]]):
        self.kind = kind
        self.rows = tuple(tuple(kind.coerce(v) for v in row) for row in rows)
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged matrix rows")

    @classmethod
    def _of(cls, kind: ScalarKind, rows: Iterable[Iterable[Any]]) -> "Matrix":
        # rows: equal-length rows of values already of `kind`
        m = object.__new__(cls)
        m.kind, m.rows = kind, tuple(map(tuple, rows))
        return m

    @classmethod
    def identity(cls, kind: ScalarKind, n: int) -> "Matrix":
        one, zero = kind.one(), kind.zero()
        return cls._of(kind, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.kind, [[-v for v in row] for row in self.rows])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        eq = self.kind.eq
        return all(
            eq(a, b) for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.rows)
        return f"Matrix({self.kind.name}, [{body}])"


def det(m: Matrix) -> Any:
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    if m.nrows == 0:
        return m.kind.one()
    if isinstance(m.kind, RationalKind):
        return _det_rational(m.rows)
    if isinstance(m.kind, GaussianKind):
        return _det_gaussian(m.rows)
    if m.kind.exact:
        return _det_bareiss(m)
    return _det_lu(m)


def _det_rational(rows) -> Fraction:
    scale = 1
    a = []
    for row in rows:
        s, ints = _lcm_scaled(row)
        scale *= s
        a.append(ints)
    d, _ = _det_gaussian_int(a, [[0] * len(a) for _ in a])
    return Fraction(d, scale)


def _det_gaussian(rows) -> GaussianRational:
    scale = 1
    re, im = [], []
    for row in rows:
        s = lcm(*(v._d for v in row))
        scale *= s
        re.append([v._x * (s // v._d) for v in row])
        im.append([v._y * (s // v._d) for v in row])
    d_re, d_im = _det_gaussian_int(re, im)
    return GaussianRational._of(d_re, d_im, scale)


def _det_gaussian_int(re: list, im: list) -> tuple[int, int]:
    # Bareiss over Z[i], in place, the entry at (i, j) being
    # re[i][j] + im[i][j] * i.  Dividing by the previous pivot q is exact:
    # multiply by conj(q), then // |q|^2 on each part.
    n = len(re)
    sign = 1
    q_re, q_im, norm = 1, 0, 1
    for k in range(n - 1):
        if not (re[k][k] or im[k][k]):
            for r in range(k + 1, n):
                if re[r][k] or im[r][k]:
                    re[k], re[r] = re[r], re[k]
                    im[k], im[r] = im[r], im[k]
                    sign = -sign
                    break
            else:
                return 0, 0
        top_re, top_im = re[k], im[k]
        p_re, p_im = top_re[k], top_im[k]
        for i in range(k + 1, n):
            row_re, row_im = re[i], im[i]
            f_re, f_im = row_re[k], row_im[k]
            for j in range(k + 1, n):
                x_re, x_im = row_re[j], row_im[j]
                t_re, t_im = top_re[j], top_im[j]
                y_re = x_re * p_re - x_im * p_im - f_re * t_re + f_im * t_im
                y_im = x_re * p_im + x_im * p_re - f_re * t_im - f_im * t_re
                row_re[j] = (y_re * q_re + y_im * q_im) // norm
                row_im[j] = (y_im * q_re - y_re * q_im) // norm
        q_re, q_im, norm = p_re, p_im, p_re * p_re + p_im * p_im
    return sign * re[n - 1][n - 1], sign * im[n - 1][n - 1]


def _det_bareiss(m: Matrix) -> Any:
    # fraction-free elimination; every division is exact in the domain
    kind = m.kind
    n = m.nrows
    a = [list(row) for row in m.rows]
    sign = 1
    prev = kind.one()
    for k in range(n - 1):
        if kind.is_zero(a[k][k]):
            for r in range(k + 1, n):
                if not kind.is_zero(a[r][k]):
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return kind.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = kind.zero()
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return result if sign == 1 else -result


def _det_lu(m: Matrix) -> Any:
    kind = m.kind
    n = m.nrows
    a = [list(row) for row in m.rows]
    acc = kind.one()
    for k in range(n):
        p = max(range(k, n), key=lambda r: abs(a[r][k]))
        if kind.is_zero(a[p][k]):
            return kind.zero()
        if p != k:
            a[k], a[p] = a[p], a[k]
            acc = -acc
        acc = acc * a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return acc
