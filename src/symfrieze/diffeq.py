"""Symmetric difference equations of order four, and coefficient tables.

The recurrence V[i] = a[i] V[i-1] - b[i] V[i-2] + a[i-1] V[i-3] - V[i-4]
with n-periodic coefficients.  An equation is superperiodic when every
solution is n-antiperiodic, V[i+n] = -V[i]; those are exactly the
equations whose solution diagonals weave a frieze grid of width n - 5.
It is the order-3 recurrence on the cycles (a, b, a shifted by one).
`_recur` runs a table of k cycles.  `_Scaled.from_unit` runs it from a
unit window (zeros capped by a single 1), a rational table on integers:
t steps past the 1 the value is an integer polynomial of degree at most
t in the coefficients, so with d the lcm of their denominators
(`scalars._lcm_scaled`) d^t times it is an integer, built once as a
Fraction.  This run is the one path from coefficient cycles to entries.
Expanding the band of `entry_det_band` along its last column gives the
recurrence, so `_band_det`, behind every band reader here, is the last
value of a run; `frieze.from_equation`, `slfrieze.coeffs_of` and
`frieze.extend_through_zero` read runs too.  `white_band_determinant`,
the paper's symmetric formula, is the one band matrix.
"""

from fractions import Fraction
from typing import Sequence, Tuple

from .linalg import Matrix, det
from .scalars import RATIONAL, RationalKind, ScalarKind, _Frozen, _lcm_scaled


class SymmetricDiffEq(_Frozen):
    """One period of coefficients; access is n-periodic via a_at/b_at."""

    __slots__ = _fields = ("a", "b", "kind")

    def __init__(self, a: Tuple, b: Tuple, kind: ScalarKind = RATIONAL):
        if len(a) != len(b):
            raise ValueError("coefficient lists must share one period")
        if len(a) < 5:
            raise ValueError("period must be at least 5")
        super().__init__(tuple(kind.coerce(v) for v in a), tuple(kind.coerce(v) for v in b), kind)

    @property
    def n(self) -> int:
        return len(self.a)

    def a_at(self, i: int):
        return self.a[i % self.n]

    def b_at(self, i: int):
        return self.b[i % self.n]


def _table(eq: SymmetricDiffEq) -> Tuple[Tuple, ...]:
    """Coefficient cycles (a, b, a shifted by one) of the order-3 recurrence."""
    return (eq.a, eq.b, eq.a[-1:] + eq.a[:-1])


def _coeff_table(coeffs, kind: ScalarKind) -> Tuple[Tuple, ...]:
    """Coerce a sequence of coefficient cycles into a rectangular table."""
    table = tuple(tuple(kind.coerce(v) for v in row) for row in coeffs)
    if not table:
        raise ValueError("need at least one coefficient cycle")
    n = len(table[0])
    if any(len(row) != n for row in table):
        raise ValueError("coefficient cycles must share one period")
    if n < len(table) + 2:
        raise ValueError(
            f"period {n} too short for {len(table)} coefficient cycles"
        )
    return table


def _recur(table: Sequence[Sequence], window: Sequence, first: int, count: int, tail=1) -> list:
    """Run the order-k recurrence of k coefficient cycles; the one loop
    in the package that runs a difference equation.

    V[j] = sum over s of (-1)^(s+1) table[s-1][j mod n] V[j-s], plus
    (-1)^k tail V[j-k-1].  `window` holds V[first-k-1] .. V[first-1]; returns
    V[first], ..., V[first+count-1].  The tail weight is 1, except on a
    rational table that `_Scaled` has scaled to integers: there each value
    W[t] = d^t V[t], t steps past a unit window's 1, is an integer (V[t]
    has degree at most t in the coefficients), cycle s carries d^s and
    the tail d^(k+1).
    """
    k, n = len(table), len(table[0])
    negate_tail = k % 2 == 1
    seq = list(window)
    for j in range(first, first + count):
        r = j % n
        acc = seq[-1] * table[0][r]
        for s in range(2, k + 1):
            term = seq[-s] * table[s - 1][r]
            acc = acc + term if s % 2 else acc - term
        back = seq[-k - 1] if tail == 1 else seq[-k - 1] * tail
        seq.append(acc - back if negate_tail else acc + back)
    return seq[k + 1 :]


class _Scaled:
    """A coefficient table as `_recur` runs it from a unit window, zeros
    capped by a single 1.

    A rational table runs on integers, by the degree argument in
    `_recur`: with d the lcm of its denominators, `cycles` holds cycle s
    times d^s and `tail` is d^(k+1).  `unit(t)` is d^t, the scaled 1, and
    `value(W, t)` builds V[t] once, as the canonical Fraction(W, d^t),
    where Fraction arithmetic would normalise after every step.  Any
    other table runs as it is, in its kind, with tail weight 1.  Gaussian
    tables stay there too: run in the one loop as Gaussian integers
    (triples with d = 1), they were slower than on reduced triples.
    """

    __slots__ = ("cycles", "tail", "zero", "_base", "_one")

    def __init__(self, table: Tuple[Tuple, ...], kind: ScalarKind):
        if isinstance(kind, RationalKind):
            d, ints = _lcm_scaled([v for cycle in table for v in cycle])
            # ints holds cycle s times d, so it takes d^(s-1) more
            n, more = len(table[0]), [d**t for t in range(len(table))]
            self.cycles = [[x * p for x in ints[t * n : t * n + n]] for t, p in enumerate(more)]
            self.tail, self.zero, self._base = d ** (len(table) + 1), 0, d
        else:
            self.cycles, self.tail, self.zero, self._base = table, 1, kind.zero(), None
            self._one = kind.one()

    def unit(self, t: int):
        return self._one if self._base is None else self._base**t

    def value(self, x, t: int):
        return x if self._base is None else Fraction(x, self._base**t)

    def from_unit(self, i: int, count: int) -> list:
        """The window's 1, at V[i-1], then V[i], ..., V[i+count-1]:
        entry t lies t steps past the 1, so `value(W, t)` reads it."""
        window = [self.zero] * len(self.cycles) + [self.unit(0)]
        return window[-1:] + _recur(self.cycles, window, i, count, self.tail)


def solve(eq: SymmetricDiffEq, init: Sequence, first: int, count: int) -> Tuple:
    """Run the recurrence; `init` holds V[first-4] .. V[first-1].

    Returns (V[first], ..., V[first+count-1]).  Linear in `init`.
    """
    if len(init) != 4:
        raise ValueError("exactly four initial values are required")
    return tuple(_recur(_table(eq), [eq.kind.coerce(v) for v in init], first, count))


def is_superperiodic(eq: SymmetricDiffEq) -> bool:
    """True iff every solution satisfies V[i+n] = -V[i], that is, iff the
    monodromy is minus the identity (by linearity)."""
    return monodromy(eq) == -Matrix.identity(eq.kind, 4)


def monodromy(eq: SymmetricDiffEq) -> Matrix:
    """Ordered product E_1 E_2 ... E_n, from one run per unit window;
    E_j takes a row window (V[j-4], ..., V[j-1]) to (V[j-3], ..., V[j]).

    Row t is e_t E_1 ... E_n: the window (V[n-3], ..., V[n]) reached
    from the t-th unit window (V[-3], ..., V[0]) after one period.
    Equals minus the identity exactly when the equation is
    superperiodic.
    """
    run, n = _Scaled(_table(eq), eq.kind), eq.n
    zero, one = run.zero, run.unit(0)
    rows = []
    for t in range(4):
        unit = [one if s == t else zero for s in range(4)]
        # the window's 1 sits at V[t-3], so V[n-3+m] lies n+m-t steps past it
        last = _recur(run.cycles, unit, 1, n, run.tail)[-4:]
        rows.append([run.value(v, n + m - t) for m, v in enumerate(last)])
    return Matrix._of(eq.kind, rows)


def dual_equation_coeffs(coeffs, kind: ScalarKind = RATIONAL) -> Tuple[Tuple, ...]:
    """Coefficient cycles of the recurrence satisfied by the projective dual.

    The dual swaps the coefficient order end for end and shifts each
    cycle: the s-th dual cycle at index i is the (k+1-s)-th original
    cycle at index i+k-s.
    """
    table = _coeff_table(coeffs, kind)
    k, n = len(table), len(table[0])
    return tuple(
        tuple(table[k - s][(i + k - s) % n] for i in range(n))
        for s in range(1, k + 1)
    )


def entry_det_band(coeffs, i: int, j: int, kind: ScalarKind = RATIONAL):
    """Entry d_{i,j} as a (j-i+1)-sized determinant in the coefficients.

    Row r carries a 1 below the diagonal, then the k cycles rightward
    from the diagonal, then a closing 1; cycle s sits in column c at
    subscript i+c.  Entries this far from the upper boundary need a
    determinant that grows with the offset.  Offset -1 gives the empty
    determinant 1; lower offsets raise ValueError.
    """
    return _band_det(_coeff_table(coeffs, kind), i, j, kind)


def _band_det(table: Sequence[Sequence], i: int, j: int, kind: ScalarKind):
    # entry_det_band on a table of values of `kind` that _coeff_table
    # accepts: the band of size j - i + 1, expanded along its last column,
    # is the run from the unit window at i
    size = j - i + 1
    if size < 0:
        raise ValueError(f"offset {j - i} below the band")
    run = _Scaled(table, kind)
    return run.value(run.from_unit(i, size)[-1], size)


def entry_det_complement(coeffs, i: int, j: int, kind: ScalarKind = RATIONAL):
    """Entry d_{i,j} as a (width - (j-i))-sized coefficient determinant.

    Complementary to entry_det_band: cheap near the lower boundary where
    the band form is large.  Projective duality (Morier-Genoud, Ovsienko,
    Schwartz and Tabachnikov) mirrors the frieze d onto the frieze d* of
    `dual_equation_coeffs`: d_{i,j} = d*_{j-w-k, i-k-1}, an entry at
    offset w - 1 - (j - i), which entry_det_band gives as a determinant
    of size w - (j - i).  Offsets outside [-1, w] raise ValueError.
    """
    dual = dual_equation_coeffs(coeffs, kind)
    k, n = len(dual), len(dual[0])
    w = n - k - 2
    t = j - i
    if not -1 <= t <= w:
        raise ValueError(f"offset {t} outside [-1, {w}]")
    return _band_det(dual, i - w + t - k, i - k - 1, kind)


def band_determinant(eq: SymmetricDiffEq, i: int, j: int):
    """Pentadiagonal band determinant of order j - i + 1.

    `entry_det_band` on the cycles (a, b, a shifted by one): row r
    carries 1 below the diagonal, then a[i+r], b[i+r+1], a[i+r+1], 1.
    For a superperiodic equation of width w = n - 5 this is the black
    frieze entry d[i, j] whenever 0 <= j - i < w, it is 1 at j - i = w,
    and it vanishes for the next three offsets.
    """
    return _band_det(_table(eq), i, j, eq.kind)


def white_band_determinant(eq: SymmetricDiffEq, i: int, j: int):
    """Symmetric band determinant of order j - i + 1 for white entries.

    Diagonal b[i], ..., b[j]; first off-diagonals a; second constant 1.
    Evaluates to the white frieze entry d[i-1/2, j-1/2] for interior
    offsets and to 1 on the boundary row.
    """
    k = eq.kind
    m = j - i + 1
    if m < 1:
        raise ValueError("band must have positive order")
    zero, one = k.zero(), k.one()
    rows = []
    for r in range(m):
        row = [zero] * m
        row[r] = eq.b_at(i + r)
        for c in (r - 1, r + 1):
            if 0 <= c < m:
                row[c] = eq.a_at(i + min(r, c))
        for c in (r - 2, r + 2):
            if 0 <= c < m:
                row[c] = one
        rows.append(row)
    return det(Matrix._of(k, rows))


def variety_residuals(a: Sequence, b: Sequence, kind: ScalarKind = RATIONAL) -> Tuple:
    """The ten closure expressions that cut out superperiodicity.

    All ten vanish exactly when the coefficients are superperiodic:
    the band determinant of full interior order must equal a[n] (= a[0]
    by periodicity), the two next bands must equal one, and the
    remaining seven must vanish.
    """
    eq = SymmetricDiffEq(tuple(a), tuple(b), kind)
    n = eq.n
    if n < 6:
        raise ValueError("the system needs period at least 6")
    one = kind.one()
    out = [band_determinant(eq, 3, n - 3) - eq.a_at(n)]
    for t in range(2):
        out.append(band_determinant(eq, 2 + t, n - 3 + t) - one)
    for t in range(3):
        out.append(band_determinant(eq, 1 + t, n - 3 + t))
    for t in range(4):
        out.append(band_determinant(eq, t, n - 3 + t))
    return tuple(out)
