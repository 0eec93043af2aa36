"""Polygon lifts of friezes and the symplectic pairings between them.

A width-w frieze of period n encodes an n-periodic sequence of vectors
in 4-space, antiperiodic across one period, normalized against a skew
form whose parameter is read off the frieze itself.  Entries of the
frieze are recovered as pairings (or 4x4 determinants) of vertices, and
4x4 windows of the frieze intertwine the two form variants.  The form is
written once, as the table of its six nonzero entries, and `_pair` is
the one way to pair two vectors in a kind's arithmetic: the block check
sums over the table too.  Rational polygon pairings sum over the same
table on ints scaled by `_lcm_scaled`.  The recurrence coefficients are
Cramer quotients of `det`.
"""

import cmath
from fractions import Fraction
from itertools import combinations
from typing import Sequence, Tuple

from .scalars import COMPLEX, RATIONAL, ComplexFloatKind, RationalKind, ScalarKind, _Frozen, _lcm_scaled
from .linalg import Matrix, det
from .frieze import FriezeError, FriezeGrid, SLFrieze

__all__ = [
    "NormalizationViolated",
    "EvenPeriod",
    "DegenerateGamma",
    "SingularFrame",
    "SymplecticForm",
    "omega",
    "Polygon",
    "polygon_from_frieze",
    "frieze_from_polygon",
    "frieze_entries_by_4x4",
    "block_symplectic_check",
    "normalize_lift",
    "coeffs_from_polygon",
]


class NormalizationViolated(FriezeError):
    """Vertices `index` and `index + step` fail the normalization: their
    pairing is not 0 (step 1) or not 1 (step 2)."""

    def __init__(self, index: int, step: int):
        self.index, self.step = index, step
        want = "zero" if step == 1 else "one"
        super().__init__(f"vertices {index} and {index + step} are not paired to {want}")


class EvenPeriod(FriezeError):
    """Normalization is only determined for an odd number of vertices."""


class DegenerateGamma(FriezeError):
    """A second-neighbor pairing vanished, so no rescaling exists."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"second-neighbor pairing at {index} is too close to zero")


class SingularFrame(FriezeError):
    """Four consecutive vertices are linearly dependent."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"frame ending at vertex {index} is singular")


class SymplecticForm(_Frozen):
    """A skew pairing on 4-space with one scalar parameter.

    variant "standard" and variant "dual" are negative inverses of one
    another; both have determinant 1.
    """

    __slots__ = ("a", "variant", "kind", "_entries")
    _fields = ("a", "variant", "kind")

    def __init__(self, a: object, variant: str = "standard", kind: ScalarKind = RATIONAL):
        if variant not in ("standard", "dual"):
            raise ValueError(f"unknown form variant {variant!r}")
        a, one = kind.coerce(a), kind.one()
        # the nonzero entries (r, c, F[r][c]) of the form matrix F, row-major
        if variant == "standard":
            entries = ((0, 2, one), (0, 3, a), (1, 3, one), (2, 0, -one), (3, 0, -a), (3, 1, -one))
        else:
            entries = ((0, 2, one), (1, 2, -a), (1, 3, one), (2, 0, -one), (2, 1, a), (3, 1, -one))
        super().__init__(a, variant, kind)
        object.__setattr__(self, "_entries", entries)  # not a field: no repr or compare


def _pair(form: SymplecticForm, u: Sequence, v: Sequence):
    """u^t F v for 4-vectors already in the form's kind."""
    acc = form.kind.zero()
    for r, c, f in form._entries:
        acc = acc + u[r] * f * v[c]
    return acc


def omega(form: SymplecticForm, u: Sequence, v: Sequence):
    """The pairing u^t F v."""
    if len(u) != 4 or len(v) != 4:
        raise ValueError("pairing needs 4-vectors")
    coerce = form.kind.coerce
    return _pair(form, [coerce(x) for x in u], [coerce(x) for x in v])


class Polygon(_Frozen):
    """An antiperiodic vertex sequence in 4-space with its pairing form.

    `vertices` holds one period starting at absolute index `base`; the
    vertex at base + period is the negation of the one at base, and so
    on around.
    """

    __slots__ = _fields = ("period", "base", "vertices", "form")

    def __init__(self, period: int, base: int, vertices: Tuple[Tuple, ...], form: SymplecticForm):
        if period < 5:
            raise ValueError(f"period must be at least 5, got {period}")
        if len(vertices) != period:
            raise ValueError(f"need {period} vertices, got {len(vertices)}")
        kind = form.kind
        coerced = tuple(tuple(kind.coerce(x) for x in v) for v in vertices)
        if any(len(v) != 4 for v in coerced):
            raise ValueError("vertices must be 4-vectors")
        super().__init__(period, base, coerced, form)

    @property
    def width(self) -> int:
        return self.period - 5

    def vertex(self, j: int) -> Tuple:
        """Vertex at absolute index j, negated once per period step."""
        steps, r = divmod(j - self.base, self.period)
        v = self.vertices[r]
        if steps % 2:
            return tuple(-x for x in v)
        return v


def polygon_from_frieze(g: FriezeGrid, i0: int) -> Polygon:
    """Slice the 4-row window of integer entries starting at row i0.

    Vertex j is the column (d_{i0,j}, ..., d_{i0+3,j}) for j running
    from i0-1 over one period; the attached pairing is the dual-variant
    form with the frieze's own parameter at i0.
    """
    n = g.period
    vertices = tuple(
        tuple(g.black(i0 + r, j) for r in range(4))
        for j in range(i0 - 1, i0 - 1 + n)
    )
    form = SymplecticForm(g.black(i0, i0), "dual", g.kind)
    return Polygon(n, i0 - 1, vertices, form)


def _pairings(form: SymplecticForm, vertices: Sequence[Sequence], reach: int) -> list:
    """Row t holds omega(V_t, V_{t+k}), k = 1..reach, for one period
    V_0..V_{n-1} of an antiperiodic vertex sequence, V_{t+n} = -V_t,
    whose entries are already in the form's kind.

    A rational form pairs on ints: vertex t is scaled once by D_t, the
    lcm of its denominators, and the form's entries by den(a), through
    `_lcm_scaled`.  Each value is then built once, as the canonical
    Fraction(acc, D_t * D_s * den(a)) of the int sum acc, negated when
    s = t + k lies an odd number of periods on.  Other kinds sum `_pair`
    in the kind."""
    if not isinstance(form.kind, RationalKind):
        lift = list(vertices) + [tuple(-x for x in v) for v in vertices]
        return [
            [_pair(form, u, lift[(t + k) % len(lift)]) for k in range(1, reach + 1)]
            for t, u in enumerate(vertices)
        ]
    den, ints = _lcm_scaled([f for _, _, f in form._entries])
    terms = [(r, c, x) for (r, c, _), x in zip(form._entries, ints)]
    scaled = [_lcm_scaled(v) for v in vertices]
    n, rows = len(vertices), []
    for t, (dt, u) in enumerate(scaled):
        row = []
        for s in range(t + 1, t + reach + 1):
            ds, v = scaled[s % n]
            acc = sum([u[r] * x * v[c] for r, c, x in terms])
            row.append(Fraction(-acc if s // n % 2 else acc, dt * ds * den))
        rows.append(row)
    return rows


def frieze_from_polygon(p: Polygon) -> FriezeGrid:
    """Rebuild the frieze whose integer entries pair third neighbors.

    Black entries are d_{i,j} = omega(V_{i-3}, V_j); half-integer
    entries are the adjacent 2x2 minors of those.  The polygon must be
    normalized: consecutive pairings zero, second-neighbor pairings one.
    Each pairing is computed once, and k = 2..w+3 fill rows -1..w.
    """
    kind, w, n = p.form.kind, p.width, p.period
    pairs = _pairings(p.form, p.vertices, w + 3)
    for t, row in enumerate(pairs, p.base):
        if not kind.is_zero(row[0]):
            raise NormalizationViolated(t, 1)
        if not kind.eq(row[1], kind.one()):
            raise NormalizationViolated(t, 2)
    band = {((t + 3) % n, k - 3): row[k - 1]
            for t, row in enumerate(pairs, p.base) for k in range(2, w + 4)}
    return FriezeGrid.from_blacks(kind, w, SLFrieze._of(kind, 3, w, band).get)


def _column_matrix(kind: ScalarKind, cols: Sequence[Sequence]) -> Matrix:
    return Matrix._of(kind, [[col[r] for col in cols] for r in range(4)])


def frieze_entries_by_4x4(p: Polygon, i: int, j: int) -> Tuple:
    """Both entries at (i, j) as 4x4 vertex determinants.

    The integer entry uses three consecutive vertices against V_j; the
    half-integer entry replaces the third with V_{j-1}.
    """
    kind = p.form.kind
    black = det(
        _column_matrix(
            kind, [p.vertex(i - 4), p.vertex(i - 3), p.vertex(i - 2), p.vertex(j)]
        )
    )
    white = det(
        _column_matrix(
            kind, [p.vertex(i - 4), p.vertex(i - 3), p.vertex(j - 1), p.vertex(j)]
        )
    )
    return black, white


def _gram(form: SymplecticForm, vectors: Sequence[Sequence]) -> list:
    """The pairings (u, v) of `vectors` taken two at a time in order:
    (u0, u1), (u0, u2), ..., (u2, u3).  The form is skew, so these
    decide every other pairing."""
    return [_pair(form, u, v) for u, v in combinations(vectors, 2)]


def block_symplectic_check(g: FriezeGrid) -> bool:
    """Whether every 4x4 window of g intertwines the two form variants.

    The window D of rows i..i+3 and columns j-3..j must satisfy
    D^t dual(a_i) D = standard(a_j): entry (r, c) is the dual pairing of
    columns r and c of D, and entry (r, c) of a form matrix pairs the
    unit vectors e_r and e_c.  Both sides are skew, so the six entries
    with r < c decide.  The diagonal window at (i, i) must equal the
    standard form matrix itself: its six entries above the diagonal, the
    negated six below it, and zeros on it.
    """
    n, kind = g.period, g.kind
    one, zero = kind.one(), kind.zero()
    units = [[one if r == c else zero for c in range(4)] for r in range(4)]
    a = [g.black(i, i) for i in range(n)]
    standard = [_gram(SymplecticForm(x, "standard", kind), units) for x in a]
    pairs = list(combinations(range(4), 2))
    for i in range(n):
        d = [[g.black(i + r, c) for c in range(i - 3, i + 1)] for r in range(4)]
        skew = [d[r][c] for r, c in pairs] + [-d[c][r] for r, c in pairs]
        if not all(map(kind.eq, skew, standard[i] * 2)) or not all(
            kind.is_zero(d[r][r]) for r in range(4)
        ):
            return False
        dual = SymplecticForm(a[i], "dual", kind)
        for j in range(i, i + n + 1):
            cols = [[g.black(i + r, c) for r in range(4)] for c in range(j - 3, j + 1)]
            if not all(map(kind.eq, _gram(dual, cols), standard[j % n])):
                return False
    return True


def normalize_lift(
    raw: Sequence[Sequence],
    form: SymplecticForm,
    tolerance: float = COMPLEX.tolerance,
    base: int = 1,
) -> Polygon:
    """Rescale a vertex sequence so second-neighbor pairings are all one.

    Works over complex floats: the closing condition fixes the square of
    the leading scale, so a square root is unavoidable.  The period must
    be odd for the rescaling to be determined (up to one global sign,
    resolved by the principal square root); even periods raise
    EvenPeriod.  Exact vertices are read as complex floats.  The first
    nonzero first-neighbor pairing raises NormalizationViolated before
    any vanishing second-neighbor pairing raises DegenerateGamma.  A
    tolerance that `ComplexFloatKind` rejects raises its ValueError first.
    """
    kind = ComplexFloatKind(tolerance)
    n = len(raw)
    if n % 2 == 0:
        raise EvenPeriod(f"period {n} is even")
    cform = SymplecticForm(form.a, form.variant, kind)
    vs = [tuple(kind.coerce(x) for x in v) for v in raw]
    orths, gammas = zip(*_pairings(cform, vs, 2))
    for t, orth in enumerate(orths):
        if not kind.is_zero(orth):
            raise NormalizationViolated(t, 1)
    for t, gamma in enumerate(gammas):
        if kind.is_zero(gamma):
            raise DegenerateGamma(t)
    # walk t -> t+2 covers every index once; lam_t = A_t * lam_0^(e_t)
    coeff = {0: 1.0 + 0j}
    expo = {0: 1}
    t = 0
    for _ in range(n - 1):
        nxt = (t + 2) % n
        coeff[nxt] = 1.0 / (gammas[t] * coeff[t])
        expo[nxt] = -expo[t]
        t = nxt
    # closing equation: lam_t * lam_0 * gamma_t = 1 with expo[t] == 1
    closing = 1.0 / (gammas[t] * coeff[t])
    lam0 = cmath.sqrt(closing)
    lams = [coeff[s] * (lam0 if expo[s] > 0 else 1.0 / lam0) for s in range(n)]
    scaled = tuple(
        tuple(lams[s] * x for x in vs[s]) for s in range(n)
    )
    return Polygon(n, base, scaled, cform)


def coeffs_from_polygon(p: Polygon) -> Tuple[Tuple, Tuple]:
    """Read the frieze coefficient cycles off the vertex recurrence.

    Each vertex is a combination of the previous four; the first two
    combination weights are the coefficient cycles (the second one
    negated: its Cramer numerator swaps two frame columns), read by
    Cramer's rule in three determinants.  A dependent frame raises
    SingularFrame.
    """
    kind = p.form.kind
    a, b = [], []
    for i in range(p.period):
        v, frame = p.vertex(i), [p.vertex(i - k) for k in range(1, 5)]
        d = det(_column_matrix(kind, frame))
        if kind.is_zero(d):
            raise SingularFrame(i)
        a.append(det(_column_matrix(kind, [v] + frame[1:])) / d)
        b.append(det(_column_matrix(kind, [v] + frame[:1] + frame[2:])) / d)
    return tuple(a), tuple(b)
