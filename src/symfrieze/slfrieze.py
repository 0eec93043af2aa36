"""Tame SL-frieze patterns of arbitrary order.

An order-k frieze is a single-valued array whose adjacent (k+1)x(k+1)
minors are all 1 and whose adjacent (k+2)x(k+2) minors all vanish.  The
order-3 case is exactly the black subarray of a symplectic 2-frieze, and
the two duality maps below (projective and Gale) act on the general case.
`SLFrieze` and `from_equation` are defined in `frieze`, which stores each
colour of a symplectic grid as an order-3 band, and the coefficient
formulas in `diffeq` with the tables; import them from there.
`coeffs_of` reads the coefficients back off runs of the recurrence
(`diffeq._Scaled.from_unit`): by Gale duality the rows next to the lower
boundary serve as coefficient cycles.  The maps build their results
through the private `SLFrieze._of`.
"""

from functools import cache
from typing import Tuple

from .diffeq import _Scaled
# bound here for the benchmark tracer, which expects slfrieze to bind it
from .linalg import det  # noqa: F401
from .frieze import (
    FriezeError,
    FriezeGrid,
    MinorWindow,
    SLFrieze,
    TameResult,
    _rebuilds,
    _store,
    adjacent_minors,
    check_minors,
)

__all__ = [
    "MinorCondition",
    "WidthParity",
    "coeffs_of",
    "black_of",
    "symplectic_of",
    "projective_dual",
    "gale_dual",
    "check_middle_symmetry",
    "check_unimodular",
]


class MinorCondition(FriezeError):
    """An adjacent minor failed the condition required of the array."""

    def __init__(self, window: MinorWindow):
        self.window = window
        super().__init__(
            f"{window.size}x{window.size} minor at ({window.i}, {window.j}) "
            f"is {window.value}, expected {window.expected}"
        )


class WidthParity(FriezeError):
    """The width has the wrong parity for the requested check."""


def coeffs_of(f: SLFrieze) -> Tuple[Tuple, ...]:
    """Recover the recurrence coefficient cycles from the frieze entries.

    Gale duality (Morier-Genoud, Ovsienko, Schwartz and Tabachnikov):
    cycle s (from 0) at subscript x is the (k-s)-sized `entry_det_band`
    determinant over the k rows of f read up from the lower boundary,
    offsets w-1 down to w-k, so value k-s of one run of length k from
    the unit window at x+2; when k > w the rows run on through the upper
    boundary row and the guard zeros beyond it.
    """
    k, w = f.order, f.width
    run = _Scaled([f.row_cycle(w - 1 - s) for s in range(k)], f.kind)
    cols = [run.from_unit(x + 2, k) for x in range(f.period)]
    return tuple(tuple(run.value(col[k - s], k - s) for col in cols) for s in range(k))


def black_of(g: FriezeGrid) -> SLFrieze:
    """The order-3 frieze formed by the integer-indexed entries of g.

    This is the grid's own black band, returned as is: an SLFrieze is
    never changed in place.
    """
    return g._bands[0]


def symplectic_of(f: SLFrieze) -> FriezeGrid:
    """Rebuild the symplectic 2-frieze whose black part is f.

    Requires order 3 and checks that every adjacent 3x3 minor equals its
    central entry (MinorCondition otherwise); the half-integer entries
    are then the adjacent 2x2 minors.

    For an exact kind the recurrence decides first: when the grid g
    built from f equals the grid grown from its own coefficients, g is
    tame by the argument in `check_tame`, so its black part passes the
    3x3 test.  That black part is f when f's boundary rows are ones.
    This is checked separately, because zeros next to the boundary hide
    those rows from the white cells of g.  Otherwise the minor scan
    decides and locates the failing window.
    """
    if f.order != 3:
        raise FriezeError(f"symplectic conversion needs order 3, got {f.order}")
    g = FriezeGrid.from_blacks(f.kind, f.width, f.get)
    if black_of(g) == f and _rebuilds(g):
        return g
    found = check_minors(
        f.kind, f.get, f.period,
        ((3, range(-5, f.period - 5), lambda i, j: f.get(i + 1, j + 1)),),
    )
    if not found.ok:
        raise MinorCondition(found.window)
    return g


def projective_dual(f: SLFrieze) -> SLFrieze:
    """The frieze of adjacent order-sized minors of f.

    The dual entry at (i, j) is the k x k determinant anchored there.
    Composing the map with itself translates the array by one less than
    the order; order 1 gives it back on the nose.  Each cell of f is read
    once, however many windows share it.
    """
    cells = {
        (i, j - i): value
        for i, j, value in adjacent_minors(
            f.kind, cache(f.get), f.order, f.period, range(-1, f.width + 1)
        )
    }
    return SLFrieze._of(f.kind, f.order, f.width, cells)


def gale_dual(f: SLFrieze) -> SLFrieze:
    """The width/order-swapped frieze built from f's recurrence coefficients.

    Row o of the output holds the (o+1)-th coefficient cycle, staggered
    so that each diagonal reads the cycles in increasing order; the
    result is an order-width frieze of width equal to f's order, with
    the same period.
    """
    if f.width < 1:
        raise ValueError("gale dual needs width at least 1")
    table = coeffs_of(f)
    k, n = f.order, f.period
    one = f.kind.one()
    cells = _store(n, k, lambda i, j: table[j - i][j % n] if 0 <= j - i < k else one)
    return SLFrieze._of(f.kind, f.width, k, cells)


def check_middle_symmetry(f: SLFrieze) -> bool:
    """Whether f is symmetric about its middle row.

    Only friezes of odd width have one; even width raises WidthParity.
    The reflection pairs the row at offset o with the row at w-1-o,
    aligned by the transposition (i, j) -> (j-h, i+h) for h = (w-1)/2.
    """
    if f.width % 2 == 0:
        raise WidthParity(f"width {f.width} has no middle row")
    h = (f.width - 1) // 2
    kind = f.kind
    return all(
        kind.eq(v, f.get(i + o - h, i + h)) for (i, o), v in f.cells()
    )


def check_unimodular(f: SLFrieze) -> TameResult:
    """Verify the determinant conditions defining an order-k frieze.

    Every adjacent (k+1)x(k+1) minor must be 1 and every (k+2)x(k+2)
    minor must vanish, windows across the guard seams included.
    """
    k, n = f.order, f.period
    one, zero = f.kind.one(), f.kind.zero()
    return check_minors(f.kind, f.get, n, (
        (k + 1, range(-k - 2, n - k - 2), lambda i, j: one),
        (k + 2, range(-k - 3, n - k - 3), lambda i, j: zero),
    ))
