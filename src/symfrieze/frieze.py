"""Symplectic 2-friezes on a doubled integer lattice.

A frieze of width w repeats with period n = w + 5 along its diagonals.
Entries sit at points (I, J) with I and J of equal parity.  Even pairs
are black cells d[i, j] (I = 2i, J = 2j); odd pairs are white cells
d[i+1/2, j+1/2].  Rows are indexed by the offset o = (J - I) / 2: the
interior rows are 0 <= o < w, framed by boundary rows of ones at o = -1
and o = w, with three implicit rows of zeros beyond each boundary.  The
display column of a cell is x = (I + J) / 2.

With A, B the west and east neighbours of a cell v, and C, D its
neighbours in the rows above and below (A = (I-1, J-1), B = (I+1, J+1),
C = (I+1, J-1), D = (I-1, J+1)), the local rules read

    white cells:  v   = A*B - C*D
    black cells:  v*v = A*B - C*D

Black cells are antiperiodic, d[i, j+n] = -d[i, j]; white cells, the
2x2 minors of four black cells that flip together, are periodic.  Both
repeat with length 2n in the display direction.  The black entries form
a tame order-3 SL-frieze and so do the white ones, so a grid is stored
as two `SLFrieze` bands; the SL-frieze class and its propagation
(`from_equation`, which reads each diagonal off a `diffeq._Scaled` run
of a table checked by `diffeq._coeff_table`) live here for that reason, and
`slfrieze` holds the maps and checks on SL-friezes.  `SLFrieze(...)`,
`from_cells` and `with_entry` coerce a caller's values; bands the
package computes go through the private `SLFrieze._of`, and into the
`FriezeGrid` constructor, which only this module calls: the grid maps
write the two band stores (`_store`, `FriezeGrid._remap`), and the
symmetry tests and the local-rule scan of a rational grid read them.
"""

import operator
from functools import cache
from itertools import product
from typing import Iterator, Optional, Sequence, Tuple

from .diffeq import SymmetricDiffEq, _Scaled, _coeff_table, _table
from .linalg import Matrix, det
from .scalars import RATIONAL, RationalKind, ScalarKind, _Frozen, _lcm_scaled


class FriezeError(ValueError):
    """Base class for structural failures of frieze operations."""


class NotSuperperiodic(FriezeError):
    """Coefficient propagation failed to close on some diagonal.

    `index` is the first diagonal whose closure entries are wrong.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"diagonal {index} does not close up")


class ZeroPivot(FriezeError):
    """Propagation would divide by a zero cell.  `index` locates it."""

    def __init__(self, index: "GridIndex"):
        self.index = index
        super().__init__(f"zero divisor at {index}")


class NotClosed(FriezeError):
    """Column propagation did not return to its start after 2n steps."""


class Underdetermined(FriezeError):
    """Not enough trailing entries to force the next value."""


class GridIndex(_Frozen):
    """A lattice point in doubled coordinates.

    Black cells have I, J both even and stand for d[I/2, J/2]; white
    cells have both odd and stand for d[(I-1)/2 + 1/2, (J-1)/2 + 1/2].
    """

    __slots__ = _fields = ("I", "J")

    def __init__(self, I: int, J: int):
        if (I - J) % 2 != 0:
            raise ValueError(f"mixed parity index ({I}, {J})")
        super().__init__(I, J)

    @property
    def x(self) -> int:
        return (self.I + self.J) // 2

    @property
    def offset(self) -> int:
        return (self.J - self.I) // 2

    @property
    def is_black(self) -> bool:
        return self.I % 2 == 0

    def __str__(self) -> str:
        if self.is_black:
            return f"d[{self.I // 2},{self.J // 2}]"
        return f"d[{self.I // 2}+1/2,{self.J // 2}+1/2]"


class MinorWindow(_Frozen):
    """One adjacent minor of the black subgrid, with its test value."""

    __slots__ = _fields = ("size", "i", "j", "value", "expected")

    def __init__(self, size: int, i: int, j: int, value: object, expected: object):
        super().__init__(size, i, j, value, expected)


class TameResult(_Frozen):
    __slots__ = _fields = ("ok", "window")

    def __init__(self, ok: bool, window: Optional[MinorWindow] = None):
        super().__init__(ok, window)

    def __bool__(self) -> bool:
        return self.ok


def adjacent_minors(
    kind: ScalarKind, get, size: int, period: int, offsets
) -> Iterator[Tuple[int, int, object]]:
    """Yield (i, j, det) for the size x size windows of `get` (values of
    `kind`) at (i, i + o), i over one period and o over `offsets` in order."""
    for i in range(period):
        for o in offsets:
            j = i + o
            rows = [[get(i + r, j + c) for c in range(size)] for r in range(size)]
            yield i, j, det(Matrix._of(kind, rows))


def check_minors(kind: ScalarKind, get, period: int, conditions) -> TameResult:
    """Scan `conditions`, a sequence of (size, offsets, expected), in order.

    The first window whose minor differs from expected(i, j) is reported.
    Each cell is read from `get` once per scan, however many windows share it.
    """
    read = cache(get)
    for size, offsets, expected in conditions:
        for i, j, value in adjacent_minors(kind, read, size, period, offsets):
            want = expected(i, j)
            if not kind.eq(value, want):
                return TameResult(False, MinorWindow(size, i, j, value, want))
    return TameResult(True, None)


class ZigZag(_Frozen):
    """A double zig-zag: one white and one black cell per interior row.

    `entries` lists (position, value) pairs row by row from o = 0 to
    o = w - 1, west cell before east cell.  The two cells of a row sit
    in adjacent columns and consecutive rows overlap in at least one
    column, which is exactly the six local configurations.
    """

    __slots__ = _fields = ("width", "entries")

    def __init__(self, width: int, entries: Tuple[Tuple[GridIndex, object], ...]):
        w = width
        if w < 1:
            raise ValueError("zig-zag needs width >= 1")
        if len(entries) != 2 * w:
            raise ValueError(f"expected {2 * w} cells, got {len(entries)}")
        for o in range(w):
            west, east = entries[2 * o][0], entries[2 * o + 1][0]
            if west.offset != o or east.offset != o:
                raise ValueError(f"row {o} cells carry wrong offsets")
            if east.x != west.x + 1:
                raise ValueError(f"row {o} cells are not adjacent")
            if o and abs(west.x - entries[2 * (o - 1)][0].x) > 1:
                raise ValueError(f"rows {o - 1} and {o} are not linked")
        super().__init__(width, entries)

    @classmethod
    def straight(cls, values: Sequence, width: int) -> "ZigZag":
        """Two-column shape at columns (1, 2), white cell west on even rows.

        `values` come in cluster order: the w white values first, then
        the w black values, each list read from row 0 downwards.
        """
        vals = list(values)
        if width < 1:
            raise ValueError("zig-zag needs width >= 1")
        if len(vals) != 2 * width:
            raise ValueError(f"expected {2 * width} values, got {len(vals)}")
        whites, blacks = vals[:width], vals[width:]
        entries = []
        for o in range(width):
            pair = (whites[o], blacks[o]) if o % 2 == 0 else (blacks[o], whites[o])
            entries += [(GridIndex(x - o, x + o), v) for x, v in zip((1, 2), pair)]
        return cls(width, tuple(entries))

    @property
    def shape(self) -> Tuple[int, ...]:
        """West column of each row, top to bottom."""
        return tuple(self.entries[2 * o][0].x for o in range(self.width))


def _store(period: int, width: int, read) -> dict:
    """Band store {(i, j - i): read(i, j)}: i in [0, period), offsets -1..width."""
    return {(i, o): read(i, i + o) for i in range(period) for o in range(-1, width + 1)}


class SLFrieze:
    """One superperiodic SL-frieze over a fundamental domain.

    `order` is k for an SL_{k+1}-frieze: diagonals satisfy a linear
    recurrence of length k+2 whose solutions repeat with period n and a
    sign of (-1)^k, where n = width + order + 2.  Entries are stored for
    first index in [0, n) and offsets j - i in [-1, width]; everything
    else is a guard zero or a signed translate (unsigned in a grid's
    white band, whose `_flips` is off).
    """

    __slots__ = ("kind", "order", "width", "period", "_cells", "_zero", "_flips")

    def __init__(self, kind: ScalarKind, order: int, width: int, cells: dict):
        if order < 1:
            raise ValueError(f"order must be at least 1, got {order}")
        if width < 0:
            raise ValueError(f"width must be nonnegative, got {width}")
        n = width + order + 2
        given = dict(cells)
        store, coerce = {}, kind.coerce
        for (i, o), v in given.items():
            if not -1 <= o <= width:
                raise ValueError(f"row offset {o} outside [-1, {width}]")
            store[(i % n, o)] = coerce(v)
        if len(store) < len(given):
            keys = [(i % n, o) for i, o in given]
            i, o = next(k for t, k in enumerate(keys) if k in keys[:t])
            raise ValueError(f"cell ({i}, offset {o}) given twice")
        # every key lies in the domain, so a short count means a gap
        if len(store) != n * (width + 2):
            i, o = next(
                (i, o) for o in range(-1, width + 1) for i in range(n) if (i, o) not in store
            )
            raise ValueError(f"cell ({i}, offset {o}) missing")
        self.kind, self.order, self.width, self.period = kind, order, width, n
        self._cells, self._zero, self._flips = store, kind.zero(), order % 2 == 1

    @classmethod
    def _of(cls, kind: ScalarKind, order: int, width: int, store: dict) -> "SLFrieze":
        # store, owned by the result: values of `kind` at every (i mod n, o)
        f = object.__new__(cls)
        f.kind, f.order, f.width, f.period = kind, order, width, width + order + 2
        f._cells, f._zero, f._flips = store, kind.zero(), order % 2 == 1
        return f

    def get(self, i: int, j: int):
        """Entry d_{i,j}, reduced into the stored band with its sign."""
        o = j - i
        if -1 <= o <= self.width:
            return self._cells[(i % self.period, o)]
        key, flip = self._fold(i, o)
        if key is None:
            return self._zero
        return -self._cells[key] if flip else self._cells[key]

    def _fold(self, i: int, o: int):
        """Stored key of the cell (i, i + o) and whether its sign flips.

        The offset moves by multiples of the period, each step flipping
        the sign when `_flips` is set; the key is None on a guard row.
        """
        n = self.period
        steps = (o + self.order + 1) // n
        op = o - steps * n
        key = None if op <= -2 else (i % n, op)
        return key, self._flips and steps % 2 == 1

    def row_cycle(self, o: int) -> Tuple:
        """One period of the row at offset o, by first index."""
        return tuple(self.get(i, i + o) for i in range(self.period))

    def cells(self) -> Iterator[Tuple[Tuple[int, int], object]]:
        """All cells of the fundamental domain, row by row."""
        for o in range(-1, self.width + 1):
            for i in range(self.period):
                yield (i, o), self.get(i, i + o)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SLFrieze):
            return NotImplemented
        if (self.kind, self.order, self.width) != (other.kind, other.order, other.width):
            return False
        # both stores hold the whole domain, so they share their keys
        eq, theirs = self.kind.eq, other._cells
        return all(eq(v, theirs[key]) for key, v in self._cells.items())

    def __repr__(self) -> str:
        return (
            f"SLFrieze(order={self.order}, width={self.width}, "
            f"period={self.period}, scalar={self.kind.name})"
        )


def from_equation(coeffs, kind: ScalarKind = RATIONAL) -> SLFrieze:
    """Propagate an SL-frieze from the coefficient cycles of its recurrence.

    `coeffs[s-1]` holds the weight of the s-th back term; signs alternate
    starting positive, and the trailing term of the recurrence carries
    (-1)^order.  Each diagonal starts from a window of zeros capped by a
    single 1 and must close up the same way, else NotSuperperiodic.
    """
    table = _coeff_table(coeffs, kind)
    k, n = len(table), len(table[0])
    w = n - k - 2
    run, cells = _Scaled(table, kind), {}
    top = run.unit(w + 1)
    for i in range(n):
        # entry t of the diagonal sits in row t - 1
        diagonal = run.from_unit(i, w + k + 1)
        if not kind.eq(diagonal[w + 1], top) or not all(map(kind.is_zero, diagonal[w + 2 :])):
            raise NotSuperperiodic(i)
        for t in range(w + 2):
            cells[(i, t - 1)] = run.value(diagonal[t], t)
    return SLFrieze._of(kind, k, w, cells)


class FriezeGrid:
    """One superperiodic frieze, held as two order-3 SL-frieze bands.

    The black cells d[i, j] form one band and the white cells
    d[i+1/2, j+1/2] the other, both indexed by (i, j).  Each band has
    period n = w + 5, rows at offsets -1..w and three guard rows of
    zeros.  The black band flips sign once per period, the white band,
    of 2x2 minors of blacks, does not.  `get` reads the band of the
    cell's colour and leaves the reduction to `SLFrieze.get`.  Only code
    in this module calls the constructor, with two band stores of values
    already in the kind; stores are never changed once handed over.
    """

    __slots__ = ("kind", "width", "period", "_bands")

    def __init__(self, kind: ScalarKind, width: int, black: dict, white: dict):
        self.kind, self.width, self.period = kind, width, width + 5
        white_band = SLFrieze._of(kind, 3, width, white)
        white_band._flips = False
        self._bands = (SLFrieze._of(kind, 3, width, black), white_band)

    @classmethod
    def from_cells(cls, kind: ScalarKind, width: int, cells) -> "FriezeGrid":
        """Build a grid from display-coordinate cells {(x, o): value}.

        All interior rows 0 <= o < width must be present with 2(w + 5)
        consecutive columns each; boundary rows o = -1 and o = w may be
        given (taken verbatim) or omitted (filled with ones).
        """
        if width < 0:
            raise ValueError(f"width must be nonnegative, got {width}")
        n = width + 5
        rows = {}
        bands = ({}, {})
        for (x, o), v in dict(cells).items():
            if not -1 <= o <= width:
                raise ValueError(f"row offset {o} outside [-1, {width}]")
            rows.setdefault(o, []).append(x)
            I = x - o
            bands[I % 2][(I // 2 % n, o)] = kind.coerce(v)
        for o in range(width):
            if o not in rows:
                raise ValueError(f"interior row {o} missing")
        one = kind.one()
        for o in (-1, width):
            if o not in rows:
                rows[o] = range(2 * n)
                for i in range(n):
                    bands[0][(i, o)] = bands[1][(i, o)] = one
        for o, xs in rows.items():
            if len(xs) != 2 * n or max(xs) - min(xs) != 2 * n - 1:
                raise ValueError(
                    f"row {o} needs {2 * n} consecutive columns, got {len(xs)}"
                )
        # 2n distinct consecutive columns per row give each band key once
        return cls(kind, width, *bands)

    @classmethod
    def from_blacks(cls, kind: ScalarKind, width: int, blk) -> "FriezeGrid":
        """Build a grid from its black entries, blk(i, j) = d[i, j].

        `blk` returns values of `kind`.  Each white cell is the adjacent
        2x2 minor of the black cells around it.
        """
        one = kind.one()
        black, white = {}, {}
        for i in range(width + 5):
            for o in (-1, width):
                black[(i, o)] = white[(i, o)] = one
            for o in range(width):
                j = i + o
                black[(i, o)] = blk(i, j)
                white[(i, o)] = blk(i, j) * blk(i + 1, j + 1) - blk(i + 1, j) * blk(i, j + 1)
        return cls(kind, width, black, white)

    def _remap(self, to) -> "FriezeGrid":
        """The grid whose entry at (I, J) is this one's at to(I, J), colours kept."""
        get, n, w = self.get, self.period, self.width
        black = _store(n, w, lambda i, j: get(*to(2 * i, 2 * j)))
        white = _store(n, w, lambda i, j: get(*to(2 * i + 1, 2 * j + 1)))
        return FriezeGrid(self.kind, w, black, white)

    def _fixed_by(self, to) -> bool:
        """Whether each stored entry equals the one at to(I, J); stops at a miss."""
        get, eq = self.get, self.kind.eq
        return all(
            eq(v, get(*to(2 * i + c, 2 * (i + o) + c)))
            for c, band in enumerate(self._bands)
            for (i, o), v in band._cells.items()
        )

    def get(self, I: int, J: int):
        """Entry at (I, J), read from the band of its colour."""
        if (J - I) % 2 != 0:
            raise ValueError(f"mixed parity index ({I}, {J})")
        return self._bands[I % 2].get(I // 2, J // 2)

    def black(self, i: int, j: int):
        """d[i, j]."""
        return self._bands[0].get(i, j)

    def white(self, i: int, j: int):
        """d[i + 1/2, j + 1/2]."""
        return self._bands[1].get(i, j)

    def cell(self, x: int, o: int):
        """Entry in display coordinates (column x, row offset o)."""
        return self.get(x - o, x + o)

    def row_cycle(self, o: int) -> Tuple:
        """One display period of row o, from column 0."""
        return tuple(self.cell(x, o) for x in range(2 * self.period))

    def cells(self) -> Iterator[Tuple[Tuple[int, int], object]]:
        """All cells of the display fundamental domain, row by row."""
        for o in range(-1, self.width + 1):
            for x in range(2 * self.period):
                yield (x, o), self.cell(x, o)

    def with_entry(self, idx: GridIndex, value) -> "FriezeGrid":
        """Copy of the grid with one cell replaced (guards excluded)."""
        stores = [band._cells for band in self._bands]
        colour = idx.I % 2
        key, flip = self._bands[colour]._fold(idx.I // 2, idx.offset)
        if key is None:
            raise ValueError(f"{idx} lies in a guard row")
        v = self.kind.coerce(value)
        stores[colour] = {**stores[colour], key: -v if flip else v}
        return FriezeGrid(self.kind, self.width, *stores)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FriezeGrid):
            return NotImplemented
        return self._bands == other._bands

    def __repr__(self) -> str:
        return (
            f"FriezeGrid(width={self.width}, period={self.period}, "
            f"scalar={self.kind.name})"
        )


def propagate_from_coeffs(a: Sequence, b: Sequence, kind: ScalarKind = RATIONAL) -> FriezeGrid:
    """Grow the full grid of width len(a) - 5 from one coefficient period.

    The black entries form the order-3 frieze of `from_equation` on the
    coefficient cycles (a, b, a shifted by one) of the symmetric
    equation; NotSuperperiodic names the first diagonal that does not
    close.  White cells are the 2x2 minors of the black grid.
    """
    f = from_equation(_table(SymmetricDiffEq(tuple(a), tuple(b), kind)), kind=kind)
    return FriezeGrid.from_blacks(kind, f.width, f.get)


def propagate_from_zigzag(values, width: Optional[int] = None, kind: ScalarKind = RATIONAL) -> FriezeGrid:
    """Grow the full grid from a double zig-zag of cell values.

    `values` is either a ZigZag or a flat cluster-ordered sequence (the
    w white values, then the w black values) placed on the standard
    two-column shape.  A ZigZag carries its width, and a `width` given
    with it must agree.  Every row grows east from its own two cells
    for a full display period, one sweep over the columns whatever the
    shape: each step solves the local rule at the row's last cell for
    its east neighbour.  ZeroPivot reports the cell a step would divide
    by; NotClosed means a row did not come back to its start, i.e. the
    input values are inconsistent.
    """
    if isinstance(values, ZigZag):
        zz = values
        if width not in (None, zz.width):
            raise ValueError(f"width {width} does not match the zig-zag's width {zz.width}")
    else:
        if width is None:
            raise ValueError("width is required with flat zig-zag values")
        zz = ZigZag.straight(values, width)
    w = zz.width
    n = w + 5
    one = kind.one()

    s = zz.shape
    lo, last = min(s), 2 * n + 1
    rows = [
        [kind.coerce(zz.entries[2 * o][1]), kind.coerce(zz.entries[2 * o + 1][1])]
        for o in range(w)
    ]
    # step x appends column x to each row o with s[o] + 2 <= x <= s[o] + 2n + 1,
    # by the local rule at v = (x - 1, o): west * east = lhs(v) + above * below.
    # above and below sit in column x - 1 of rows o -/+ 1, which those rows
    # hold by step x because linked rows start at most one column apart;
    # the boundary rows are ones, at every column from lo on.
    ones = [one] * (max(s) - lo + last)
    ends = [(ones, lo), *zip(rows, s), (ones, lo)]
    links = [(o, *ends[o + 1], *ends[o], *ends[o + 2]) for o in range(w)]
    for x in range(lo + 2, max(s) + last + 1):
        for o, row, so, up, su, down, sd in links:
            if not 2 <= x - so <= last:
                continue
            west, v = row[-2], row[-1]
            if kind.is_zero(west):
                raise ZeroPivot(GridIndex(x - 2 - o, x - 2 + o))
            lhs = v * v if (x - 1 - o) % 2 == 0 else v
            row.append((lhs + up[x - 1 - su] * down[x - 1 - sd]) / west)
    if not all(kind.eq(a, b) for row in rows for a, b in zip(row, row[2 * n:])):
        raise NotClosed("propagation does not close after one period")

    cells = {(s[o] + k, o): row[k] for k in range(2 * n) for o, row in enumerate(rows)}
    return FriezeGrid.from_cells(kind, w, cells)


def extract_coeffs(grid: FriezeGrid) -> Tuple[Tuple, Tuple]:
    """One period of (a, b): a[i] = d[i, i], b[i] = d[i-1/2, i-1/2]."""
    n = grid.period
    a = tuple(grid.black(i, i) for i in range(n))
    b = tuple(grid.white(i - 1, i - 1) for i in range(n))
    return a, b


def check_local_rules(grid: FriezeGrid) -> Tuple[GridIndex, ...]:
    """Indices of all cells whose local rule fails.

    Windows centred on the stored rows -1..w are tested.  The guard
    rows -2 and w+1 need no test: there the centre, its two same-row
    neighbours and its neighbour in row -3 (row w+2) are guard zeros,
    so the rule reads 0 = 0.

    A rational grid is scanned on ints by `_store_reader`, each stored
    value v read once as v' = D*v, D the lcm of the denominators.  Both
    rules are homogeneous and their right side has degree 2, so a black
    rule holds exactly when v'*v' = A'*B' - C'*D', and a white rule, of
    degree 1 on the left, exactly when D*v' = A'*B' - C'*D'.  D is the
    white weight; on other kinds it is 1 and cells are read as they are.
    """
    get, weight, eq = _store_reader(grid)
    bad = []
    for x in range(2 * grid.period):
        for o in range(-1, grid.width + 1):
            I, J = x - o, x + o
            v = get(I, J)
            ab = get(I - 1, J - 1) * get(I + 1, J + 1)
            cd = get(I + 1, J - 1) * get(I - 1, J + 1)
            lhs = v * v if I % 2 == 0 else v if weight == 1 else v * weight
            if not eq(lhs, ab - cd):
                bad.append(GridIndex(I, J))
    return tuple(bad)


def _store_reader(grid: FriezeGrid):
    """(get, weight, eq) for `check_local_rules` on any kind: `get` reads
    rows -1..w from the band stores, a rational grid's scaled once to ints
    by D, the lcm of their denominators (weight D), any other kind's as
    stored (weight 1), and the guard rows -2 and w+1 as the kind's zero."""
    stores = [band._cells for band in grid._bands]
    kind, n, w = grid.kind, grid.period, grid.width
    if isinstance(kind, RationalKind):
        d, ints = _lcm_scaled([v for store in stores for v in store.values()])
        scaled = iter(ints)  # zip reads each store first, so it takes only its own values
        stores = [dict(zip(store, scaled)) for store in stores]
        weight, eq, zero = d, operator.eq, 0
    else:
        weight, eq, zero = 1, kind.eq, kind.zero()

    def get(I: int, J: int):
        o = (J - I) // 2
        if -1 <= o <= w:
            return stores[I % 2][(I // 2 % n, o)]
        return zero

    return get, weight, eq


def check_tame(grid: FriezeGrid) -> TameResult:
    """Test the three families of adjacent minors of the black grid.

    Every 3x3 minor must equal its central entry, every 4x4 must equal
    one, every 5x5 must equal zero.  Windows overlapping the guard rows
    and the antiperiodic seam are included; one period of positions
    covers all distinct conditions.  The first failing window, if any,
    is reported.

    For an exact kind the recurrence decides first: a grid equal to
    `propagate_from_coeffs` of its own `extract_coeffs` is tame.  Each
    row of such a grid solves the one order-4 recurrence in its column
    index, so five adjacent columns are dependent and every 5x5 minor
    vanishes.  Moving a 4x4 window one column multiplies it by a
    transfer matrix of determinant one, so the 4x4 minors are
    constant, and the window whose diagonal runs along the boundary row
    of ones above guard zeros is unitriangular.  The equation is
    symmetric, hence self-dual, and that makes each 3x3 minor its
    central entry.  Any other grid, complex floats included, goes
    through the minor scan, which alone locates the failing window.
    On an exact kind, `frieze verify` decides the local rules and
    tameness by this one rebuild (`_verdict`), and scans the rules only
    on a mismatch.
    """
    if _rebuilds(grid):
        return TameResult(True, None)
    return _scan_tame(grid)


def _verdict(grid: FriezeGrid) -> Tuple[Tuple[GridIndex, ...], Optional[TameResult]]:
    """The failing local rules of a grid, then its tameness if none fail.

    A grid that `_rebuilds` satisfies every local rule: its white cells
    are the 2x2 minors of its black cells, and each black rule
    v*v = A*B - C*D is the Desnanot-Jacobi identity (Dodgson
    condensation) on the 3x3 black window around v, whose minor equals
    v on a tame grid.  So one rebuild decides both.  Any other grid,
    complex floats included, has its rules scanned and, if they all
    hold, its minors, as `check_local_rules` and `check_tame` would.
    """
    if _rebuilds(grid):
        return (), TameResult(True, None)
    bad = check_local_rules(grid)
    return bad, None if bad else _scan_tame(grid)


def _rebuilds(grid: FriezeGrid) -> bool:
    """Whether an exact grid equals the grid grown from its coefficients."""
    if not grid.kind.exact:
        return False
    try:
        return propagate_from_coeffs(*extract_coeffs(grid), grid.kind) == grid
    except NotSuperperiodic:
        return False


def _scan_tame(grid: FriezeGrid) -> TameResult:
    k, n = grid.kind, grid.period
    one, zero = k.one(), k.zero()
    return check_minors(k, grid.black, n, (
        (3, range(-6, n - 6), lambda i, j: grid.black(i + 1, j + 1)),
        (4, range(-7, n - 7), lambda i, j: one),
        (5, range(-8, n - 8), lambda i, j: zero),
    ))


def check_glide(grid: FriezeGrid) -> bool:
    """Glide symmetry: the entry at (I, J) recurs at (J + 6, I + 2w + 4).

    In cell terms d[i, j] = d[j + 3, i + w + 2], half-integer indices
    included verbatim.  Applying the glide twice is the diagonal period.
    """
    s = 2 * grid.width + 4
    return grid._fixed_by(lambda I, J: (J + 6, I + s))


def check_periodicity(grid: FriezeGrid) -> int:
    """Smallest display period: minimal even divisor p of 2n with
    d[i + p/2, j + p/2] equal to d[i, j] everywhere.  Odd shifts swap
    the two cell colours, so only even p qualify; p = 2n always does."""
    two_n = 2 * grid.period
    return next(
        p for p in range(2, two_n + 1, 2)
        if two_n % p == 0 and grid._fixed_by(lambda I, J: (I + p, J + p))
    )


def sign_twist(grid: FriezeGrid) -> FriezeGrid:
    """Flip each black entry by the parity of its row: d[i, j] times
    (-1)**(j - i + 1), whites untouched.  An involution.  For odd width
    the result satisfies all local rules; for even width the flip
    fights the antiperiodic seam and only the involution survives.
    """
    black, white = (band._cells for band in grid._bands)
    flipped = {(i, o): -v if o % 2 == 0 else v for (i, o), v in black.items()}
    return FriezeGrid(grid.kind, grid.width, flipped, white)


def extend_through_zero(prefix: Sequence, kind: ScalarKind = RATIONAL):
    """Forced continuation of a width-1 row past a zero divisor.

    The construction exists at width 1 only, so it takes no width:
    `prefix` alternates white and black entries of the single interior
    row.  The next black entry x is pinned by the 3x3 tame minor when
    its x-coefficient is nonzero, else by the 4x4 minor equal to one;
    a preceding white entry is recovered afterwards from the white
    local rule.  Returns the forced entries up to and including the
    next black.  Underdetermined means the prefix is too short for the
    minor that is needed.
    """
    vals = [kind.coerce(v) for v in prefix]
    blacks = vals[1::2]
    if len(blacks) < 2:
        raise Underdetermined("need two trailing black entries")
    one = kind.one()
    a1, a2 = blacks[-2], blacks[-1]

    c1 = a1 * a2 - one
    if not kind.is_zero(c1):
        x = (a1 + a2) / c1
    else:
        if len(blacks) < 3:
            raise Underdetermined("degenerate 3x3 minor and no third black entry")
        # the 4x4 minor of the order-1 band a0, a1, a2, x is the continuant x*d3 - d2
        run = _Scaled(((blacks[-3], a1, a2),), kind)
        d = run.from_unit(0, 3)
        d2, d3 = run.value(d[2], 2), run.value(d[3], 3)
        # exactly, d3 = a0*c1 - a2 = -a2, nonzero as a1*a2 = 1; only a
        # tolerance reads it as zero
        if kind.is_zero(d3):
            raise Underdetermined("4x4 minor does not see the next entry")
        x = (one + d2) / d3

    if len(vals) % 2 == 1:  # the prefix ends on a white entry
        return [x]
    return [a2 * x - one, x]


def find_nonzero_double_zigzag(grid: FriezeGrid) -> Optional[ZigZag]:
    """Search all zig-zag shapes and positions for one free of zeros.

    Returns the first all-nonzero double zig-zag in scan order, or None
    if every shape meets a zero somewhere (which happens for genuinely
    singular friezes).  Width 0 has no interior rows, hence None.
    """
    w, n = grid.width, grid.period
    if w == 0:
        return None
    k = grid.kind
    for s0 in range(2 * n):
        for deltas in product((-1, 0, 1), repeat=w - 1):
            shape = [s0]
            for d in deltas:
                shape.append(shape[-1] + d)
            entries = []
            for o, c in enumerate(shape):
                pair = []
                for x in (c, c + 1):
                    v = grid.cell(x, o)
                    if k.is_zero(v):
                        break
                    pair.append((GridIndex(x - o, x + o), v))
                if len(pair) < 2:
                    break
                entries.extend(pair)
            else:
                return ZigZag(w, tuple(entries))
    return None


def translate(grid: FriezeGrid, t: int) -> FriezeGrid:
    """Shift by t diagonal steps: new d[i, j] = old d[i - t, j - t]."""
    return grid._remap(lambda I, J: (I - 2 * t, J - 2 * t))


def mirror_grid(grid: FriezeGrid) -> FriezeGrid:
    """Reflect columns through x = 0, rows kept; translate by a to reflect through x = a."""
    return grid._remap(lambda I, J: (-J, -I))


def dihedral_images(grid: FriezeGrid) -> Iterator[FriezeGrid]:
    """All 2n translated and reflected copies of the grid."""
    for base in (grid, mirror_grid(grid)):
        for t in range(grid.period):
            yield translate(base, t)
