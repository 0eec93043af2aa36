"""Exhaustive search for friezes with positive integer entries.

Seeds are straight two-column zig-zags with entries 1..bound, on display
columns 1 and 2.  The first propagation step gives column 3 by
col3 * col1 = rhs, where rhs depends on column 2 alone; so the search
lets column 2 range over the whole box and each column-1 entry range only
over the divisors of its rhs up to the bound, instead of scanning every
seed.  A candidate survives when integer-only propagation keeps every
cell a positive integer and closes up after a full period; almost all
candidates die within a column or two.  Survivors come back in
lexicographic seed order.

Symmetry keys never build image grids: display cells repeat with period
2n in x, so every translate and mirror image of a frieze is a rotation
of its column list, or of that list read backwards from column 0.  So a
canonical key, the least flattened image, starts with the least even
column, and only the rotations that start there are flattened; and a
translate of a survivor whose seed lies in the box later in the candidate
order takes its columns from the survivor instead of being propagated.

`census` counts friezes and orbits from the int columns and keys of the
survivors and builds no grids; `enumerate_friezes` builds one rational
grid per kept survivor.  `_kept` holds the one deduplication rule both
follow.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .frieze import FriezeGrid
# bound here for the benchmark tracer, which expects search to bind them
from .frieze import dihedral_images, propagate_from_zigzag, translate  # noqa: F401
from .scalars import RATIONAL, _Frozen

__all__ = [
    "DEDUP_MODES", "Census", "SearchConfig", "census", "enumerate_friezes", "dihedral_orbits",
]

DEDUP_MODES = ("none", "translation", "dihedral")


class SearchConfig(_Frozen):
    """Width to search, cap on seed entries, and deduplication mode.

    dedup "none" keeps one grid per surviving seed, each anchored at
    its own seed columns; "translation" collapses column translates;
    "dihedral" also collapses mirror images.
    """

    __slots__ = _fields = ("width", "bound", "dedup")

    def __init__(self, width: int, bound: int, dedup: str = "none"):
        if width < 1:
            raise ValueError("width must be positive")
        if bound < 1:
            raise ValueError("bound must be positive")
        if dedup not in DEDUP_MODES:
            raise ValueError(f"dedup must be one of {DEDUP_MODES}")
        super().__init__(width, bound, dedup)


def _int_columns(col1: List[int], col2: List[int], width: int) -> Optional[List[List[int]]]:
    # propagate_from_zigzag's sweep on the straight shape, in ints, with early abort.
    # Returns display columns 1..2n, or None unless all are positive and close up.
    w = width
    n = w + 5
    cols = [col1, col2]
    prev, cur = col1, col2
    for x in range(3, 2 * n + 3):
        nxt = []
        for o in range(w):
            above = cur[o - 1] if o else 1
            below = cur[o + 1] if o < w - 1 else 1
            lhs = cur[o] * cur[o] if (x - 1 - o) % 2 == 0 else cur[o]
            q, r = divmod(lhs + above * below, prev[o])
            if r or q <= 0:
                return None
            nxt.append(q)
        cols.append(nxt)
        prev, cur = cur, nxt
    # never true: the formal frieze closes up, and a positive seed divides by no zero
    if prev != col1 or cur != col2:
        return None
    return cols[: 2 * n]


def _survivors(width: int, bound: int) -> List[Tuple[Tuple[int, ...], List[List[int]]]]:
    """(seed, display columns 1..2n) of every surviving seed, in seed order.

    Candidates run in lexicographic (column 2, column 1) order, and a
    survivor's even rotations wait here for the later seeds they start.
    """
    w = width
    divisors: Dict[int, List[int]] = {}
    translates: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], List[List[int]]] = {}
    found = []
    for col2 in itertools.product(range(1, bound + 1), repeat=w):
        choices = []
        for o in range(w):
            above = col2[o - 1] if o else 1
            below = col2[o + 1] if o < w - 1 else 1
            # column 3 is solved at x - 1 = 2: the square rule on even rows
            rhs = (col2[o] * col2[o] if o % 2 == 0 else col2[o]) + above * below
            if rhs not in divisors:
                divisors[rhs] = [d for d in range(1, min(rhs, bound) + 1) if rhs % d == 0]
            choices.append(divisors[rhs])
        for col1 in itertools.product(*choices):
            cols = translates.pop((col2, col1), None)
            if cols is None:
                cols = _int_columns(list(col1), list(col2), w)
                if cols is None:
                    continue
                for t in range(2, len(cols), 2):
                    seed = (tuple(cols[t + 1]), tuple(cols[t]))
                    if seed > (col2, col1) and max(cols[t] + cols[t + 1]) <= bound:
                        translates[seed] = cols[t:] + cols[:t]
            # row o holds (white, black) on columns (1, 2) when o is even
            whites = tuple(col1[o] if o % 2 == 0 else col2[o] for o in range(w))
            blacks = tuple(col2[o] if o % 2 == 0 else col1[o] for o in range(w))
            found.append((whites + blacks, cols))
    found.sort(key=lambda s: s[0])
    return found


def _columns(grid: FriezeGrid) -> List[Tuple]:
    """Display columns x = 0..2n-1 of the interior rows."""
    return [
        tuple(grid.cell(x, o) for o in range(grid.width))
        for x in range(2 * grid.period)
    ]


def _least_key(cols: Sequence[Sequence], mirrors: bool) -> Tuple:
    """Least key among the images of the grid with display columns `cols`.

    The key of translate(g, t) flattens the rotation of `cols` that starts
    at cols[-2t]; with `mirrors`, translate(mirror_grid(g), t) reads `cols`
    backwards from there.  Columns have equal lengths, so only rotations
    that start at the least even column can give the least key.
    """
    first = min(cols[::2])
    starts = [k for k in range(0, len(cols), 2) if cols[k] == first]
    rotations = [cols[k:] + cols[:k] for k in starts]
    if mirrors:
        rotations += [cols[k::-1] + cols[:k:-1] for k in starts]
    return tuple(itertools.chain.from_iterable(min(rotations)))


def _kept(
    survivors: Iterable[Tuple[Tuple[int, ...], List[List[int]]]], dedup: str
) -> Iterator[Tuple[List[List[int]], Tuple[int, ...]]]:
    """(display columns x = 0..2n-1, dihedral canonical key) of each kept survivor.

    Deduplication keeps the first survivor of every class, in the order
    given; "none" keeps them all.
    """
    seen: set = set()
    for _, cols in survivors:
        cols = cols[-1:] + cols[:-1]
        canon = _least_key(cols, True)
        if dedup != "none":
            key = canon if dedup == "dihedral" else _least_key(cols, False)
            if key in seen:
                continue
            seen.add(key)
        yield cols, canon


def enumerate_friezes(config: SearchConfig) -> List[FriezeGrid]:
    """All positive integer friezes within the seed bound.

    Seeds run in lexicographic order and each surviving seed yields a
    grid anchored at columns (1, 2); deduplicated output keeps the
    first representative of every class.  Re-running with a larger
    bound returns a superset.
    """
    w = config.width
    return [
        FriezeGrid.from_cells(
            RATIONAL, w, {(x, o): v for x, col in enumerate(cols) for o, v in enumerate(col)}
        )
        for cols, _ in _kept(_survivors(w, config.bound), config.dedup)
    ]


class Census(_Frozen):
    """Counts of one search.

    `count` friezes kept by the dedup mode, in `orbits` dihedral orbits;
    `largest_seed` is the largest seed entry of any survivor, or 0.
    """

    __slots__ = _fields = ("count", "orbits", "largest_seed")

    def __init__(self, count: int, orbits: int, largest_seed: int):
        super().__init__(count, orbits, largest_seed)


def census(config: SearchConfig) -> Census:
    """Counts of `enumerate_friezes(config)` and of its `dihedral_orbits`.

    No grid is built.  Every kept cell is a positive int, and tuples of
    ints order and compare exactly as the tuples of equal Fractions that
    `dihedral_orbits` reads off the grids, so the canonical keys here are
    the ones it would compute: the same keys are kept, and the number of
    distinct keys is its number of orbits.  `largest_seed` is taken over
    every survivor before deduplication; when it equals the bound, a
    larger bound may find more friezes.
    """
    survivors = _survivors(config.width, config.bound)
    keys = [canon for _, canon in _kept(survivors, config.dedup)]
    return Census(
        count=len(keys),
        orbits=len(set(keys)),
        largest_seed=max((max(seed) for seed, _ in survivors), default=0),
    )


def dihedral_orbits(friezes: Iterable[FriezeGrid]) -> List[List[FriezeGrid]]:
    """Partition friezes by translation and mirror symmetry.

    All inputs must share one width and the rational kind; the orbits
    are classes of the dihedral group of order 2n, n their period.
    Classes come back sorted by their canonical key, least first, and
    each class lists its members in the same order, so classes[i][0] is
    the canonical representative present in the input.
    """
    grids = list(friezes)
    if not grids:
        return []
    width, kind = grids[0].width, grids[0].kind
    for g in grids:
        if g.width != width:
            raise ValueError(f"width mismatch: {g.width} != {width}")
        if g.kind != kind:
            raise ValueError(f"kind mismatch: {g.kind.name} != {kind.name}")
    if kind != RATIONAL:
        raise ValueError(f"orbits need rational friezes, got {kind.name}")
    buckets: Dict[Tuple, List[Tuple[Tuple, FriezeGrid]]] = {}
    for g in grids:
        cols = _columns(g)
        key = tuple(itertools.chain.from_iterable(cols))
        buckets.setdefault(_least_key(cols, True), []).append((key, g))
    return [
        [g for _, g in sorted(members, key=lambda m: m[0])]
        for _, members in sorted(buckets.items())
    ]
