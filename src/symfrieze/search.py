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
of its column list, or of that list read backwards from column 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .frieze import FriezeGrid
# bound here for the benchmark tracer, which expects search to bind them
from .frieze import dihedral_images, propagate_from_zigzag, translate  # noqa: F401
from .scalars import RATIONAL

__all__ = ["SearchConfig", "enumerate_friezes", "dihedral_orbits"]

_DEDUP_MODES = ("none", "translation", "dihedral")


@dataclass(frozen=True)
class SearchConfig:
    """Width to search, cap on seed entries, and deduplication mode.

    dedup "none" keeps one grid per surviving seed, each anchored at
    its own seed columns; "translation" collapses column translates;
    "dihedral" also collapses mirror images.
    """

    width: int
    bound: int
    dedup: str = "none"

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be positive")
        if self.bound < 1:
            raise ValueError("bound must be positive")
        if self.dedup not in _DEDUP_MODES:
            raise ValueError(f"dedup must be one of {_DEDUP_MODES}")


def _int_columns(col1: List[int], col2: List[int], width: int) -> Optional[List[List[int]]]:
    # pure-int propagation with early abort; mirrors propagate_from_zigzag.
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
    if prev != col1 or cur != col2:
        return None
    return cols[: 2 * n]


def _survivors(width: int, bound: int) -> List[Tuple[Tuple[int, ...], List[List[int]]]]:
    """(seed, display columns 1..2n) of every surviving seed, in seed order."""
    w = width
    divisors: Dict[int, List[int]] = {}
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
            cols = _int_columns(list(col1), list(col2), w)
            if cols is None:
                continue
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


def _image_keys(cols: Sequence[Tuple], mirrors: bool) -> Iterator[Tuple]:
    """Keys of the images of the grid with display columns `cols`.

    The key of translate(g, t) flattens cols[(x - 2t) mod 2n]; with
    `mirrors`, the key of translate(mirror_grid(g, 0), t) flattens
    cols[(2t - x) mod 2n], the same rotation of the list cols[-x].
    """
    n2 = len(cols)
    bases = (cols, [cols[-x] for x in range(n2)]) if mirrors else (cols,)
    for base in bases:
        for s in range(0, n2, 2):
            yield tuple(itertools.chain.from_iterable(base[n2 - s:] + base[: n2 - s]))


def enumerate_friezes(config: SearchConfig) -> List[FriezeGrid]:
    """All positive integer friezes within the seed bound.

    Seeds run in lexicographic order and each surviving seed yields a
    grid anchored at columns (1, 2); deduplicated output keeps the
    first representative of every class.  Re-running with a larger
    bound returns a superset.
    """
    w = config.width
    out: List[FriezeGrid] = []
    seen: set = set()
    for _, cols in _survivors(w, config.bound):
        if config.dedup != "none":
            canon = min(_image_keys(cols[-1:] + cols[:-1], config.dedup == "dihedral"))
            if canon in seen:
                continue
            seen.add(canon)
        cells = {(x + 1, o): v for x, col in enumerate(cols) for o, v in enumerate(col)}
        out.append(FriezeGrid.from_cells(RATIONAL, w, cells))
    return out


def dihedral_orbits(
    friezes: Iterable[FriezeGrid], n: Optional[int] = None
) -> List[List[FriezeGrid]]:
    """Partition friezes by translation and mirror symmetry.

    All inputs must share one width and the rational kind; `n`, when
    given, must equal their period (the orbits are classes of that
    dihedral group's action).  Classes come back sorted by their
    canonical key, least first, and each class lists its members in the
    same order, so classes[i][0] is the canonical representative present
    in the input.
    """
    grids = list(friezes)
    if not grids:
        return []
    width, kind = grids[0].width, grids[0].kind.name
    for g in grids:
        if g.width != width:
            raise ValueError(f"width mismatch: {g.width} != {width}")
        if g.kind.name != kind:
            raise ValueError(f"kind mismatch: {g.kind.name} != {kind}")
    if kind != RATIONAL.name:
        raise ValueError(f"orbits need rational friezes, got {kind}")
    period = grids[0].period
    if n is not None and n != period:
        raise ValueError(f"dihedral order {n} does not match period {period}")
    buckets: Dict[Tuple, List[Tuple[Tuple, FriezeGrid]]] = {}
    for g in grids:
        cols = _columns(g)
        key = tuple(itertools.chain.from_iterable(cols))
        buckets.setdefault(min(_image_keys(cols, True)), []).append((key, g))
    return [
        [g for _, g in sorted(members, key=lambda m: m[0])]
        for _, members in sorted(buckets.items())
    ]
