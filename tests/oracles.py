"""Independent reference implementations used to cross-check fast paths.

Nothing here imports the package's linear algebra or search internals;
these are deliberately naive so a shared bug cannot hide.  The census
oracle builds its grids and symmetry images with the general `frieze`
routines, the slow path that the search avoids.
"""

import itertools
from fractions import Fraction

from symfrieze.frieze import dihedral_images, propagate_from_zigzag, translate


def cofactor_det(rows):
    """Laplace expansion along the first row. Exponential, small inputs only."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = None
    for c in range(n):
        sub = [list(r[:c]) + list(r[c + 1 :]) for r in rows[1:]]
        term = rows[0][c] * cofactor_det(sub)
        if c % 2:
            term = -term
        total = term if total is None else total + term
    return total


def mul4(a, b):
    """Plain 4x4 product over nested lists."""
    return [
        [sum(a[r][k] * b[k][c] for k in range(4)) for c in range(4)]
        for r in range(4)
    ]


def brute_force_width1(bound):
    """All positive integer friezes of width 1 with both seed cells <= bound.

    Walks the single interior row directly: cells alternate between
    plain values and squared values in the 2x2 relations, so with the
    seed at columns 1 and 2 the row continues as

        next = (cur^2 + 1) / prev   at even columns,
        next = (cur + 1) / prev     at odd columns,

    and closes up when columns 13, 14 repeat columns 1, 2.  Returns the
    sorted list of surviving (column 1, column 2) seed pairs.
    """
    found = []
    for s1 in range(1, bound + 1):
        for s2 in range(1, bound + 1):
            row = {1: Fraction(s1), 2: Fraction(s2)}
            good = True
            for x in range(2, 14):
                cur, prev = row[x], row[x - 1]
                nxt = ((cur * cur if x % 2 == 0 else cur) + 1) / prev
                if nxt <= 0 or nxt.denominator != 1:
                    good = False
                    break
                row[x + 1] = nxt
            if good and row[13] == row[1] and row[14] == row[2]:
                found.append((s1, s2))
    return sorted(found)


def _seed_survives(seed, width):
    """Positive integer propagation of a straight seed over a full period.

    Rows alternate which seed column holds the white cell; each step
    solves next * prev = cur^2 + above * below on cells whose column and
    row offset differ by an even number, and cur + above * below on the
    others.  The seed survives when every cell is a positive integer and
    the columns repeat after 2(w + 5) steps.
    """
    w = width
    whites, blacks = seed[:w], seed[w:]
    first = [whites[o] if o % 2 == 0 else blacks[o] for o in range(w)]
    second = [blacks[o] if o % 2 == 0 else whites[o] for o in range(w)]
    cols = {1: first, 2: second}
    for x in range(2, 2 * (w + 5) + 2):
        cur, prev = cols[x], cols[x - 1]
        nxt = []
        for o in range(w):
            above = cur[o - 1] if o > 0 else 1
            below = cur[o + 1] if o < w - 1 else 1
            top = (cur[o] ** 2 if (x - o) % 2 == 0 else cur[o]) + above * below
            if top % prev[o] != 0 or top // prev[o] <= 0:
                return False
            nxt.append(top // prev[o])
        cols[x + 1] = nxt
    n2 = 2 * (w + 5)
    return cols[n2 + 1] == cols[1] and cols[n2 + 2] == cols[2]


def grid_key(grid):
    """Cells of display columns 0..2n-1, column by column, rows top down."""
    return tuple(
        grid.get(x - o, x + o)
        for x in range(2 * grid.period)
        for o in range(grid.width)
    )


def canonical_key(grid, dedup):
    """Least image key: over translates, or over all dihedral images."""
    if dedup == "translation":
        images = (translate(grid, t) for t in range(grid.period))
    else:
        images = dihedral_images(grid)
    return min(grid_key(im) for im in images)


def naive_census(width, bound, dedup="none"):
    """Positive integer friezes from a scan of the whole seed box.

    Seeds run over 1..bound in all 2w places in lexicographic order;
    each survivor is rebuilt over Fractions by `propagate_from_zigzag`,
    and deduplication keeps the first grid of every canonical key.
    """
    out, seen = [], set()
    for seed in itertools.product(range(1, bound + 1), repeat=2 * width):
        if not _seed_survives(seed, width):
            continue
        grid = propagate_from_zigzag([Fraction(v) for v in seed], width)
        if dedup != "none":
            canon = canonical_key(grid, dedup)
            if canon in seen:
                continue
            seen.add(canon)
        out.append(grid)
    return out


def naive_orbits(grids):
    """Classes of equal dihedral canonical key, sorted by key; members by key."""
    buckets = {}
    for g in grids:
        buckets.setdefault(canonical_key(g, "dihedral"), []).append(g)
    return [sorted(buckets[k], key=grid_key) for k in sorted(buckets)]
