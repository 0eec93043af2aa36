"""Independent reference implementations used to cross-check fast paths.

Nothing here imports the package's linear algebra or search internals;
these are deliberately naive so a shared bug cannot hide.  The census
oracle builds its grids and symmetry images with the general `frieze`
routines, the slow path that the search avoids.  The minor oracles
expand every adjacent window by cofactors and compare with `==`, so
they serve exact kinds only.  The monodromy oracles multiply companion
matrices and step the order-4 equation written out by hand, so they
serve every kind; complex floats agree with the package only up to
rounding.  The local-rule oracle reads every window of the rows -2..w+1
through `get` and compares with the kind's `eq`, so it serves every kind.
The complement oracle builds the complementary determinant by hand; the
polygon oracle pairs the two vertices of every cell by a form matrix
written out here.  The coefficient oracle expands the lower-Hessenberg
determinants next to the upper boundary by cofactors, so it serves every
kind.  The quiver oracle mutates arrow by arrow, without exchange
matrices.
"""

import itertools
from fractions import Fraction

from symfrieze.cluster import ValuedQuiver
from symfrieze.diffeq import companion
from symfrieze.frieze import (
    GridIndex,
    MinorWindow,
    TameResult,
    dihedral_images,
    propagate_from_zigzag,
    translate,
)
from symfrieze.legendrian import NormalizationViolated


def naive_get(cells, width, I, J):
    """Entry (I, J) of `FriezeGrid.from_cells(kind, width, cells)`.

    Reads the raw display cells {(x, o): value} by the documented rules
    alone: d[i, j+n] = -d[i, j], display period 2n, guard rows at
    offsets -4..-2 hold zero, and an omitted boundary row holds ones.
    Guard zeros and omitted ones come back as the ints 0 and 1, so
    coerce before comparing.
    """
    if (I - J) % 2:
        raise ValueError(f"mixed parity index ({I}, {J})")
    n = width + 5
    x, o = (I + J) // 2, (J - I) // 2
    sign = 1
    # d[i, j] = -d[i, j - n]: (x, o) moves to (x - n, o - n)
    while o > width:
        x, o, sign = x - n, o - n, -sign
    while o < -4:
        x, o, sign = x + n, o + n, -sign
    if o < -1:
        return 0
    row = {c: v for (c, r), v in cells.items() if r == o}
    if row:
        first = min(row)
        value = row[first + (x - first) % (2 * n)]
    else:
        value = 1
    return value if sign > 0 else -value


def cofactor_det(rows):
    """Laplace expansion along the first row.

    The minor left after expanding the top rows depends only on the
    columns still unused, so each is expanded once per column set:
    2^n minors, exponential, small inputs only.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    minors = {}

    def expand(cols):
        if len(cols) == 1:
            return rows[n - 1][cols[0]]
        if cols not in minors:
            r = n - len(cols)
            total = None
            for t, c in enumerate(cols):
                term = rows[r][c] * expand(cols[:t] + cols[t + 1 :])
                if t % 2:
                    term = -term
                total = term if total is None else total + term
            minors[cols] = total
        return minors[cols]

    return expand(tuple(range(n)))


def naive_band_determinant(eq, i, j):
    """Pentadiagonal band determinant of order j - i + 1, by cofactors.

    Row r carries 1 below the diagonal, then a[i+r], b[i+r+1],
    a[i+r+1], 1; order 0 is the empty determinant 1, and a negative
    order raises ValueError.
    """
    k = eq.kind
    m = j - i + 1
    if m < 0:
        raise ValueError("band must have nonnegative order")
    if m == 0:
        return k.one()
    zero = k.zero()
    rows = []
    for r in range(m):
        row = [zero] * m
        if r > 0:
            row[r - 1] = k.one()
        row[r] = eq.a_at(i + r)
        if r + 1 < m:
            row[r + 1] = eq.b_at(i + r + 1)
        if r + 2 < m:
            row[r + 2] = eq.a_at(i + r + 1)
        if r + 3 < m:
            row[r + 3] = k.one()
        rows.append(row)
    return cofactor_det(rows)


def naive_entry_det_complement(coeffs, i, j, kind):
    """Entry d_{i,j} as the (w - (j-i))-sized complementary determinant,
    expanded by cofactors.

    With k cycles of period n, w = n - k - 2 and t = j - i, row r reads
    every cycle at the one subscript i - w + t - 1 + r: a 1 below the
    diagonal, cycles k, k-1, ..., 1 rightward from the diagonal, then a
    closing 1.  Offsets outside [-1, w] raise ValueError.
    """
    table = [[kind.coerce(v) for v in row] for row in coeffs]
    k, n = len(table), len(table[0])
    w = n - k - 2
    t = j - i
    if not -1 <= t <= w:
        raise ValueError(f"offset {t} outside [-1, {w}]")
    size = w - t
    if size == 0:
        return kind.one()
    rows = [[kind.zero()] * size for _ in range(size)]
    for r in range(size):
        sub = (i - w + t - 1 + r) % n
        for c in range(size):
            s = c - r
            if s in (-1, k):
                rows[r][c] = kind.one()
            elif 0 <= s < k:
                rows[r][c] = table[k - 1 - s][sub]
    return cofactor_det(rows)


def naive_coeffs_of(f):
    """Coefficient cycles of an SLFrieze, by cofactors.

    Cycle k - size at subscript i - 1 is the size x size determinant
    with f.get(i + 1 + r, i + w + c) on and below the diagonal, ones
    just above it and zeros beyond, for sizes 1..k.
    """
    k, w, n = f.order, f.width, f.period
    one, zero = f.kind.one(), f.kind.zero()
    table = [[None] * n for _ in range(k)]
    for i in range(n):
        for size in range(1, k + 1):
            rows = [
                [f.get(i + 1 + r, i + w + c) if c <= r else one if c == r + 1 else zero
                 for c in range(size)]
                for r in range(size)
            ]
            table[k - size][(i - 1) % n] = cofactor_det(rows)
    return tuple(tuple(row) for row in table)


def naive_quiver_mutate(quiver, k):
    """Arrow-level mutation of a ValuedQuiver at vertex k.

    Every path i -> k -> j with weights (a, b) and (c, d) adds a*c to
    the weight from i to j and b*d to the one back; then each arrow at
    k is reversed.  Opposite weights cancel, and a pair whose forward
    weight is positive becomes one arrow.
    """
    if not 0 <= k < quiver.m:
        raise IndexError(f"vertex {k} out of range")
    val = {}
    for tail, head, (p, q) in quiver.arrows:
        val[(tail, head)] = p
        val[(head, tail)] = -q
    new = dict(val)
    into = [(t, p, q) for t, h, (p, q) in quiver.arrows if h == k]
    outof = [(h, p, q) for t, h, (p, q) in quiver.arrows if t == k]
    for i, a, b in into:
        for j, c, d in outof:
            new[(i, j)] = new.get((i, j), 0) + a * c
            new[(j, i)] = new.get((j, i), 0) - b * d
    for tail, head, _ in quiver.arrows:
        if k in (tail, head):
            new[(tail, head)] = -val[(tail, head)]
            new[(head, tail)] = -val[(head, tail)]
    arrows = tuple(
        (i, j, (v, -new[(j, i)])) for (i, j), v in sorted(new.items()) if v > 0
    )
    return ValuedQuiver(quiver.m, arrows)


def naive_pairing(form, u, v):
    """omega(u, v) = u^t F v, with F written out for each variant."""
    kind, a = form.kind, form.a
    o, z = kind.one(), kind.zero()
    if form.variant == "standard":
        f = [[z, z, o, a], [z, z, z, o], [-o, z, z, z], [-a, -o, z, z]]
    else:
        f = [[z, z, o, z], [z, z, -a, o], [-o, a, z, z], [z, -o, z, z]]
    total = z
    for r in range(4):
        for c in range(4):
            if f[r][c] != z:
                total = total + kind.coerce(u[r]) * f[r][c] * kind.coerce(v[c])
    return total


def _polygon_vertex(p, j):
    """V_j of the polygon, negated once per period away from its base."""
    steps, r = divmod(j - p.base, p.period)
    v = p.vertices[r]
    return tuple(-x for x in v) if steps % 2 else v


def naive_normalization_failure(p):
    """(t, k) of the first pairing omega(V_t, V_{t+k}), t over one period
    from the base and k = 1 before k = 2, that is not 0 (k = 1) or 1
    (k = 2); None when the polygon is normalized."""
    kind = p.form.kind
    for t in range(p.base, p.base + p.period):
        for k, want in ((1, kind.zero()), (2, kind.one())):
            got = naive_pairing(p.form, _polygon_vertex(p, t), _polygon_vertex(p, t + k))
            if not kind.eq(got, want):
                return t, k
    return None


def naive_frieze_from_polygon(p):
    """Display cells {(x, o): value} of the frieze a normalized polygon
    pairs into, over one display period of the rows -1..w.

    Each black cell d[i, j] is its own pairing omega(V_{i-3}, V_j), each
    white cell d[i+1/2, j+1/2] the 2x2 minor of the blacks d[i, j],
    d[i+1, j+1], d[i+1, j], d[i, j+1], and the boundary rows are ones.
    A polygon that is not normalized raises NormalizationViolated at the
    t of `naive_normalization_failure`.
    """
    bad = naive_normalization_failure(p)
    if bad is not None:
        raise NormalizationViolated(bad[0])

    pairs = {}

    def blk(i, j):
        if (i, j) not in pairs:
            pairs[(i, j)] = naive_pairing(p.form, _polygon_vertex(p, i - 3), _polygon_vertex(p, j))
        return pairs[(i, j)]

    w, cells = p.width, {}
    for x in range(2 * p.period):
        for o in range(-1, w + 1):
            I, J = x - o, x + o
            if o in (-1, w):
                cells[(x, o)] = p.form.kind.one()
            elif I % 2 == 0:
                cells[(x, o)] = blk(I // 2, J // 2)
            else:
                i, j = I // 2, J // 2
                cells[(x, o)] = blk(i, j) * blk(i + 1, j + 1) - blk(i + 1, j) * blk(i, j + 1)
    return cells


def naive_local_rules(grid):
    """Cells whose local rule fails, centres over one display period of
    the rows -2..w+1, column by column.

    With v the centre, A and B its west and east neighbours and C, D the
    cells above and below, a white cell needs v = A*B - C*D and a black
    cell v*v = A*B - C*D.
    """
    eq, bad = grid.kind.eq, []
    for x in range(2 * grid.period):
        for o in range(-2, grid.width + 2):
            I, J = x - o, x + o
            v = grid.get(I, J)
            west, east = grid.get(I - 1, J - 1), grid.get(I + 1, J + 1)
            above, below = grid.get(I + 1, J - 1), grid.get(I - 1, J + 1)
            lhs = v * v if I % 2 == 0 else v
            if not eq(lhs, west * east - above * below):
                bad.append(GridIndex(I, J))
    return tuple(bad)


def _first_bad_window(get, period, conditions):
    """Cofactor scan of (size, offsets, expected) families in order: windows
    anchored at (i, i + o), i over one period, o over `offsets`."""
    for size, offsets, expected in conditions:
        for i in range(period):
            for o in offsets:
                j = i + o
                value = cofactor_det(
                    [[get(i + r, j + c) for c in range(size)] for r in range(size)]
                )
                want = expected(i, j)
                if value != want:
                    return TameResult(False, MinorWindow(size, i, j, value, want))
    return TameResult(True, None)


def naive_tame(grid):
    """3x3 minors equal to their centre, 4x4 equal to one, 5x5 zero, on the
    black cells over one period of offsets starting in the guard rows."""
    n, one, zero = grid.period, grid.kind.one(), grid.kind.zero()
    return _first_bad_window(grid.black, n, (
        (3, range(-6, n - 6), lambda i, j: grid.black(i + 1, j + 1)),
        (4, range(-7, n - 7), lambda i, j: one),
        (5, range(-8, n - 8), lambda i, j: zero),
    ))


def naive_centres(f):
    """3x3 minors of an order-3 frieze equal to their central entry."""
    n = f.period
    return _first_bad_window(f.get, n, (
        (3, range(-5, n - 5), lambda i, j: f.get(i + 1, j + 1)),
    ))


def mul4(a, b):
    """Plain 4x4 product over nested lists, summed from the first term."""
    return [
        [sum((a[r][k] * b[k][c] for k in range(1, 4)), a[r][0] * b[0][c]) for c in range(4)]
        for r in range(4)
    ]


def naive_monodromy(eq):
    """Ordered product E_1 E_2 ... E_n of the companion matrices."""
    m = companion(eq, 1).rows
    for j in range(2, eq.n + 1):
        m = mul4(m, companion(eq, j).rows)
    return m


def naive_superperiodic(eq):
    """Each of the four unit windows, stepped across one period by the
    order-4 equation, must come back as minus itself."""
    k = eq.kind
    for pos in range(4):
        start = [k.one() if t == pos else k.zero() for t in range(4)]
        window = list(start)
        for j in range(eq.n):
            v = (
                eq.a_at(j) * window[3]
                - eq.b_at(j) * window[2]
                + eq.a_at(j - 1) * window[1]
                - window[0]
            )
            window = window[1:] + [v]
        if not all(k.eq(window[t], -start[t]) for t in range(4)):
            return False
    return True


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
