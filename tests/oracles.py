"""Independent reference implementations used to cross-check fast paths.

Nothing here imports the package's linear algebra or search internals;
these are deliberately naive so a shared bug cannot hide.  The census
oracle builds its grids and symmetry images with the general `frieze`
routines, the slow path that the search avoids.  The minor oracles
expand every adjacent window by cofactors and compare with `==`, so
they serve exact kinds only.  The monodromy oracles multiply companion
matrices written out here as plain rows, and step the order-4 equation
by hand, so they serve every kind; complex floats agree with the package
only up to rounding.  The recurrence oracles run the loop in the kind's
own arithmetic, as `diffeq._recur` did before it ran rational tables on
scaled integers, and serve the exact kinds.  The local-rule oracle reads every window of the rows -2..w+1
through `get` and compares with the kind's `eq`, so it serves every kind.
The complement oracle builds the complementary determinant by hand; the
polygon and pairing oracles pair two vertices by a form matrix written
out here, in the kind's own arithmetic, as `legendrian._pairings` did
before it paired rational vertices on scaled integers, and the block
oracle multiplies that matrix with the black windows by plain 4x4
products and a transpose.  The coefficient
oracle expands the lower-Hessenberg determinants next to the upper
boundary by cofactors, so it serves every kind.  The quiver oracle mutates arrow by arrow, without exchange
matrices.  The decoder oracle reads raw JSON values with one branch per
scalar kind, building Fractions and Gaussian rationals itself instead
of going through the kinds' `coerce`: it reads ``a+bi`` text by its own
pattern into two `Fraction(str)` parts, as the package did before it
read canonical text straight into ints.  The map oracles walk the display
cells of a grid and rebuild through the public, coercing `from_cells`
(or the `SLFrieze` constructor), as the package did before its maps
wrote the band stores; they serve every kind.  The Gaussian oracle keeps
two Fraction parts and does its arithmetic on them, as the package did
before it held a Gaussian rational as one reduced int triple.
"""

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from symfrieze.frieze import (
    FriezeGrid,
    GridIndex,
    MinorWindow,
    SLFrieze,
    TameResult,
    dihedral_images,
    propagate_from_zigzag,
    translate,
)
from symfrieze.legendrian import NormalizationViolated, SymplecticForm
from symfrieze.scalars import GaussianRational


def naive_get(cells, width, I, J):
    """Entry (I, J) of `FriezeGrid.from_cells(kind, width, cells)`.

    Reads the raw display cells {(x, o): value} by the documented rules
    alone: d[i, j+n] = -d[i, j] for black cells (I even) while white
    cells repeat without a sign, display period 2n, guard rows at
    offsets -4..-2 hold zero, and an omitted boundary row holds ones.
    Guard zeros and omitted ones come back as the ints 0 and 1, so
    coerce before comparing.
    """
    if (I - J) % 2:
        raise ValueError(f"mixed parity index ({I}, {J})")
    n = width + 5
    x, o = (I + J) // 2, (J - I) // 2
    sign, flip = 1, (-1 if I % 2 == 0 else 1)
    # d[i, j] = flip * d[i, j - n]: (x, o) moves to (x - n, o - n)
    while o > width:
        x, o, sign = x - n, o - n, sign * flip
    while o < -4:
        x, o, sign = x + n, o + n, sign * flip
    if o < -1:
        return 0
    row = {c: v for (c, r), v in cells.items() if r == o}
    if row:
        first = min(row)
        value = row[first + (x - first) % (2 * n)]
    else:
        value = 1
    return value if sign > 0 else -value


_NAIVE_GAUSSIAN = re.compile(r"\s*([+-]?\d+(?:/\d+)?)\s*([+-])\s*(\d+(?:/\d+)?)i\s*")


def naive_decode_value(scalar, raw):
    """A raw JSON value (or text token) as a value of the named kind.

    Rationals read strings and ints; Gaussian rationals the same, with
    ``a+bi`` text; complex floats also floats and ``[re, im]`` pairs,
    reading numbers by their text, where only a trailing ``i`` is the
    imaginary unit (``inf`` is infinity).  JSON true and false are
    rejected, also inside a pair.  Raises ValueError, and lets Fraction's
    ZeroDivisionError and a malformed pair's TypeError or OverflowError
    escape.
    """
    if isinstance(raw, bool) or (
        isinstance(raw, list) and any(isinstance(x, bool) for x in raw)
    ):
        raise ValueError(f"cannot read {raw!r} as a {scalar} value")
    if scalar == "rational":
        if isinstance(raw, (str, int)):
            return Fraction(raw)
    elif scalar == "gaussian":
        if isinstance(raw, int):
            return GaussianRational(Fraction(raw), Fraction(0))
        if isinstance(raw, str):
            m = _NAIVE_GAUSSIAN.fullmatch(raw)
            if m is None:
                return GaussianRational(Fraction(raw), Fraction(0))
            im = Fraction(m.group(3))
            return GaussianRational(Fraction(m.group(1)), -im if m.group(2) == "-" else im)
    elif scalar == "complex-float":
        if isinstance(raw, (list, tuple)) and len(raw) == 2:
            return complex(float(raw[0]), float(raw[1]))
        if isinstance(raw, (int, float, str)):
            text = str(raw).replace(" ", "")
            if text.endswith("i"):
                text = text[:-1] + "j"
            return complex(text)
    raise ValueError(f"cannot read {raw!r} as a {scalar} value")


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


def naive_quiver_mutate(matrix, k):
    """Arrow-level mutation of the valued quiver of an exchange matrix at
    vertex k, returned as matrix rows.

    The quiver has an arrow i -> j with weights (b[i][j], -b[j][i])
    wherever b[i][j] > 0.  Every path i -> k -> j with weights (a, b) and
    (c, d) adds a*c to the weight from i to j and b*d to the one back;
    then each arrow at k is reversed.  Opposite weights cancel, and a pair
    whose forward weight is positive becomes one arrow.
    """
    m = len(matrix.rows)
    if not 0 <= k < m:
        raise IndexError(f"vertex {k} out of range")
    arrows = [
        (i, j, (matrix.rows[i][j], -matrix.rows[j][i]))
        for i in range(m) for j in range(m) if matrix.rows[i][j] > 0
    ]
    val = {}
    for tail, head, (p, q) in arrows:
        val[(tail, head)] = p
        val[(head, tail)] = -q
    new = dict(val)
    into = [(t, p, q) for t, h, (p, q) in arrows if h == k]
    outof = [(h, p, q) for t, h, (p, q) in arrows if t == k]
    for i, a, b in into:
        for j, c, d in outof:
            new[(i, j)] = new.get((i, j), 0) + a * c
            new[(j, i)] = new.get((j, i), 0) - b * d
    for tail, head, _ in arrows:
        if k in (tail, head):
            new[(tail, head)] = -val[(tail, head)]
            new[(head, tail)] = -val[(head, tail)]
    rows = [[0] * m for _ in range(m)]
    for (i, j), v in new.items():
        if v > 0:
            rows[i][j] = v
            rows[j][i] = new[(j, i)]
    return tuple(tuple(row) for row in rows)


def naive_form_matrix(form):
    """The form matrix F as plain rows, written out for each variant."""
    kind, a = form.kind, form.a
    o, z = kind.one(), kind.zero()
    if form.variant == "standard":
        return [[z, z, o, a], [z, z, z, o], [-o, z, z, z], [-a, -o, z, z]]
    return [[z, z, o, z], [z, z, -a, o], [-o, a, z, z], [z, -o, z, z]]


def naive_pairing(form, u, v):
    """omega(u, v) = u^t F v, with F from `naive_form_matrix`."""
    kind, z = form.kind, form.kind.zero()
    f = naive_form_matrix(form)
    total = z
    for r in range(4):
        for c in range(4):
            if f[r][c] != z:
                total = total + kind.coerce(u[r]) * f[r][c] * kind.coerce(v[c])
    return total


def _antiperiodic(vertices, j):
    """V_j of the sequence with one period V_0..V_{n-1} in `vertices`,
    negated once per period away."""
    steps, r = divmod(j, len(vertices))
    v = vertices[r]
    return tuple(-x for x in v) if steps % 2 else v


def _polygon_vertex(p, j):
    """V_j of the polygon, negated once per period away from its base."""
    return _antiperiodic(p.vertices, j - p.base)


def naive_pairings(form, vertices, reach):
    """Row t holds omega(V_t, V_{t+k}), k = 1..reach, by `naive_pairing`
    in the kind's own arithmetic, for one period V_0..V_{n-1}."""
    return [
        [naive_pairing(form, vertices[t], _antiperiodic(vertices, t + k)) for k in range(1, reach + 1)]
        for t in range(len(vertices))
    ]


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
        raise NormalizationViolated(*bad)

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


def transpose4(m):
    """Plain 4x4 transpose over nested lists."""
    return [[m[r][c] for r in range(4)] for c in range(4)]


def naive_block_symplectic_check(g):
    """D^t dual(a_i) D == standard(a_j) for every 4x4 black window D of
    rows i..i+3 and columns j-3..j, j from i over one period and one
    more, by dense products of `mul4`, `transpose4` and the written-out
    form matrices, compared with the kind's `eq`; and each diagonal
    window D(i, i) equal to standard(a_i)."""
    kind, n = g.kind, g.period

    def window(i, j):
        return [[g.black(i + r, j - 3 + c) for c in range(4)] for r in range(4)]

    def same(m, f):
        return all(kind.eq(m[r][c], f[r][c]) for r in range(4) for c in range(4))

    def form(i, variant):
        return naive_form_matrix(SymplecticForm(g.black(i, i), variant, kind))

    for i in range(n):
        dual = form(i, "dual")
        if not same(window(i, i), form(i, "standard")):
            return False
        for j in range(i, i + n + 1):
            d = window(i, j)
            if not same(mul4(mul4(transpose4(d), dual), d), form(j % n, "standard")):
                return False
    return True


def naive_recur(table, window, first, count):
    """The recurrence loop as `diffeq._recur` ran it before it ran rational
    tables on scaled integers: every step in the kind's own arithmetic,
    so a Fraction is normalised after each product and difference.
    V[j] = sum over s of (-1)^(s+1) table[s-1][j mod n] V[j-s], plus
    (-1)^k V[j-k-1]; `window` holds V[first-k-1] .. V[first-1]."""
    k, n = len(table), len(table[0])
    seq = list(window)
    for j in range(first, first + count):
        r = j % n
        acc = seq[-1] * table[0][r]
        for s in range(2, k + 1):
            term = seq[-s] * table[s - 1][r]
            acc = acc + term if s % 2 else acc - term
        seq.append(acc - seq[-k - 1] if k % 2 else acc + seq[-k - 1])
    return seq[k + 1 :]


def naive_from_equation(table, kind):
    """The cells {(i, o): value} that `from_equation` grows from `table`, a
    tuple of cycles already in the kind, or the index of the first
    diagonal that does not close up (a 1, then k zeros)."""
    k, n = len(table), len(table[0])
    w = n - k - 2
    zero, one = kind.zero(), kind.one()
    cells = {}
    for i in range(n):
        diagonal = naive_recur(table, [zero] * k + [one], i, w + k + 1)
        if diagonal[w] != one or any(diagonal[w + 1 :]):
            return i
        cells[(i, -1)] = one
        cells.update(((i, o), v) for o, v in enumerate(diagonal[: w + 1]))
    return cells


def naive_unit_monodromy(eq):
    """Rows of the monodromy as `diffeq.monodromy` defines it: row t is the
    window (V[n-3], ..., V[n]) grown by `naive_recur` from the t-th unit
    window (V[-3], ..., V[0])."""
    zero, one = eq.kind.zero(), eq.kind.one()
    table = (eq.a, eq.b, eq.a[-1:] + eq.a[:-1])
    return [
        naive_recur(table, [one if s == t else zero for s in range(4)], 1, eq.n)[-4:]
        for t in range(4)
    ]


def naive_companion(eq, j):
    """Companion matrix E_j as plain rows: a row window (V[j-4], ..., V[j-1])
    times E_j is (V[j-3], ..., V[j]).  The last column carries the
    coefficients (-1, a[j-1], -b[j], a[j]); the rest is a shift."""
    z, o = eq.kind.zero(), eq.kind.one()
    return [
        [z, z, z, -o],
        [o, z, z, eq.a_at(j - 1)],
        [z, o, z, -eq.b_at(j)],
        [z, z, o, eq.a_at(j)],
    ]


def naive_monodromy(eq):
    """Ordered product E_1 E_2 ... E_n of the companion matrices."""
    m = naive_companion(eq, 1)
    for j in range(2, eq.n + 1):
        m = mul4(m, naive_companion(eq, j))
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


def naive_translate(grid, t):
    """Display cells shifted by 2t columns: new d[i, j] = old d[i - t, j - t]."""
    cells = {(x, o): grid.cell(x - 2 * t, o) for (x, o), _ in grid.cells()}
    return FriezeGrid.from_cells(grid.kind, grid.width, cells)


def naive_mirror_grid(grid, axis=0):
    """Display columns reflected through x = axis."""
    cells = {(x, o): grid.cell(2 * axis - x, o) for (x, o), _ in grid.cells()}
    return FriezeGrid.from_cells(grid.kind, grid.width, cells)


def naive_sign_twist(grid):
    """Every black display cell of an even row negated."""
    cells = {}
    for (x, o), v in grid.cells():
        black_even = (x - o) % 2 == 0 and o % 2 == 0
        cells[(x, o)] = -v if black_even else v
    return FriezeGrid.from_cells(grid.kind, grid.width, cells)


def naive_check_glide(grid):
    """Every display cell (x, o) equals the entry at (x + o + 6, x - o + 2w + 4)."""
    s = 2 * grid.width + 4
    return all(
        grid.kind.eq(v, grid.get((x + o) + 6, (x - o) + s))
        for (x, o), v in grid.cells()
    )


def naive_check_periodicity(grid):
    """Least even divisor p of 2n that shifts every display cell onto itself."""
    two_n = 2 * grid.period
    for p in range(2, two_n + 1, 2):
        if two_n % p:
            continue
        if all(grid.kind.eq(v, grid.cell(x + p, o)) for (x, o), v in grid.cells()):
            return p
    raise AssertionError("grid is not periodic over its own domain")


def naive_sl_translate(f, t):
    """Every stored cell (i, o) read t steps back along its row."""
    cells = {
        (i, o): f.get(i - t, i - t + o)
        for i in range(f.period)
        for o in range(-1, f.width + 1)
    }
    return SLFrieze(f.kind, f.order, f.width, cells)


def naive_gale_dual(f):
    """Row o holds cycle o of `naive_coeffs_of`, staggered by o, framed by ones."""
    table = naive_coeffs_of(f)
    k, n = f.order, f.period
    one = f.kind.one()
    cells = {}
    for i in range(n):
        cells[(i, -1)] = one
        cells[(i, k)] = one
        for o in range(k):
            cells[(i, o)] = table[o][(i + o) % n]
    return SLFrieze(f.kind, f.width, k, cells)


@dataclass(frozen=True)
class NaiveGaussian:
    """Gaussian rational re + im*i with two Fraction parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __add__(self, other):
        return NaiveGaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return NaiveGaussian(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return NaiveGaussian(-self.re, -self.im)

    def __mul__(self, other):
        return NaiveGaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        # multiply by the conjugate; the denominator |other|^2 is exact
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by Gaussian zero")
        return NaiveGaussian(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __str__(self):
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"
