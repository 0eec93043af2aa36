"""Independent, deliberately naive reference arithmetic for the benchmark.

Nothing here imports `symfrieze`.  Grids are propagated column by column
from the local rules with `Fraction` (or a small exact Gaussian type),
determinants are Laplace expansions, documents are written and read with
the standard `json` module, and census counts come from a brute force over
every seed.  The benchmark builds its inputs and its expected outputs from
these functions, so a bug in the package cannot hide behind itself.

Run ``python3 bench/oracle.py --pin`` to recompute `census_pins.json`.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import sys
from fractions import Fraction

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "census_pins.json")

# (width, bound) -> (count, dihedral orbits); reference counts the brute
# force must reproduce before the pins are trusted.
REFERENCE_COUNTS = {(1, 5): (6, 1), (2, 10): (68, 9), (2, 30): (112, 9), (3, 8): (429, None)}

# largest seed entry pinned per width
PIN_BOUNDS = {1: 60, 2: 30, 3: 8, 4: 3}


class OracleError(Exception):
    """The reference computation itself failed (zero divisor, no closure)."""


# ---------------------------------------------------------------------------
# exact Gaussian rationals


class Gauss:
    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def _lift(self, other):
        return other if isinstance(other, Gauss) else Gauss(other)

    def __add__(self, other):
        other = self._lift(other)
        return Gauss(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return Gauss(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __neg__(self):
        return Gauss(-self.re, -self.im)

    def __mul__(self, other):
        other = self._lift(other)
        return Gauss(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("Gaussian zero")
        num = self * Gauss(other.re, -other.im)
        return Gauss(num.re / norm, num.im / norm)

    def __eq__(self, other):
        other = self._lift(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __str__(self):
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


_GAUSS = re.compile(r"^([+-]?\d+(?:/\d+)?)([+-])(\d+(?:/\d+)?)i$")


def parse_value(scalar: str, text):
    """Read one cell value as the package writes it."""
    if scalar == "rational":
        return Fraction(text)
    m = _GAUSS.match(str(text).strip())
    if not m:
        return Gauss(Fraction(text))
    im = Fraction(m.group(3))
    return Gauss(Fraction(m.group(1)), im if m.group(2) == "+" else -im)


# ---------------------------------------------------------------------------
# friezes in display coordinates


class Grid:
    """Interior cells {(x, o): value} over one display period 0 <= x < 2n.

    Boundary rows o = -1 and o = w are ones, the three rows beyond each
    are zero, and offsets further out repeat every n rows with a sign.
    """

    def __init__(self, width: int, cells: dict, scalar: str = "rational"):
        self.width = width
        self.period = width + 5
        self.cells = cells
        self.scalar = scalar
        self.one = Fraction(1) if scalar == "rational" else Gauss(1)

    def cell(self, x: int, o: int):
        w, n = self.width, self.period
        if o == -1 or o == w:
            return self.one
        if 0 <= o < w:
            return self.cells[(x % (2 * n), o)]
        return self._outside_band(x, o)

    def _outside_band(self, x: int, o: int):
        # reduce the offset into [-4, w] with one sign flip per period step
        n, w = self.period, self.width
        sign, r = 1, o
        while r > w:
            r -= n
            x -= n
            sign = -sign
        while r < -4:
            r += n
            x += n
            sign = -sign
        if r <= -2:
            return self.one * 0
        v = self.cell(x, r)
        return v if sign > 0 else -v

    def black(self, i: int, j: int):
        """d[i, j]: display column i + j, row offset j - i."""
        return self.cell(i + j, j - i)

    def translated(self, t: int) -> "Grid":
        n2 = 2 * self.period
        cells = {((x + 2 * t) % n2, o): v for (x, o), v in self.cells.items()}
        return Grid(self.width, cells, self.scalar)

    def coeffs(self):
        """a[j] = d[j, j] and b[j] = d[j - 1/2, j - 1/2], one period each."""
        n = self.period
        return (
            [self.cell(2 * j, 0) for j in range(n)],
            [self.cell(2 * j - 1, 0) for j in range(n)],
        )

    def minimal_period(self) -> int:
        n2 = 2 * self.period
        for p in range(2, n2 + 1, 2):
            if n2 % p == 0 and all(
                v == self.cells[((x + p) % n2, o)] for (x, o), v in self.cells.items()
            ):
                return p
        raise OracleError("grid is not periodic")


def propagate(values, width: int, scalar: str = "rational") -> Grid:
    """Grow a grid from a straight zig-zag at display columns 1 and 2.

    `values` are in cluster order: the w white cells top to bottom, then
    the w black cells.  Each new column comes from the local rule
    east * west = lhs(centre) + above * below, where lhs squares black
    cells.  Raises OracleError on a zero divisor or when the columns do
    not return after one period.
    """
    w = width
    n = w + 5
    one = Fraction(1) if scalar == "rational" else Gauss(1)
    whites, blacks = list(values[:w]), list(values[w:])
    c1, c2 = [], []
    for o in range(w):
        if (1 - o) % 2:  # column 1 holds the white cell of this row
            c1.append(whites[o])
            c2.append(blacks[o])
        else:
            c1.append(blacks[o])
            c2.append(whites[o])
    cols = {1: c1, 2: c2}
    for x in range(3, 2 * n + 3):
        prev, cur = cols[x - 2], cols[x - 1]
        nxt = []
        for o in range(w):
            if not prev[o]:
                raise OracleError(f"zero divisor at column {x - 2}, row {o}")
            above = cur[o - 1] if o else one
            below = cur[o + 1] if o < w - 1 else one
            centre = cur[o]
            lhs = centre * centre if (x - 1 - o) % 2 == 0 else centre
            nxt.append((lhs + above * below) / prev[o])
        cols[x] = nxt
    if cols[2 * n + 1] != c1 or cols[2 * n + 2] != c2:
        raise OracleError("propagation does not close after one period")
    cells = {(x % (2 * n), o): cols[x][o] for x in range(1, 2 * n + 1) for o in range(w)}
    return Grid(w, cells, scalar)


def cofactor_det(rows):
    """Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for c, head in enumerate(rows[0]):
        if not head:
            continue
        sub = [r[:c] + r[c + 1:] for r in rows[1:]]
        term = head * cofactor_det(sub)
        total = total - term if c % 2 else total + term
    return total


def black_window(grid: Grid, size: int, i: int, j: int):
    return [[grid.black(i + r, j + c) for c in range(size)] for r in range(size)]


def tame_window_ok(grid: Grid, size: int, i: int, j: int) -> bool:
    """One adjacent minor of the black grid against its tame value."""
    v = cofactor_det(black_window(grid, size, i, j))
    expected = {3: grid.black(i + 1, j + 1), 4: 1, 5: 0}[size]
    return v == expected


# ---------------------------------------------------------------------------
# documents, written and read as the package's canonical forms


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def display_cells(grid: Grid):
    for o in range(-1, grid.width + 1):
        for x in range(2 * grid.period):
            yield x, o, grid.cell(x, o)


def frieze_json(grid: Grid) -> str:
    entries = {f"{x - o},{x + o}": str(v) for x, o, v in display_cells(grid)}
    return _dumps(
        {"entries": entries, "kind": "frieze", "period": grid.period,
         "scalar": grid.scalar, "width": grid.width}
    )


def frieze_text(grid: Grid) -> str:
    lines = [f"frieze width={grid.width} period={grid.period} scalar={grid.scalar}"]
    for o in range(-1, grid.width + 1):
        row = []
        for x in range(2 * grid.period):
            mark = "*" if (x - o) % 2 == 0 else ""
            row.append(mark + str(grid.cell(x, o)))
        lines.append(" " * (o + 1) + " ".join(row))
    return "\n".join(lines) + "\n"


def sl_entries(grid: Grid):
    """The order-3 band of black entries, keyed (i, j)."""
    return {
        (i, i + o): grid.black(i, i + o)
        for i in range(grid.period)
        for o in range(-1, grid.width + 1)
    }


def sl_json(grid: Grid) -> str:
    entries = {f"{i},{j}": str(v) for (i, j), v in sl_entries(grid).items()}
    return _dumps(
        {"entries": entries, "kind": "sl-frieze", "order": 3, "period": grid.period,
         "scalar": grid.scalar, "width": grid.width}
    )


def polygon_parts(grid: Grid, anchor: int):
    """Vertices (d[anchor + r, j])_r for one period of j, and the form parameter."""
    n = grid.period
    vertices = [
        [grid.black(anchor + r, j) for r in range(4)]
        for j in range(anchor - 1, anchor - 1 + n)
    ]
    return anchor - 1, vertices, grid.black(anchor, anchor)


def polygon_json(grid: Grid, anchor: int) -> str:
    base, vertices, a = polygon_parts(grid, anchor)
    return _dumps(
        {"base": base, "form": {"a": str(a), "variant": "dual"}, "kind": "polygon",
         "period": grid.period, "scalar": grid.scalar,
         "vertices": [[str(v) for v in row] for row in vertices]}
    )


def read_frieze(text: str):
    """(width, scalar, {(x, o): value}) from canonical JSON or staggered text."""
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        if obj.get("kind") != "frieze":
            raise ValueError("not a frieze document")
        scalar = obj["scalar"]
        cells = {}
        for key, raw in obj["entries"].items():
            I, J = (int(t) for t in key.split(","))
            cells[((I + J) // 2, (J - I) // 2)] = parse_value(scalar, raw)
        return obj["width"], scalar, cells
    lines = text.splitlines()
    m = re.match(r"^frieze width=(\d+) period=(\d+) scalar=([a-z-]+)$", lines[0])
    if not m:
        raise ValueError("bad frieze header")
    width, scalar = int(m.group(1)), m.group(3)
    cells = {}
    for r, line in enumerate(lines[1:]):
        for x, tok in enumerate(line.split()):
            cells[(x, r - 1)] = parse_value(scalar, tok.lstrip("*"))
    return width, scalar, cells


def same_frieze(text: str, grid: Grid) -> bool:
    """Whether a frieze document holds exactly the cells of `grid`."""
    width, scalar, cells = read_frieze(text)
    if width != grid.width or scalar != grid.scalar:
        return False
    want = {(x, o): v for x, o, v in display_cells(grid)}
    return cells == want


def read_json_entries(text: str, kind: str):
    obj = json.loads(text)
    if obj.get("kind") != kind:
        raise ValueError(f"not a {kind} document")
    scalar = obj["scalar"]
    entries = {
        tuple(int(t) for t in key.split(",")): parse_value(scalar, raw)
        for key, raw in obj["entries"].items()
    }
    return obj, entries


# ---------------------------------------------------------------------------
# census brute force


def closes_positive(seed, width: int) -> bool:
    """Whether a straight seed propagates to a positive integral frieze."""
    try:
        grid = propagate([Fraction(v) for v in seed], width)
    except OracleError:
        return False
    return all(v > 0 and v.denominator == 1 for v in grid.cells.values())


def _columns_positive(seed, width: int) -> bool:
    # same rule as `propagate`, stopping at the first non-integral or
    # non-positive cell; only used to make the brute force affordable
    w = width
    whites, blacks = seed[:w], seed[w:]
    prev = [Fraction(whites[o] if (1 - o) % 2 else blacks[o]) for o in range(w)]
    cur = [Fraction(blacks[o] if (1 - o) % 2 else whites[o]) for o in range(w)]
    for x in range(3, 2 * (w + 5) + 3):
        nxt = []
        for o in range(w):
            above = cur[o - 1] if o else 1
            below = cur[o + 1] if o < w - 1 else 1
            lhs = cur[o] * cur[o] if (x - 1 - o) % 2 == 0 else cur[o]
            v = (lhs + above * below) / prev[o]
            if v <= 0 or v.denominator != 1:
                return False
            nxt.append(v)
        prev, cur = cur, nxt
    return True


def brute_force(width: int, bound: int):
    """Every seed with entries in 1..bound that gives a positive integral frieze."""
    return [
        list(seed)
        for seed in itertools.product(range(1, bound + 1), repeat=2 * width)
        if _columns_positive(seed, width) and closes_positive(seed, width)
    ]


def class_keys(seed, width: int):
    """(translation class key, dihedral class key) of a seed's frieze."""
    grid = propagate([Fraction(v) for v in seed], width)
    n2 = 2 * grid.period

    def key(cells, shift, flip):
        return tuple(
            cells[(((-x if flip else x) + shift) % n2, o)]
            for x in range(n2)
            for o in range(width)
        )

    shifts = [key(grid.cells, s, False) for s in range(0, n2, 2)]
    mirrored = shifts + [key(grid.cells, s, True) for s in range(0, n2, 2)]
    return min(shifts), min(mirrored)


class Census:
    """Expected `search enumerate` answers from pinned brute-force survivors."""

    def __init__(self, pins: dict):
        self.pins = {int(w): entry for w, entry in pins.items()}
        self._keys = {}

    def seeds(self, width: int):
        return self.pins[width]["seeds"]

    def answer(self, width: int, bound: int, dedup: str):
        """(count, orbits) that `search enumerate` must print."""
        entry = self.pins[width]
        if bound > entry["bound"]:
            raise OracleError(f"bound {bound} exceeds the pinned bound {entry['bound']}")
        seeds = [s for s in entry["seeds"] if max(s) <= bound]
        keys = [self._class_keys(s, width) for s in seeds]
        orbits = len({k[1] for k in keys})
        if dedup == "none":
            return len(seeds), orbits
        if dedup == "translation":
            return len({k[0] for k in keys}), orbits
        return orbits, orbits

    def _class_keys(self, seed, width):
        key = (width, tuple(seed))
        if key not in self._keys:
            self._keys[key] = class_keys(seed, width)
        return self._keys[key]


def load_census() -> Census:
    with open(PINS_PATH, encoding="utf-8") as fh:
        census = Census(json.load(fh))
    for (w, b), (count, orbits) in REFERENCE_COUNTS.items():
        if w in census.pins and b <= census.pins[w]["bound"]:
            got = census.answer(w, b, "none")
            if got[0] != count or (orbits is not None and got[1] != orbits):
                raise OracleError(f"pinned census at ({w},{b}) gives {got}, expected {count}")
    return census


def pin():
    pins = {}
    for w, bound in PIN_BOUNDS.items():
        seeds = brute_force(w, bound)
        pins[str(w)] = {"bound": bound, "seeds": seeds}
        print(f"width {w} bound {bound}: {len(seeds)} friezes", file=sys.stderr)
    census = Census(pins)
    for (w, b), (count, orbits) in REFERENCE_COUNTS.items():
        got = census.answer(w, b, "none")
        print(f"({w},{b}): count {got[0]}, orbits {got[1]}", file=sys.stderr)
        if got[0] != count or (orbits is not None and got[1] != orbits):
            raise OracleError(f"brute force at ({w},{b}) gives {got}, expected {count}")
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, separators=(",", ":"))
        fh.write("\n")


# ---------------------------------------------------------------------------
# cluster seeds at numeric points


def initial_matrix(width: int):
    """Exchange matrix of the straight zig-zag, whites first then blacks."""
    w = width
    b = [[0] * (2 * w) for _ in range(2 * w)]
    for i in range(w - 1):
        s = 1 if i % 2 else -1
        b[i][i + 1], b[i + 1][i] = s, -s
        b[w + i][w + i + 1], b[w + i + 1][w + i] = -s, s
    for i in range(w):
        s = 1 if i % 2 == 0 else -1
        b[i][w + i], b[w + i][i] = s, -2 * s
    return b


def mutate_matrix(matrix, k: int):
    """Fomin-Zelevinsky matrix mutation at k."""
    m = len(matrix)
    new = [row[:] for row in matrix]
    for i in range(m):
        for j in range(m):
            if i == k or j == k:
                new[i][j] = -matrix[i][j]
            else:
                bik, bkj = matrix[i][k], matrix[k][j]
                new[i][j] = matrix[i][j] + (abs(bik) * bkj + bik * abs(bkj)) // 2
    return new


def exchange(matrix, values, k: int):
    """The numeric cluster after the exchange relation at k."""
    up, down = Fraction(1), Fraction(1)
    for i, v in enumerate(values):
        e = matrix[i][k]
        if e > 0:
            up *= v ** e
        elif e < 0:
            down *= v ** -e
    out = list(values)
    out[k] = (up + down) / values[k]
    return out


def mutate(matrix, values, k: int):
    return mutate_matrix(matrix, k), exchange(matrix, values, k)


def straight_point(width: int, point, path):
    """Cluster values on the straight zig-zag, given values at the seed
    reached from it by mutating along `path`."""
    mats = [initial_matrix(width)]
    for k in path:
        mats.append(mutate_matrix(mats[-1], k))
    values = list(point)
    for t in range(len(path) - 1, -1, -1):
        values = exchange(mats[t + 1], values, path[t])
    return values


def _colour_classes(matrix):
    m = len(matrix)
    colour = [None] * m
    for root in range(m):
        if colour[root] is None:
            colour[root] = 0
            stack = [root]
            while stack:
                i = stack.pop()
                for j in range(m):
                    if (matrix[i][j] or matrix[j][i]) and colour[j] is None:
                        colour[j] = 1 - colour[i]
                        stack.append(j)
    return [i for i in range(m) if colour[i] == 0], [i for i in range(m) if colour[i] == 1]


def belt_period(width: int, point):
    """Full belt steps until matrix and cluster return, and closure at 2n."""
    start = (initial_matrix(width), list(point))
    matrix, values = start
    period, closed = None, False
    bound = 2 * (width + 5)
    for t in range(1, bound + 1):
        for sign in (0, 1):
            for k in _colour_classes(matrix)[sign]:
                matrix, values = mutate(matrix, values, k)
        if (matrix, values) == start:
            period = period or t
            closed = t == bound
    return period, closed


_TERM = re.compile(r"^(?:(\d+)\*?)?((?:x\d+(?:\^\d+)?\*?)*)$")


def _monomial(text: str, point):
    v = Fraction(1)
    for factor in filter(None, text.split("*")):
        name, _, exp = factor.partition("^")
        v *= point[int(name[1:]) - 1] ** int(exp or 1)
    return v


def eval_laurent(text: str, point) -> Fraction:
    """Value of a printed Laurent polynomial at a numeric point."""
    text = text.strip()
    num, den = text, ""
    if "/" in text:
        num, den = text.rsplit("/", 1)
    num = num.strip()
    if num.startswith("(") and num.endswith(")"):
        num = num[1:-1]
    total = Fraction(0)
    for sign, term in re.findall(r"(^-?|[+-])\s*([^+-]+)", num.replace(" ", "")):
        m = _TERM.match(term)
        if not m:
            raise ValueError(f"cannot read term {term!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        value = coeff * _monomial(m.group(2), point) if m.group(2) else Fraction(coeff)
        total += -value if sign == "-" else value
    if den:
        total /= _monomial(den.strip("()"), point)
    return total


if __name__ == "__main__":
    if sys.argv[1:] == ["--pin"]:
        pin()
    else:
        sys.exit("usage: python3 bench/oracle.py --pin")
