"""Seeded job lists for the four benchmark workloads.

A job is one `symfrieze` command line with its stdin and a check of its
exit code and stdout.  Inputs and expected outputs come from `oracle`,
never from the package.  Every workload is a fixed list of slots (command,
width, scalar kind, size); the seed picks the concrete values inside each
slot, so two seeds cost about the same while feeding different numbers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

import oracle as O

WIDTHS = (1, 2, 3, 4)


@dataclass
class Job:
    slot: str
    argv: List[str]
    stdin: str
    # returns None when (exit code, stdout) is right, else the reason
    check: Callable[[Optional[int], str], Optional[str]]


# ---------------------------------------------------------------------------
# checks


def lines_in_order(out: str, wanted) -> Optional[str]:
    """Each wanted line appears in stdout, in order; other lines may sit between."""
    lines = out.splitlines()
    pos = 0
    for want in wanted:
        while pos < len(lines) and lines[pos] != want:
            pos += 1
        if pos == len(lines):
            return f"missing line {want!r}"
        pos += 1
    return None


def expect(rc_want: int, check_out=None):
    def check(rc, out):
        if rc != rc_want:
            return f"exit code {rc}, expected {rc_want}"
        return check_out(out) if check_out else None
    return check


def frieze_is(grid: O.Grid):
    return lambda out: None if O.same_frieze(out, grid) else "frieze cells differ"


def twist_is(grid: O.Grid):
    """Black cells of even rows negated, boundary row o = w included."""
    want = {(x, o): (-v if (x - o) % 2 == 0 and o % 2 == 0 else v)
            for x, o, v in O.display_cells(grid)}

    def check(out):
        _, _, cells = O.read_frieze(out)
        return None if cells == want else "twisted cells differ"
    return check


def sl_is(order: int, width: int, entries: dict):
    def check(out):
        obj, got = O.read_json_entries(out, "sl-frieze")
        if (obj["order"], obj["width"]) != (order, width):
            return f"order/width {obj['order']}/{obj['width']}, expected {order}/{width}"
        return None if got == entries else "sl-frieze entries differ"
    return check


def dual_is(grid: O.Grid):
    """Every dual entry is the 3x3 adjacent minor, by Laplace expansion."""
    def check(out):
        obj, got = O.read_json_entries(out, "sl-frieze")
        if len(got) != grid.period * (grid.width + 2):
            return f"{len(got)} dual entries"
        for (i, j), v in got.items():
            if v != O.cofactor_det(O.black_window(grid, 3, i, j)):
                return f"dual entry ({i},{j}) is not its 3x3 minor"
        return None
    return check


def gale_entries(grid: O.Grid) -> dict:
    a, b = grid.coeffs()
    n = grid.period
    out = {}
    for i in range(n):
        out[(i, i - 1)] = out[(i, i + 3)] = grid.one
        out[(i, i)] = a[i]
        out[(i, i + 1)] = b[(i + 1) % n]
        out[(i, i + 2)] = a[(i + 1) % n]
    return out


def polygon_is(grid: O.Grid, anchor: int):
    base, vertices, a = O.polygon_parts(grid, anchor)

    def check(out):
        obj = json.loads(out)
        s = obj["scalar"]
        got = [[O.parse_value(s, v) for v in row] for row in obj["vertices"]]
        ok = (
            obj["kind"] == "polygon" and obj["base"] == base
            and obj["form"]["variant"] == "dual"
            and O.parse_value(s, obj["form"]["a"]) == a and got == vertices
        )
        return None if ok else "polygon differs"
    return check


def coeffs_are(grid: O.Grid):
    a, b = grid.coeffs()

    def check(out):
        got = {}
        for line in out.splitlines():
            name, _, rest = line.partition(": ")
            got[name] = [O.parse_value(grid.scalar, t) for t in rest.split(", ")]
        return None if got.get("a") == a and got.get("b") == b else "coefficients differ"
    return check


# ---------------------------------------------------------------------------
# inputs


class Inputs:
    """Grids of the three value families, drawn from one seeded generator."""

    def __init__(self, rng: random.Random, census: O.Census):
        self.rng = rng
        self.census = census

    def integral(self, w: int) -> O.Grid:
        seed = self.rng.choice(self.census.seeds(w))
        grid = O.propagate([Fraction(v) for v in seed], w)
        return grid.translated(self.rng.randrange(grid.period))

    def rational_point(self, w: int):
        return [Fraction(self.rng.randint(1, 5), self.rng.randint(1, 4)) for _ in range(2 * w)]

    def rational(self, w: int) -> O.Grid:
        return O.propagate(self.rational_point(w), w)

    def gaussian(self, w: int) -> O.Grid:
        while True:
            point = [
                O.Gauss(Fraction(self.rng.randint(1, 4), self.rng.randint(1, 3)),
                        Fraction(self.rng.randint(-3, 3), self.rng.randint(1, 3)))
                for _ in range(2 * w)
            ]
            try:
                return O.propagate(point, w, "gaussian")
            except O.OracleError:  # a zero divisor: draw again
                continue

    def grid(self, family: str, w: int) -> O.Grid:
        return {"int": self.integral, "rat": self.rational, "gauss": self.gaussian}[family](w)

    def sampled_tame(self, grid: O.Grid) -> None:
        """Spot-check tameness of an input by Laplace expansion."""
        n = grid.period
        for size in (3, 4, 5):
            for _ in range(2):
                i = self.rng.randrange(n)
                j = i + self.rng.randrange(n) - size - 3
                if not O.tame_window_ok(grid, size, i, j):
                    raise O.OracleError(f"generated grid fails a {size}x{size} window")


def _doc(grid: O.Grid, layout: str) -> str:
    return O.frieze_json(grid) if layout == "json" else O.frieze_text(grid)


def _values(vals) -> str:
    return ",".join(str(v) for v in vals)


def _scalar_args(grid: O.Grid):
    return ["--scalar", grid.scalar] if grid.scalar != "rational" else []


# ---------------------------------------------------------------------------
# verify: reads grids and checks minors


def verify_jobs(inp: Inputs) -> List[Job]:
    jobs = []
    for w in WIDTHS:
        for family, layout in (("int", "json"), ("int", "text"), ("int", "json"),
                               ("rat", "json"), ("rat", "text"), ("rat", "text"),
                               ("gauss", "json"), ("gauss", "text")):
            g = inp.grid(family, w)
            inp.sampled_tame(g)
            want = ["local rules: ok", "tame: true", "glide: true",
                    f"minimal period: {g.minimal_period()}"]
            jobs.append(Job(f"frieze verify w{w} {family} {layout}", ["frieze", "verify"],
                            _doc(g, layout),
                            expect(0, lambda out, want=want: lines_in_order(out, want))))
        for family in ("int", "rat", "gauss"):
            g = inp.grid(family, w)
            jobs.append(Job(f"sl black w{w} {family}", ["sl", "black"],
                            _doc(g, inp.rng.choice(("json", "text"))),
                            expect(0, sl_is(3, w, O.sl_entries(g)))))
            g = inp.grid(family, w)
            jobs.append(Job(f"sl dual w{w} {family}", ["sl", "dual"], O.sl_json(g),
                            expect(0, dual_is(g))))
            g = inp.grid(family, w)
            jobs.append(Job(f"sl to-symplectic w{w} {family}", ["sl", "to-symplectic"],
                            O.sl_json(g), expect(0, frieze_is(g))))
            g = inp.grid(family, w)
            jobs.append(Job(f"polygon coeffs w{w} {family}", ["polygon", "coeffs"],
                            O.polygon_json(g, inp.rng.randrange(g.period)),
                            expect(0, coeffs_are(g))))
        for family in ("int", "rat"):
            g = inp.grid(family, w)
            jobs.append(Job(f"sl gale w{w} {family}", ["sl", "gale"], O.sl_json(g),
                            expect(0, sl_is(w, 3, gale_entries(g)))))
    jobs.extend(planted_failures(inp))
    return jobs


def planted_failures(inp: Inputs) -> List[Job]:
    """Documents the CLI must reject with exit code 1 or 2."""
    jobs = []
    silent = lambda out: None if out == "" else "unexpected stdout"  # noqa: E731
    for w in WIDTHS:
        g = inp.integral(w)
        x, o = inp.rng.randrange(2 * g.period), inp.rng.randrange(w)
        cells = dict(g.cells)
        cells[(x, o)] += 1
        jobs.append(Job(f"planted corrupt-cell w{w}", ["frieze", "verify"],
                        O.frieze_json(O.Grid(w, cells)), expect(1, silent)))
    for w in (2, 3, 4, 2):
        zero = O.Grid(w, {(x, o): Fraction(0) for x in range(2 * (w + 5)) for o in range(w)})
        layout = inp.rng.choice(("json", "text"))
        jobs.append(Job(f"planted all-zero w{w}", ["frieze", "verify"], _doc(zero, layout),
                        expect(1, lambda out: lines_in_order(out, ["local rules: ok"])
                               or (None if "tame: false" in out else "tameness not refused"))))
    g = inp.integral(inp.rng.choice(WIDTHS))
    text = O.frieze_text(g)
    bad_token = text.replace("*", "*x", 1)
    truncated = O.frieze_json(g)[: inp.rng.randrange(20, 200)]
    short = "\n".join(text.splitlines()[:-1]) + "\n"
    for name, doc in (("bad-token", bad_token), ("truncated-json", truncated),
                      ("missing-row", short), ("sl-as-frieze", O.sl_json(g))):
        jobs.append(Job(f"planted malformed {name}", ["frieze", "verify"], doc, expect(2, silent)))
    return jobs


# ---------------------------------------------------------------------------
# build: cheap writing jobs


def build_jobs(inp: Inputs) -> List[Job]:
    jobs = []
    rng = inp.rng
    for w in WIDTHS:
        for family, layout in (("int", "text"), ("rat", "json"), ("gauss", "text")):
            g = inp.grid(family, w)
            a, b = g.coeffs()
            argv = ["frieze", "from-coeffs", f"--a={_values(a)}", f"--b={_values(b)}"]
            argv += _scalar_args(g) + (["--json"] if layout == "json" else [])
            jobs.append(Job(f"frieze from-coeffs w{w} {family}", argv, "", expect(0, frieze_is(g))))
        for family, layout in (("int", "json"), ("rat", "text"), ("gauss", "json")):
            g = inp.grid(family, w)
            # cluster order: whites top to bottom, then blacks, at columns 1 and 2
            values = [g.cell(1 + o % 2, o) for o in range(w)] + \
                     [g.cell(1 + (o + 1) % 2, o) for o in range(w)]
            argv = ["frieze", "from-zigzag", "--width", str(w), f"--values={_values(values)}"]
            argv += _scalar_args(g) + (["--json"] if layout == "json" else [])
            jobs.append(Job(f"frieze from-zigzag w{w} {family}", argv, "", expect(0, frieze_is(g))))
        for family, layout in (("int", "text"), ("rat", "json"), ("gauss", "text")):
            g = inp.grid(family, w)
            argv = ["frieze", "show"] + (["--json"] if layout == "text" else [])
            jobs.append(Job(f"frieze show w{w} {family}", argv, _doc(g, layout),
                            expect(0, frieze_is(g))))
        for family in ("int", "rat"):
            g = inp.grid(family, w)
            jobs.append(Job(f"frieze twist w{w} {family}", ["frieze", "twist"],
                            _doc(g, rng.choice(("json", "text"))), expect(0, twist_is(g))))
        for family in ("int", "rat", "gauss"):
            g = inp.grid(family, w)
            anchor = rng.randrange(g.period)
            jobs.append(Job(f"polygon from-frieze w{w} {family}",
                            ["polygon", "from-frieze", "--anchor", str(anchor)],
                            _doc(g, rng.choice(("json", "text"))), expect(0, polygon_is(g, anchor))))
        for family in ("int", "rat"):
            g = inp.grid(family, w)
            jobs.append(Job(f"polygon to-frieze w{w} {family}", ["polygon", "to-frieze"],
                            O.polygon_json(g, rng.randrange(g.period)), expect(0, frieze_is(g))))
        for family in ("int", "rat", "gauss"):
            g = inp.grid(family, w)
            a, b = g.coeffs()
            argv = ["eq", "check", f"--a={_values(a)}", f"--b={_values(b)}"] + _scalar_args(g)
            jobs.append(Job(f"eq check w{w} {family}", argv, "",
                            expect(0, lambda out: lines_in_order(out, ["superperiodic: true"]))))
        g = inp.grid("rat", w)
        a, b = g.coeffs()
        b[rng.randrange(g.period)] += 1
        jobs.append(Job(f"planted eq-check-false w{w}",
                        ["eq", "check", f"--a={_values(a)}", f"--b={_values(b)}"], "",
                        expect(1, lambda out: lines_in_order(out, ["superperiodic: false"]))))
        minus_one = [" ".join("-1" if r == c else "0" for c in range(4)) for r in range(4)]
        for family in ("int", "rat"):
            g = inp.grid(family, w)
            a, b = g.coeffs()
            jobs.append(Job(f"eq monodromy w{w} {family}",
                            ["eq", "monodromy", f"--a={_values(a)}", f"--b={_values(b)}"], "",
                            expect(0, lambda out: lines_in_order(
                                out, minus_one + ["superperiodic: true"]))))
        for length in (0, 2, 4):
            point = inp.rational_point(w)
            path = [rng.randrange(2 * w) for _ in range(length)]
            g = O.propagate(O.straight_point(w, point, path), w)
            argv = ["cluster", "evaluate", f"--point={_values(point)}"]
            argv += [f"--path={_values(path)}"] if path else []
            jobs.append(Job(f"cluster evaluate w{w} path{length}", argv, "",
                            expect(0, frieze_is(g))))
    return jobs


# ---------------------------------------------------------------------------
# census: brute-force searches


DEDUP = ("none", "translation", "dihedral")


def census_slots(rng: random.Random):
    """(width, bound, dedup) triples.

    Width 1 is cheap, so its bound (10-60) and mode are drawn freely.
    Width 2 runs bounds 6-13 once each with a seeded, near-balanced
    assignment of modes.  Width 3 is a fixed set, bound 3 twice and bound 4
    once in every mode, which the seed only orders: these few jobs carry
    most of the run's time and all of its 90th percentile, so drawing them
    would make the figures depend on the seed.
    """
    slots = [(1, rng.randint(10, 60), rng.choice(DEDUP)) for _ in range(40)]
    modes = list(DEDUP) * 3
    rng.shuffle(modes)
    slots += [(2, b, d) for b, d in zip(range(6, 14), modes)]
    slots += [(3, b, d) for b in (3, 3, 4) for d in DEDUP]
    return slots


def census_jobs(inp: Inputs) -> List[Job]:
    jobs = []
    for w, bound, dedup in census_slots(inp.rng):
        count, orbits = inp.census.answer(w, bound, dedup)
        want = [f"width: {w}", f"bound: {bound}", f"dedup: {dedup}",
                f"count: {count}, orbits: {orbits}"]
        jobs.append(Job(f"search enumerate w{w} b{bound} {dedup}",
                        ["search", "enumerate", "--width", str(w), "--bound", str(bound),
                         "--dedup", dedup], "",
                        expect(0, lambda out, want=want: lines_in_order(out, want))))
    return jobs


# ---------------------------------------------------------------------------
# cluster: Laurent seeds


def formal_is(w: int, point):
    grid = O.propagate(point, w)

    def check(out):
        lines = out.splitlines()
        if len(lines) != (w + 2) * 2 * grid.period:
            return f"{len(lines)} formal cells"
        for line in lines:
            key, _, poly = line.partition(": ")
            x, o = (int(t) for t in key.split(","))
            if O.eval_laurent(poly, point) != grid.cell(x, o):
                return f"formal cell {key} is wrong at the test point"
        return None
    return check


def belt_is(w: int, point):
    period, closed = O.belt_period(w, point)
    if not closed:
        raise O.OracleError(f"belt of width {w} does not close at the test point")
    return lambda out: lines_in_order(
        out, [f"belt period: {period}", f"identity at {2 * (w + 5)}: true"])


def mutate_is(w: int, word, point):
    matrix, values = O.initial_matrix(w), list(point)
    for k in word:
        matrix, values = O.mutate(matrix, values, k)

    def check(out):
        lines = out.splitlines()
        rows = [[int(t) for t in line.split()] for line in lines[1:1 + 2 * w]]
        if rows != matrix:
            return "exchange matrix differs"
        got = [O.eval_laurent(line.split(" = ", 1)[1], point) for line in lines[2 + 2 * w:]]
        return None if got == values else "cluster differs at the test point"
    return check


def _test_point(rng: random.Random, w: int):
    # distinct values keep accidental coincidences away from the checks
    return [Fraction(p, q) for p, q in
            zip(rng.sample(range(2, 40), 2 * w), rng.sample(range(1, 40), 2 * w))]


def cluster_jobs(inp: Inputs) -> List[Job]:
    jobs = []
    rng = inp.rng
    for w in WIDTHS:
        for _ in range(2):
            jobs.append(Job(f"cluster formal w{w}", ["cluster", "formal", "--width", str(w)], "",
                            expect(0, formal_is(w, _test_point(rng, w)))))
            jobs.append(Job(f"cluster belt w{w}", ["cluster", "belt", "--width", str(w)], "",
                            expect(0, belt_is(w, _test_point(rng, w)))))
        for slot in range(21):
            length = 1 + slot % 6
            word = []
            while len(word) < length:
                k = rng.randrange(2 * w)
                if not word or k != word[-1]:
                    word.append(k)
            jobs.append(Job(f"cluster mutate w{w} len{length}",
                            ["cluster", "mutate", "--width", str(w), "--word", _values(word)], "",
                            expect(0, mutate_is(w, word, _test_point(rng, w)))))
    return jobs


GENERATORS = {
    "verify": verify_jobs,
    "build": build_jobs,
    "census": census_jobs,
    "cluster": cluster_jobs,
}


def make_jobs(workload: str, seed: int, census: O.Census) -> List[Job]:
    rng = random.Random(f"{workload}:{seed}")
    jobs = GENERATORS[workload](Inputs(rng, census))
    rng.shuffle(jobs)
    return jobs
