import random
from fractions import Fraction
from itertools import count, product
from math import lcm

import pytest

from conftest import SIGNED_COEFFS, WIDTH1_COEFFS, WIDTH2_COEFFS, WIDTH3_COEFFS, hostile_fractions
from oracles import (
    cofactor_det,
    naive_check_glide,
    naive_check_periodicity,
    naive_gale_dual,
    naive_get,
    naive_local_rules,
    naive_mirror_grid,
    naive_sign_twist,
    naive_translate,
)
from symfrieze.cluster import formal_frieze
from symfrieze.diffeq import SymmetricDiffEq, band_determinant, white_band_determinant
from symfrieze.frieze import (
    FriezeGrid,
    GridIndex,
    MinorWindow,
    NotClosed,
    NotSuperperiodic,
    Underdetermined,
    ZeroPivot,
    ZigZag,
    check_glide,
    check_local_rules,
    check_periodicity,
    check_tame,
    dihedral_images,
    extend_through_zero,
    extract_coeffs,
    find_nonzero_double_zigzag,
    from_equation,
    mirror_grid,
    propagate_from_coeffs,
    propagate_from_zigzag,
    sign_twist,
    translate,
)
from symfrieze.scalars import COMPLEX, GAUSSIAN, RATIONAL, ComplexFloatKind, GaussianRational
from symfrieze.slfrieze import black_of, check_unimodular, gale_dual


def F(values):
    return tuple(Fraction(v) for v in values)


# ---------------------------------------------------------------------------
# indices and zig-zags

def test_grid_index_geometry():
    idx = GridIndex(2, 4)
    assert idx.x == 3 and idx.offset == 1
    assert idx.is_black
    assert not GridIndex(1, 3).is_black
    with pytest.raises(ValueError):
        GridIndex(0, 1)  # mixed parity


def test_straight_zigzag_shape():
    z = ZigZag.straight((1, 2), width=1)
    assert z.shape == (1,)
    # cluster order: the white value first, then the black one, west to east here
    assert [(idx.is_black, v) for idx, v in z.entries] == [(False, 1), (True, 2)]
    z2 = ZigZag.straight((1, 2, 3, 4), width=2)
    assert z2.shape == (1, 1)


def test_zigzag_rejects_broken_stairs():
    # rows must sit on adjacent columns
    good = ZigZag.straight((1, 1, 1, 1, 1, 1), width=3)
    assert good.width == 3
    entries = list(good.entries)
    moved = entries[:2] + [(GridIndex(e[0].I - 8, e[0].J - 8), e[1]) for e in entries[2:]]
    with pytest.raises(ValueError):
        ZigZag(3, tuple(moved))


# ---------------------------------------------------------------------------
# propagation from coefficient cycles

def test_width1_rows(width1_int):
    assert width1_int.row_cycle(0) == F((1, 2, 3, 5, 2, 1) * 2)
    assert width1_int.row_cycle(-1) == F((1,) * 12)
    assert width1_int.row_cycle(1) == F((1,) * 12)


def test_width2_rows(width2_int):
    assert width2_int.row_cycle(0) == F((6, 14, 3, 1, 1, 2, 3, 6, 4, 5, 2, 1, 1, 3))
    assert width2_int.row_cycle(1) == F((6, 4, 5, 2, 1, 1, 3, 6, 14, 3, 1, 1, 2, 3))


def test_width3_rows(width3_int):
    assert width3_int.row_cycle(0) == F(
        (2, 5, 4, 6, 4, 6, 3, 2, 1, 1, 4, 30, 10, 4, 1, 1)
    )
    assert width3_int.row_cycle(1) == F((1, 3, 14, 10, 20, 6, 3, 1) * 2)
    assert width3_int.row_cycle(2) == F(
        (1, 1, 4, 30, 10, 4, 1, 1, 2, 5, 4, 6, 4, 6, 3, 2)
    )


def test_signed_rows(width1_signed):
    assert width1_signed.row_cycle(0) == F((0, -1, 1, -2, -1, -1) * 2)


def test_signed_pairing_must_match():
    # pairing the b cycle one step off does not close
    with pytest.raises(NotSuperperiodic):
        propagate_from_coeffs(SIGNED_COEFFS[0], (-1, -2, -1, -1, -2, -1))


def test_all_ones_width1_is_not_superperiodic():
    with pytest.raises(NotSuperperiodic):
        propagate_from_coeffs((1,) * 6, (1,) * 6)


def test_closure_rejects_a_nonzero_tail():
    # width 0: the diagonal hits 1 at step w = 0, then a nonzero entry
    with pytest.raises(NotSuperperiodic) as caught:
        from_equation(((1,) * 5, (0,) * 5, (1,) * 5))
    assert caught.value.index == 0
    with pytest.raises(NotSuperperiodic) as caught:
        propagate_from_coeffs((1,) * 5, (0,) * 5)
    assert caught.value.index == 0


def test_width0_closes():
    g = propagate_from_coeffs((1,) * 5, (1,) * 5)
    assert g.width == 0
    a, b = extract_coeffs(g)
    assert all(v == 1 for v in a + b)


@pytest.mark.parametrize(
    "coeffs,period",
    [
        (WIDTH1_COEFFS, 6),
        (WIDTH2_COEFFS, 14),
        (WIDTH3_COEFFS, 16),
        (SIGNED_COEFFS, 6),
    ],
)
def test_fixture_validity(coeffs, period):
    g = propagate_from_coeffs(*coeffs)
    assert check_local_rules(g) == ()
    assert check_tame(g).ok
    assert check_glide(g)
    assert check_periodicity(g) == period


def test_extract_round_trip(width2_int, width1_signed):
    assert extract_coeffs(width2_int) == (F(WIDTH2_COEFFS[0]), F(WIDTH2_COEFFS[1]))
    assert extract_coeffs(width1_signed) == (F(SIGNED_COEFFS[0]), F(SIGNED_COEFFS[1]))


# ---------------------------------------------------------------------------
# grid access

def test_antiperiodic_sign(width2_int):
    v = width2_int.black(0, 1)
    assert width2_int.get(0, 2 + 2 * 7) == -v
    assert width2_int.get(0 + 2 * 7, 2 + 2 * 7) == v


def test_guard_rows_are_zero(width2_int):
    assert width2_int.get(5, 1) == 0  # offset -2
    assert width2_int.get(9, 1) == 0  # offset -4


def test_with_entry_replaces_one_cell(width2_int):
    idx = GridIndex(2, 4)
    changed = width2_int.with_entry(idx, Fraction(99))
    assert changed.get(idx.I, idx.J) == 99
    assert changed != width2_int
    assert check_local_rules(changed) != ()


def _raw_cells(width, start, values, boundary):
    """Display cells over 2n columns from `start`, one fresh value each."""
    rows = range(-1, width + 1) if boundary else range(width)
    return {
        (x, o): next(values)
        for o in rows
        for x in range(start, start + 2 * (width + 5))
    }


def _band_cases():
    rng = random.Random(11)
    rational = (Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in count())
    gaussian = (
        GaussianRational(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9), 2))
        for _ in count()
    )
    floats = (complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in count())
    formal = {(x + 3, o): v for (x, o), v in formal_frieze(1).cells()}
    return [
        ("rational", RATIONAL, 2, _raw_cells(2, -3, rational, True)),
        ("rational-ones", RATIONAL, 3, _raw_cells(3, 4, rational, False)),
        ("gaussian", GAUSSIAN, 1, _raw_cells(1, 5, gaussian, False)),
        ("complex-float", COMPLEX, 3, _raw_cells(3, 0, floats, True)),
        ("formal", formal_frieze(1).kind, 1, formal),
    ]


BAND_CASES = _band_cases()


@pytest.mark.parametrize("name, kind, width, cells", BAND_CASES, ids=[c[0] for c in BAND_CASES])
def test_band_store_matches_naive_reduction(name, kind, width, cells):
    g = FriezeGrid.from_cells(kind, width, cells)
    two_n = 2 * g.period
    for I in range(-2 * two_n, 2 * two_n):
        for J in range(I - 2 * two_n, I + 2 * two_n, 2):
            want = kind.coerce(naive_get(cells, width, I, J))
            assert g.get(I, J) == want, (I, J)
            band = g.black if I % 2 == 0 else g.white
            assert band(I // 2, J // 2) == want, (I, J)
    with pytest.raises(ValueError):
        g.get(0, 1)


def _local_rule_cases():
    rng = random.Random(23)
    values = {
        RATIONAL: lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        GAUSSIAN: lambda: GaussianRational(
            Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5), 2)
        ),
        COMPLEX: lambda: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
    }
    cases = []
    for kind, width, boundary in product(values, range(6), (True, False)):
        draw = values[kind]
        cells = _raw_cells(width, rng.randint(-4, 4), (draw() for _ in count()), boundary)
        name = f"random-{kind.name}-w{width}" + ("-boundary" if boundary else "")
        cases.append((name, FriezeGrid.from_cells(kind, width, cells)))
    for width, coeffs in ((1, WIDTH1_COEFFS), (2, WIDTH2_COEFFS), (3, WIDTH3_COEFFS)):
        g = propagate_from_coeffs(*coeffs)
        cases.append((f"tame-w{width}", g))
        for I, J in ((0, 0), (1, 1 + 2 * width), (3, 1), (2 * width, 2)):
            if -1 <= (J - I) // 2 <= width:
                cases.append((f"planted-w{width}-{I},{J}", g.with_entry(GridIndex(I, J), 7)))
    cases.append(("formal-w1", formal_frieze(1)))
    return cases + _scaled_rule_cases()


def _denominator_lcm(grid):
    return lcm(*(v.denominator for _, v in grid.cells()))


def _scaled_rule_cases():
    # rational grids whose common denominator D, by which `check_local_rules`
    # scales them to ints, exceeds one
    rng = random.Random(29)
    primes = (p for p in count(2) if all(p % q for q in range(2, int(p**0.5) + 1)))
    coprime = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), next(primes)) for _ in count())
    cases = [("coprime-denominators-w2", FriezeGrid.from_cells(RATIONAL, 2, _raw_cells(2, 5, coprime, False)))]
    big = F((Fraction(1, 2**61 - 1), Fraction(3, 2**31 - 1), Fraction(-5, 2**61 - 1), Fraction(2, 7), -Fraction(1, 3), 5))
    tame = propagate_from_zigzag(big, 3)
    cases += [
        ("large-D-tame-w3", tame),
        ("large-D-planted-white-w3", tame.with_entry(GridIndex(3, 5), Fraction(2, 3))),
        ("large-D-planted-black-w3", tame.with_entry(GridIndex(2, 6), Fraction(-1, 7))),
    ]
    negative = propagate_from_zigzag(F((Fraction(-1, 2), -3, Fraction(-2, 3), Fraction(-5, 4))), 2)
    two_n = 2 * negative.period
    seam = [GridIndex(x - o, x + o) for x in (0, 1, two_n - 2, two_n - 1) for o in range(2)]
    assert any(negative.get(idx.I, idx.J) < 0 for idx in seam)
    cases.append(("negative-seam-w2", negative))
    for idx in seam:
        # a negated black centre keeps its own rule; its white neighbours fail
        cases.append((f"negated-seam-w2-{idx.I},{idx.J}", negative.with_entry(idx, -negative.get(idx.I, idx.J))))
    assert all(_denominator_lcm(g) > 1 for _, g in cases)
    assert _denominator_lcm(cases[0][1]) > 2**64 and _denominator_lcm(tame) > 2**64
    return cases


LOCAL_RULE_CASES = _local_rule_cases()


@pytest.mark.parametrize("grid", [c[1] for c in LOCAL_RULE_CASES], ids=[c[0] for c in LOCAL_RULE_CASES])
def test_local_rules_match_the_full_row_scan(grid):
    assert check_local_rules(grid) == naive_local_rules(grid)


def test_rational_rule_scan_runs_on_ints(fraction_ops):
    # `_store_reader` scales a rational grid to ints once, so Fraction
    # arithmetic here means the scan read the stored Fractions
    grids = [g for _, g in LOCAL_RULE_CASES if g.kind is RATIONAL]
    fraction_ops.clear()
    bad = [check_local_rules(g) for g in grids]
    assert any(bad) and not all(bad) and not fraction_ops


@pytest.mark.parametrize("colour", [0, 1])
def test_with_entry_one_period_off(colour):
    _, kind, w, cells = BAND_CASES[0]
    g = FriezeGrid.from_cells(kind, w, cells)
    n = g.period
    I, J = 2 + colour, 4 + colour  # offset 1, interior
    stored = ((I + J) // 2, (J - I) // 2)  # a display cell given to from_cells
    # d[i, j + n] = -d[i, j] for a black cell, +d[i, j] for a white one;
    # d[i + n, j - n] = d[i, j - 2n] = d[i, j] for both
    flip = 1 if colour else -1
    for far, sign in ((GridIndex(I, J + 2 * n), flip), (GridIndex(I + 2 * n, J - 2 * n), 1)):
        changed = g.with_entry(far, 99)
        assert changed.get(far.I, far.J) == 99
        assert changed.get(I, J) == sign * 99
        want = dict(cells)
        want[stored] = Fraction(sign * 99)
        for I2 in range(-2 * n, 2 * n):
            for J2 in range(I2 - 2 * n, I2 + 2 * n, 2):
                assert changed.get(I2, J2) == naive_get(want, w, I2, J2), (I2, J2)
    assert g == FriezeGrid.from_cells(kind, w, cells)


def _tame_colour_cases():
    gauss = tuple(GAUSSIAN.coerce(v) for v in ("1+1i", "2", "1-1i", "3"))
    floats = (1 + 1j, 2 - 0.5j, 0.5 + 1j, 3, 1 - 2j, 2 + 1j)
    return [
        ("rational", propagate_from_coeffs(*WIDTH2_COEFFS)),
        ("gaussian", propagate_from_zigzag(gauss, 2, GAUSSIAN)),
        ("complex-float", propagate_from_zigzag(floats, 3, COMPLEX)),
    ]


TAME_COLOUR_CASES = _tame_colour_cases()


@pytest.mark.parametrize("g", [c[1] for c in TAME_COLOUR_CASES], ids=[c[0] for c in TAME_COLOUR_CASES])
def test_white_cells_are_black_minors_on_every_row(g):
    # both local rules, read at any row and period: a white cell is the
    # 2x2 minor of its black neighbours, a black cell squared that of its
    # white ones
    eq, b, w, n = g.kind.eq, g.black, g.white, g.period
    cells = list(product(range(-3 * n, 3 * n), repeat=2))
    bad = [
        (i, o) for i, o in cells
        if not eq(w(i, i + o), b(i, i + o) * b(i + 1, i + o + 1) - b(i + 1, i + o) * b(i, i + o + 1))
    ]
    assert not bad, f"{len(bad)} of {len(cells)} white cells differ, first {bad[0]}"
    bad = [
        (i, o) for i, o in cells
        if not eq(b(i, i + o) * b(i, i + o), w(i - 1, i + o - 1) * w(i, i + o) - w(i, i + o - 1) * w(i - 1, i + o))
    ]
    assert not bad, f"{len(bad)} of {len(cells)} black cells differ, first {bad[0]}"


def test_with_entry_rejects_guards_and_mixed_parity(width2_int):
    w, n = width2_int.width, width2_int.period
    for idx in (GridIndex(0, 2 * (w + 1)), GridIndex(1, -3), GridIndex(4, 4 - 8 + 4 * n)):
        with pytest.raises(ValueError, match="guard row"):
            width2_int.with_entry(idx, 1)
    with pytest.raises(ValueError, match="mixed parity"):
        width2_int.with_entry(GridIndex(0, 1), 1)


def test_cells_cover_fundamental_domain(width1_int):
    seen = dict(width1_int.cells())
    assert len(seen) == 12 * 3


# ---------------------------------------------------------------------------
# zig-zag propagation

def test_zigzag_matches_coeff_route(width1_int):
    g = propagate_from_zigzag((1, 1), 1)
    assert any(g == translate(width1_int, t) for t in range(6))
    g2 = propagate_from_zigzag((1, 2), 1)
    assert any(g2 == h for h in dihedral_images(width1_int))


def test_zigzag_ones_width2():
    g = propagate_from_zigzag((1, 1, 1, 1), 2)
    assert g.row_cycle(0) == F((2, 1, 1, 2, 4, 11, 4, 2, 1, 1, 2, 6, 5, 6))
    a, b = extract_coeffs(g)
    assert propagate_from_coeffs(a, b) == g


def test_zigzag_zero_pivot():
    with pytest.raises(ZeroPivot):
        propagate_from_zigzag((0, 1), 1)


@pytest.mark.parametrize("seed, width", [
    ((0.3, 1.9, 0.7, 2.3), 2),
    ((3.3, 0.01, 2.2, 5.5, 0.9, 1.7), 3),
])
def test_zigzag_float_drift_does_not_close(seed, width):
    # complex-float rounding keeps the last period from matching its start exactly
    with pytest.raises(NotClosed):
        propagate_from_zigzag(seed, width, ComplexFloatKind(0.0))
    assert check_local_rules(propagate_from_zigzag(seed, width, ComplexFloatKind(1e-6))) == ()


def test_complex_grids_with_different_tolerances_are_unequal():
    g = propagate_from_zigzag((1, 2, 3, 4), 2, ComplexFloatKind(0.5))
    cells = dict(g.cells())
    assert g == FriezeGrid.from_cells(ComplexFloatKind(0.5), 2, cells)
    cells[(0, 0)] += 0.01
    h = FriezeGrid.from_cells(ComplexFloatKind(0.5), 2, cells)
    h2 = FriezeGrid.from_cells(ComplexFloatKind(1e-9), 2, cells)
    assert (g == h, h == g) == (True, True)  # within the shared tolerance
    assert (g == h2, h2 == g) == (False, False)


def test_zigzag_wrong_count():
    with pytest.raises(ValueError):
        propagate_from_zigzag((1, 1, 1), 2)
    # the width is checked before the count
    for width in (-1, 0):
        with pytest.raises(ValueError, match=r"^zig-zag needs width >= 1$"):
            ZigZag.straight((1, 1), width)


def _zigzag_shapes(grid):
    """Every double zig-zag of `grid` with its west column in one display
    period: (shape, ZigZag) with the grid's cells, straight shapes included."""
    w = grid.width
    for s0 in range(2 * grid.period):
        for deltas in product((-1, 0, 1), repeat=w - 1):
            shape = [s0]
            for d in deltas:
                shape.append(shape[-1] + d)
            entries = tuple(
                (GridIndex(x - o, x + o), grid.cell(x, o))
                for o, c in enumerate(shape)
                for x in (c, c + 1)
            )
            yield shape, ZigZag(w, entries)


def test_every_zigzag_shape_rebuilds_the_grid(width2_int, width3_int):
    # bent shapes grow east row by row in the same sweep as straight ones;
    # each grid is rebuilt by the recurrence, which does not use the sweep
    rng = random.Random(35)
    cf = ComplexFloatKind(1e-6)
    grids = [
        (width2_int, RATIONAL),
        (width3_int, RATIONAL),
        (propagate_from_zigzag(hostile_fractions(rng, 4), 2), RATIONAL),
        (propagate_from_zigzag(hostile_fractions(rng, 6), 3), RATIONAL),
        (propagate_from_zigzag([GaussianRational(rng.randint(1, 5), rng.randint(-3, 3)) for _ in range(6)],
                               3, GAUSSIAN), GAUSSIAN),
        (propagate_from_zigzag([complex(rng.uniform(1, 3), rng.uniform(-1, 1)) for _ in range(4)], 2, cf), cf),
    ]
    for grown, kind in grids:
        g = propagate_from_coeffs(*extract_coeffs(grown), kind)
        assert g == grown
        w, bent = g.width, 0
        for shape, zz in _zigzag_shapes(g):
            assert all(not kind.is_zero(v) for _, v in zz.entries)
            bent += len(set(shape)) > 1
            assert propagate_from_zigzag(zz, kind=kind) == g, (kind.name, shape)
        assert bent == 2 * g.period * (3 ** (w - 1) - 1)


def test_the_sweep_divides_once_per_grown_cell(monkeypatch, width3_int):
    # each interior row grows its 2n cells past its own two, one division each,
    # on a straight shape and on a bent one alike
    shapes = {len(set(shape)) > 1: zz for shape, zz in _zigzag_shapes(width3_int)}
    divisions, div = [], Fraction.__truediv__
    monkeypatch.setattr(Fraction, "__truediv__", lambda a, b: divisions.append(b) or div(a, b))
    for bent in (False, True):
        divisions.clear()
        g = propagate_from_zigzag(shapes[bent])
        assert len(divisions) == 2 * g.period * g.width, bent
        assert g == width3_int


def test_bent_shapes_name_a_computed_zero():
    # formal_frieze(2) at (-4, -4, -4, -4) is tame, keeps every local rule,
    # and has zeros at display cells (12, 0) and (5, 1) only
    cells = {k: v.evaluate((-4,) * 4) for k, v in formal_frieze(2).cells()}
    g = FriezeGrid.from_cells(RATIONAL, 2, cells)
    assert check_local_rules(g) == () and check_tame(g).ok
    assert [k for k, v in g.cells() if v == 0] == [(12, 0), (5, 1)]
    failed = 0
    for shape, zz in _zigzag_shapes(g):
        if len(set(shape)) == 1 or any(v == 0 for _, v in zz.entries):
            continue
        try:
            assert propagate_from_zigzag(zz) == g
        except ZeroPivot as exc:
            failed += 1
            assert g.get(exc.index.I, exc.index.J) == 0, shape
    assert failed == 20


def test_straightening_meets_a_zero():
    # row 0 sits two columns east of row 2, and its first step east
    # divides by its own west cell, which is zero
    entries = (
        (GridIndex(3, 3), 0), (GridIndex(4, 4), 1),
        (GridIndex(1, 3), 1), (GridIndex(2, 4), 1),
        (GridIndex(-1, 3), 1), (GridIndex(0, 4), 1),
    )
    with pytest.raises(ZeroPivot) as exc:
        propagate_from_zigzag(ZigZag(3, entries))
    assert exc.value.index == GridIndex(3, 3)


# ---------------------------------------------------------------------------
# determinant entry formula

def test_entry_by_determinant(width2_int):
    eq = SymmetricDiffEq(*WIDTH2_COEFFS)
    assert band_determinant(eq, 0, 1) == width2_int.black(0, 1)
    assert white_band_determinant(eq, 1, 1) == Fraction(14)


# ---------------------------------------------------------------------------
# sign twist

TWIN_ROWS = {
    0: (-1, 1, -2, 5, -4, 6, -4, 6, -3, 2, -1, 1, -4, 30, -10, 4),
    1: (3, 1, 1, 3, 14, 10, 20, 6, 3, 1, 1, 3, 14, 10, 20, 6),
    2: (-3, 2, -1, 1, -4, 30, -10, 4, -1, 1, -2, 5, -4, 6, -4, 6),
}


def twin_grid():
    cells = {(x, o): TWIN_ROWS[o][x] for o in TWIN_ROWS for x in range(16)}
    return FriezeGrid.from_cells(RATIONAL, 3, cells)


def test_twist_produces_signed_twin(width3_int):
    assert sign_twist(width3_int) == translate(twin_grid(), 7)


def test_twist_involution(width3_int, width2_int):
    assert sign_twist(sign_twist(width3_int)) == width3_int
    assert sign_twist(sign_twist(width2_int)) == width2_int


def test_twist_preserves_tame(width3_int):
    assert check_tame(sign_twist(width3_int)).ok


# ---------------------------------------------------------------------------
# symmetries

def test_translate_cycles(width2_int):
    assert translate(width2_int, 1) != width2_int
    assert translate(width2_int, 7) == width2_int
    assert translate(translate(width2_int, 3), 4) == width2_int


def test_mirror_involution(width2_int):
    assert mirror_grid(mirror_grid(width2_int)) == width2_int


def test_dihedral_image_count(width1_int):
    images = list(dihedral_images(width1_int))
    assert len(images) == 12
    assert all(check_tame(h).ok for h in images)


def _map_grids(kind):
    """All-ones zig-zag friezes of widths 1-4 and the empty width-0 grid,
    each also with one planted cell, which breaks its glide and period."""
    grids = [FriezeGrid.from_cells(kind, 0, {})]
    grids += [propagate_from_zigzag((1,) * (2 * w), width=w, kind=kind) for w in range(1, 5)]
    return grids + [g.with_entry(GridIndex(g.width % 2, g.width % 2), 7) for g in grids]


def _same_cells(got, want):
    assert (got.kind, got.width) == (want.kind, want.width)
    assert list(got.cells()) == list(want.cells())


@pytest.mark.parametrize("kind", [RATIONAL, GAUSSIAN, COMPLEX], ids=lambda k: k.name)
def test_store_maps_match_display_cell_oracles(kind):
    periods, glides = set(), set()
    for g in _map_grids(kind):
        n = g.period
        for t in range(-n, 2 * n):
            _same_cells(translate(g, t), naive_translate(g, t))
        for axis in range(-2, 2 * n + 2):
            _same_cells(translate(mirror_grid(g), axis), naive_mirror_grid(g, axis))
        _same_cells(sign_twist(g), naive_sign_twist(g))
        glide, period = check_glide(g), check_periodicity(g)
        assert (glide, period) == (naive_check_glide(g), naive_check_periodicity(g))
        glides.add(glide)
        periods.add((period, 2 * n))
        f = black_of(g)
        if g.width:
            assert gale_dual(f) == naive_gale_dual(f)
    # both glide outcomes, and the periods 2, 6 and 8 below 2n
    assert glides == {True, False}
    assert {(2, 10), (6, 12), (8, 16)} <= periods


# ---------------------------------------------------------------------------
# degenerate grids

def test_constant_grid(width1_const):
    assert check_tame(width1_const).ok
    assert check_periodicity(width1_const) == 2


def test_alternating_middle_row(width7_zero):
    assert check_local_rules(width7_zero) == ()
    assert check_tame(width7_zero).ok
    assert check_periodicity(width7_zero) == 2


def test_null_interior_not_tame(width2_null):
    assert check_local_rules(width2_null) == ()
    result = check_tame(width2_null)
    assert not result.ok
    assert result.window == MinorWindow(3, 0, -6, Fraction(-1), Fraction(0))
    unimodular = check_unimodular(black_of(width2_null))
    assert unimodular.window == MinorWindow(4, 0, 0, Fraction(0), Fraction(1))


def test_gauss_grid_not_tame(width1_gauss):
    assert check_local_rules(width1_gauss) == ()
    result = check_tame(width1_gauss)
    assert not result.ok
    kind = width1_gauss.kind
    assert result.window == MinorWindow(4, 0, -6, kind.coerce(-1), kind.one())


def test_degenerate_grids_have_no_seed(width7_zero, width1_const):
    assert find_nonzero_double_zigzag(width7_zero) is None
    assert find_nonzero_double_zigzag(width1_const) is None


def test_width0_grid_has_no_seed():
    # no interior row, so no zig-zag; a ZigZag needs width >= 1
    g = FriezeGrid.from_cells(RATIONAL, 0, {})
    assert g.row_cycle(-1) == g.row_cycle(0) == (1,) * 10
    assert find_nonzero_double_zigzag(g) is None


def test_reprs_name_shape_and_kind(width2_int):
    assert repr(width2_int) == "FriezeGrid(width=2, period=7, scalar=rational)"
    assert repr(black_of(width2_int)) == "SLFrieze(order=3, width=2, period=7, scalar=rational)"
    assert repr(from_equation(((1, 2, 1, 2),), GAUSSIAN)) == "SLFrieze(order=1, width=1, period=4, scalar=gaussian)"


def test_a_grid_is_not_its_black_band(width2_int):
    assert width2_int.__eq__(black_of(width2_int)) is NotImplemented
    assert width2_int != black_of(width2_int)


def test_generic_grid_has_seed(width2_int):
    z = find_nonzero_double_zigzag(width2_int)
    assert z is not None
    assert all(v != 0 for _, v in z.entries)


def test_extension_through_zero():
    # continuing a signed width-1 row across a zero forces a unique value
    assert extend_through_zero((-1, 1, -2, -1, -1, 0, -1)) == [Fraction(1)]


def test_extension_by_the_4x4_minor():
    # a1 * a2 = 1 kills the 3x3 coefficient, so the 4x4 minor pins the entry
    a0, a1, a2 = Fraction(3), Fraction(2), Fraction(1, 2)
    one, zero = Fraction(1), Fraction(0)
    white, x = extend_through_zero((1, a0, 5, a1, 1, a2))
    window = [[a0, one, zero, zero], [one, a1, one, zero], [zero, one, a2, one], [zero, zero, one, x]]
    assert cofactor_det(window) == 1
    assert white == a2 * x - one  # white local rule between a2 and x, under ones
    with pytest.raises(Underdetermined):
        extend_through_zero((1, a1, 1, a2))


def _width1_rows():
    """Row 0 of width-1 grids grown from hostile rational and Gaussian
    seeds, by kind."""
    rng = random.Random(43)
    u, v, x, y = hostile_fractions(rng, 4)
    grids = [propagate_from_zigzag([u, v], 1), propagate_from_zigzag(
        [GaussianRational(u, x), GaussianRational(v, y)], 1, GAUSSIAN)]
    return [(g.kind, g.row_cycle(0)) for g in grids]


@pytest.mark.parametrize("kind,row", _width1_rows(), ids=["rational", "gaussian"])
def test_extension_continues_grown_rows(kind, row):
    # black cells sit in even columns, so a prefix from an odd column starts white
    twice = row + row
    for x0 in range(1, len(row), 2):
        for m in (4, 5):
            got = extend_through_zero(twice[x0 : x0 + m], kind)
            assert got == list(twice[x0 + m : x0 + m + 2 - m % 2]), (x0, m)


def _unit_product_cases():
    """(kind, prefix w0, a0, w1, a1, w2); the test appends a2 = 1/a1."""
    rng = random.Random(47)
    a0, a1, w0, w1 = hostile_fractions(rng, 4)
    return [
        (RATIONAL, (w0, a0, w1, a1, 0)),
        (GAUSSIAN, tuple(GaussianRational(v, t) for v, t in ((w0, 0), (a0, w1), (1, 0), (a1, a0), (0, 0)))),
        (COMPLEX, (0.5, 2 - 1j, 3.0, 0.7 + 0.2j, 0.0)),
    ]


@pytest.mark.parametrize("kind,prefix", _unit_product_cases(), ids=["rational", "gaussian", "complex"])
def test_extension_by_the_4x4_minor_matches_cofactors(kind, prefix):
    # a2 = 1/a1 zeroes the 3x3 coefficient a1*a2 - 1, so the 4x4 minor decides
    prefix = [kind.coerce(v) for v in prefix]
    prefix.append(kind.one() / prefix[3])
    a0, a1, a2 = prefix[1::2]
    white, x = extend_through_zero(prefix, kind)
    assert extend_through_zero(prefix + [white], kind) == [x]
    one, zero = kind.one(), kind.zero()
    window = [[a0, one, zero, zero], [one, a1, one, zero], [zero, one, a2, one], [zero, zero, one, x]]
    if kind.exact:
        assert cofactor_det(window) == 1 and white == a2 * x - one
    else:
        assert abs(cofactor_det(window) - 1) <= 1e-9 and abs(white - (a2 * x - one)) <= 1e-9


def test_underdetermined_extension():
    with pytest.raises(Underdetermined):
        extend_through_zero((0, 0, 0))


# ---------------------------------------------------------------------------
# random consistency

def test_random_zigzag_grids_are_tame():
    rng = random.Random(23)
    for _ in range(10):
        w = rng.randint(1, 3)
        vals = [rng.randint(1, 4) for _ in range(2 * w)]
        g = propagate_from_zigzag(vals, w)
        assert check_local_rules(g) == ()
        assert check_tame(g).ok
        assert check_glide(g)
        a, b = extract_coeffs(g)
        assert propagate_from_coeffs(a, b) == g
