from fractions import Fraction

import itertools

import pytest

import symfrieze.search as search
from oracles import canonical_key, naive_census, naive_orbits
from symfrieze.frieze import (
    NotClosed,
    ZeroPivot,
    check_glide,
    check_tame,
    mirror_grid,
    propagate_from_zigzag,
    translate,
)
from symfrieze.search import (
    DEDUP_MODES,
    SearchConfig,
    _int_columns,
    _kept,
    _least_key,
    _survivors,
    census,
    dihedral_orbits,
    enumerate_friezes,
)


@pytest.fixture(scope="module")
def width1_census():
    return enumerate_friezes(SearchConfig(1, 5))


def test_census_count_and_seeds(width1_census):
    assert len(width1_census) == 6
    seeds = [(g.get(1, 1), g.get(2, 2)) for g in width1_census]
    assert seeds == [(1, 1), (1, 2), (2, 1), (2, 3), (5, 2), (5, 3)]


def test_census_members_are_valid(width1_census):
    for g in width1_census:
        assert check_tame(g).ok
        assert check_glide(g)
        for x in range(12):
            v = g.get(x, x)
            assert v > 0 and v.denominator == 1


def test_census_matches_naive_scan(width1_census):
    naive = []
    for s1 in range(1, 6):
        for s2 in range(1, 6):
            try:
                g = propagate_from_zigzag((s1, s2), 1)
            except (ZeroPivot, NotClosed):
                continue
            vals = [g.get(x, x) for x in range(12)]
            if all(v > 0 and v.denominator == 1 for v in vals):
                naive.append((s1, s2))
    assert naive == [(g.get(1, 1), g.get(2, 2)) for g in width1_census]


def test_census_complete_at_small_bound(width1_census):
    bigger = enumerate_friezes(SearchConfig(1, 8))
    assert len(bigger) == 6
    small = {(g.get(1, 1), g.get(2, 2)) for g in width1_census}
    assert {(g.get(1, 1), g.get(2, 2)) for g in bigger} == small


def test_dedup_modes():
    assert len(enumerate_friezes(SearchConfig(1, 5, "translation"))) == 2
    assert len(enumerate_friezes(SearchConfig(1, 5, "dihedral"))) == 1
    with pytest.raises(ValueError):
        SearchConfig(1, 5, "spin")


def test_single_orbit(width1_census):
    orbits = dihedral_orbits(width1_census)
    assert len(orbits) == 1
    assert len(orbits[0]) == 6


def test_orbit_of_mirror_pair(width2_int):
    assert len(dihedral_orbits([width2_int, mirror_grid(width2_int)])) == 1


def test_orbit_input_validation(width1_census, width1_gauss, width2_int, width3_int):
    with pytest.raises(ValueError):
        dihedral_orbits([width2_int, width3_int])
    with pytest.raises(ValueError, match="gaussian"):
        dihedral_orbits([width1_gauss])
    for mixed in ([width1_census[0], width1_gauss], [width1_gauss, width1_census[0]]):
        with pytest.raises(ValueError, match="kind mismatch"):
            dihedral_orbits(mixed)
    assert dihedral_orbits([]) == []


def _same_grids(got, want):
    assert len(got) == len(want)
    for g, h in zip(got, want):
        assert g == h
        assert all(type(v) is Fraction for _, v in g.cells())


@pytest.mark.parametrize("dedup", ["none", "translation", "dihedral"])
@pytest.mark.parametrize("width,bound", [(1, 30), (2, 10), (3, 4)])
def test_census_matches_naive_oracle(width, bound, dedup):
    config = SearchConfig(width, bound, dedup)
    naive = naive_census(width, bound, dedup)
    _same_grids(enumerate_friezes(config), naive)
    found = census(config)
    assert (found.count, found.orbits) == (len(naive), len(naive_orbits(naive)))


@pytest.mark.parametrize("dedup", DEDUP_MODES)
@pytest.mark.parametrize("width,bound", [(2, 13), (3, 4), (4, 3)])
def test_census_counts_the_enumerated_grids(width, bound, dedup):
    config = SearchConfig(width, bound, dedup)
    grids = enumerate_friezes(config)
    found = census(config)
    assert (found.count, found.orbits) == (len(grids), len(dihedral_orbits(grids)))


@pytest.mark.parametrize("width,bound,largest", [(1, 5, 5), (1, 8, 5), (2, 30, 26), (3, 8, 8)])
def test_census_largest_seed(width, bound, largest):
    for dedup in DEDUP_MODES:
        assert census(SearchConfig(width, bound, dedup)).largest_seed == largest


def _same_classes(got, want, grids):
    def ids(classes):
        return [[next(i for i, g in enumerate(grids) if g is m) for m in c] for c in classes]

    assert ids(got) == ids(want)


def test_orbits_match_naive_oracle(width1_int, width2_int, width3_int):
    rational = propagate_from_zigzag([Fraction(1, 2), 2, 3, Fraction(5, 3)], 2)
    samples = [
        [width1_int, translate(width1_int, 1), translate(mirror_grid(width1_int), 2)]
        + enumerate_friezes(SearchConfig(1, 5)),
        [
            rational,
            width2_int,
            mirror_grid(width2_int),
            translate(rational, 3),
            translate(mirror_grid(rational), 3),
            translate(width2_int, 5),
        ]
        + enumerate_friezes(SearchConfig(2, 6, "dihedral")),
        [translate(mirror_grid(width3_int), 3), width3_int, translate(width3_int, 2)],
    ]
    for grids in samples:
        _same_classes(dihedral_orbits(grids), naive_orbits(grids), grids)


def test_width3_census_at_bound_10():
    assert census(SearchConfig(3, 10)) == search.Census(630, 151, 10)


@pytest.mark.parametrize("dedup", ["translation", "dihedral"])
@pytest.mark.parametrize("width,bound", [(1, 60), (2, 13), (3, 4), (4, 3)])
def test_least_key_matches_the_canonical_key_of_the_grid(width, bound, dedup):
    kept = list(_kept(_survivors(width, bound), "none"))
    grids = enumerate_friezes(SearchConfig(width, bound))
    assert len(kept) == len(grids) > 0
    for (cols, canon), grid in zip(kept, grids):
        key = _least_key(cols, dedup == "dihedral")
        assert key == canonical_key(grid, dedup)
        if dedup == "dihedral":
            assert key == canon


def _every_image_key(cols, mirrors):
    n2 = len(cols)
    bases = [cols, [cols[-x] for x in range(n2)]] if mirrors else [cols]
    return min(tuple(itertools.chain.from_iterable(b[k:] + b[:k])) for b in bases for k in range(0, n2, 2))


def test_least_key_breaks_a_first_column_tie_on_the_next_column():
    cols = [(1, 2), (5, 1), (1, 2), (4, 9), (2, 2), (3, 1)]
    assert _least_key(cols, False) == (1, 2, 4, 9, 2, 2, 3, 1, 1, 2, 5, 1) == _every_image_key(cols, False)
    assert _least_key(cols, True) == (1, 2, 3, 1, 2, 2, 4, 9, 1, 2, 5, 1) == _every_image_key(cols, True)


def test_a_seed_that_returns_among_its_own_rotations():
    cols = _int_columns([1], [1], 1)
    n2 = len(cols)
    assert [t for t in range(2, n2, 2) if cols[t:t + 2] == cols[:2]] == [n2 // 2]
    shifted = cols[-1:] + cols[:-1]
    for mirrors in (False, True):
        assert _least_key(shifted, mirrors) == _every_image_key(shifted, mirrors)
    seeds = [seed for seed, _ in _survivors(1, 5)]
    assert seeds == sorted(set(seeds)) and (1, 1) in seeds


def _seed_of(cols, width):
    whites = tuple(cols[0][o] if o % 2 == 0 else cols[1][o] for o in range(width))
    blacks = tuple(cols[1][o] if o % 2 == 0 else cols[0][o] for o in range(width))
    return whites + blacks


@pytest.mark.parametrize("width,bound", [(1, 60), (2, 30), (3, 8), (4, 3)])
def test_survivor_columns_equal_a_fresh_propagation(width, bound):
    for seed, cols in _survivors(width, bound):
        assert _seed_of(cols, width) == seed
        assert _int_columns(list(cols[0]), list(cols[1]), width) == cols


@pytest.mark.parametrize("width,bound,fresh,total", [(2, 13, 16, 80), (3, 4, 57, 114), (4, 3, 204, 260)])
def test_translates_of_an_earlier_survivor_are_not_propagated(monkeypatch, width, bound, fresh, total):
    propagated, translates = [], set()

    def spy(col1, col2, w):
        assert (tuple(col1), tuple(col2)) not in translates
        cols = _int_columns(col1, col2, w)
        if cols is not None:
            propagated.append(cols)
            translates.update((tuple(cols[t]), tuple(cols[t + 1])) for t in range(0, len(cols), 2))
        return cols

    monkeypatch.setattr(search, "_int_columns", spy)
    survivors = _survivors(width, bound)
    assert (len(propagated), len(survivors)) == (fresh, total)
