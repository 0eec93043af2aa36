from fractions import Fraction

import pytest

from oracles import naive_census, naive_orbits
from symfrieze.frieze import (
    NotClosed,
    ZeroPivot,
    check_glide,
    check_tame,
    mirror_grid,
    propagate_from_zigzag,
    translate,
)
from symfrieze.search import SearchConfig, dihedral_orbits, enumerate_friezes


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
    with pytest.raises(ValueError):
        dihedral_orbits([width2_int], 12)
    assert len(dihedral_orbits(width1_census, 6)) == 1
    assert dihedral_orbits([]) == []


def _same_grids(got, want):
    assert len(got) == len(want)
    for g, h in zip(got, want):
        assert g == h
        assert all(type(v) is Fraction for _, v in g.cells())


@pytest.mark.parametrize("dedup", ["none", "translation", "dihedral"])
@pytest.mark.parametrize("width,bound", [(1, 30), (2, 10), (3, 4)])
def test_census_matches_naive_oracle(width, bound, dedup):
    _same_grids(
        enumerate_friezes(SearchConfig(width, bound, dedup)),
        naive_census(width, bound, dedup),
    )


def _same_classes(got, want, grids):
    def ids(classes):
        return [[next(i for i, g in enumerate(grids) if g is m) for m in c] for c in classes]

    assert ids(got) == ids(want)


def test_orbits_match_naive_oracle(width1_int, width2_int, width3_int):
    rational = propagate_from_zigzag([Fraction(1, 2), 2, 3, Fraction(5, 3)], 2)
    samples = [
        [width1_int, translate(width1_int, 1), mirror_grid(width1_int, 2)]
        + enumerate_friezes(SearchConfig(1, 5)),
        [
            rational,
            width2_int,
            mirror_grid(width2_int),
            translate(rational, 3),
            translate(mirror_grid(rational, 1), 2),
            translate(width2_int, 5),
        ]
        + enumerate_friezes(SearchConfig(2, 6, "dihedral")),
        [mirror_grid(width3_int, 3), width3_int, translate(width3_int, 2)],
    ]
    for grids in samples:
        _same_classes(dihedral_orbits(grids), naive_orbits(grids), grids)
