import random
from fractions import Fraction
from math import gcd

import pytest

from oracles import naive_quiver_mutate
from symfrieze.cluster import (
    ExchangeMatrix,
    LaurentPolynomial,
    NonLaurentQuotient,
    NotBipartite,
    NotSkewSymmetrizable,
    Seed,
    ValuedQuiver,
    ZeroSubstitution,
    belt_step,
    c2_square_aw,
    evaluate_frieze,
    formal_frieze,
    initial_seed,
    matrix_of,
    mutate_matrix,
    mutate_seed,
    quiver_of,
    zigzag_quiver,
)
from symfrieze.frieze import ZigZag, check_tame

X1 = LaurentPolynomial.variable(2, 0)
X2 = LaurentPolynomial.variable(2, 1)
ONE = LaurentPolynomial.constant(2, 1)

ROW_F2 = (ONE + X2**2) / X1
ROW_F3 = (ONE + X1 + X2**2) / (X1 * X2)
ROW_F4 = ((ONE + X1) ** 2 + X2**2) / (X1 * X2**2)
ROW_F5 = (ONE + X1) / X2


# ---------------------------------------------------------------------------
# seed matrices

def test_seed_matrix_values():
    assert c2_square_aw(1).rows == ((0, 1), (-2, 0))
    assert c2_square_aw(2).rows == (
        (0, -1, 1, 0),
        (1, 0, 0, -1),
        (-2, 0, 0, 1),
        (0, 2, -1, 0),
    )
    assert c2_square_aw(1).symmetrizer == (2, 1)
    assert c2_square_aw(2).symmetrizer == (2, 2, 1, 1)


def test_symmetrized_antisymmetry():
    for w in range(1, 5):
        B = c2_square_aw(w)
        d = B.symmetrizer
        for i in range(2 * w):
            for j in range(2 * w):
                assert d[i] * B.rows[i][j] == -d[j] * B.rows[j][i]


def test_rejects_non_skew_symmetrizable():
    for rows in (
        ((0, 1), (1, 0)),
        ((0, 1), (0, 0)),
        ((1, 1), (-1, 0)),
        ((0, 1, -2), (-2, 0, 1), (1, -2, 0)),
    ):
        with pytest.raises(NotSkewSymmetrizable):
            ExchangeMatrix(rows)


def _random_symmetrizable(rng, m):
    # B = D^-1 S for a positive diagonal D and a random sign pattern: d[i] * b[i][j]
    # = -d[j] * b[j][i] holds by construction, with d the answer up to scaling
    d = [rng.randint(1, 4) for _ in range(m)]
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            s = rng.choice((-2, -1, 0, 0, 0, 1, 2))
            g = gcd(d[i], d[j])
            rows[i][j], rows[j][i] = s * d[j] // g, -s * d[i] // g
    return tuple(map(tuple, rows)), d


def _primitive_per_component(rows, d):
    # d divided by its gcd on each connected component of the matrix's graph
    m = len(rows)
    out = list(d)
    seen = set()
    for root in range(m):
        if root in seen:
            continue
        comp, stack = [], [root]
        seen.add(root)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(m):
                if rows[i][j] and j not in seen:
                    seen.add(j)
                    stack.append(j)
        g = gcd(*(d[i] for i in comp))
        for i in comp:
            out[i] = d[i] // g
    return tuple(out)


def test_symmetrizer_matches_construction():
    rng = random.Random(5)
    for _ in range(300):
        m = rng.randint(1, 8)
        rows, d = _random_symmetrizable(rng, m)
        assert ExchangeMatrix(rows).symmetrizer == _primitive_per_component(rows, d)


def test_mutation_keeps_the_symmetrizer():
    # Fomin-Zelevinsky: D B skew-symmetric implies D mu_k(B) skew-symmetric
    rng = random.Random(9)
    for _ in range(40):
        rows, _ = _random_symmetrizable(rng, rng.randint(2, 6))
        M = ExchangeMatrix(rows)
        for _ in range(8):
            N = mutate_matrix(M, rng.randrange(M.m))
            assert N.symmetrizer == M.symmetrizer
            M = N


# ---------------------------------------------------------------------------
# matrix mutation

def test_rank2_mutation():
    assert mutate_matrix(c2_square_aw(1), 0).rows == ((0, -1), (2, 0))


def test_mutation_chain_reaches_f4_shape():
    B1 = mutate_matrix(c2_square_aw(2), 0)
    B2 = mutate_matrix(B1, 2)
    B3 = mutate_matrix(B2, 0)
    assert B1.rows == ((0, 1, -1, 0), (-1, 0, 1, -1), (2, -2, 0, 1), (0, 2, -1, 0))
    assert B2.rows == ((0, -1, 1, 0), (1, 0, -1, 0), (-2, 2, 0, -1), (0, 0, 1, 0))
    assert B3.rows == ((0, 1, -1, 0), (-1, 0, 0, 0), (2, 0, 0, -1), (0, 0, 1, 0))


def test_mutation_is_an_involution():
    rng = random.Random(11)
    M = c2_square_aw(3)
    for _ in range(30):
        k = rng.randrange(6)
        assert mutate_matrix(mutate_matrix(M, k), k) == M
        M = mutate_matrix(M, rng.randrange(6))


# ---------------------------------------------------------------------------
# valued quivers

EXAMPLE = ExchangeMatrix(((0, 1, 0, -1), (-2, 0, 1, 4), (0, -1, 0, -2), (1, -2, 1, 0)))


def test_example_quiver():
    assert EXAMPLE.symmetrizer == (2, 1, 1, 2)
    q = quiver_of(EXAMPLE)
    assert q.arrows == (
        (0, 1, (1, 2)),
        (1, 2, (1, 1)),
        (1, 3, (4, 2)),
        (3, 0, (1, 1)),
        (3, 2, (1, 2)),
    )
    assert matrix_of(q) == EXAMPLE
    assert quiver_of(c2_square_aw(1)).arrows == ((0, 1, (1, 2)),)


def test_quiver_mutation_matches_matrix_mutation():
    rng = random.Random(23)
    seen = [c2_square_aw(3), EXAMPLE, c2_square_aw(2)]
    for _ in range(40):
        base = seen[rng.randrange(len(seen))]
        k = rng.randrange(base.m)
        q = quiver_of(base)
        assert q.mutate(k) == naive_quiver_mutate(q, k)
        seen.append(mutate_matrix(base, k))


def test_quiver_mutation_needs_a_symmetrizer():
    # the matrix ((0, 1, -2), (-2, 0, 1), (1, -2, 0)) has no symmetrizer
    q = ValuedQuiver(3, ((0, 1, (1, 2)), (1, 2, (1, 2)), (2, 0, (1, 2))))
    with pytest.raises(NotSkewSymmetrizable):
        q.mutate(0)
    for k in (-1, 4):
        with pytest.raises(IndexError, match=f"vertex {k} out of range"):
            quiver_of(c2_square_aw(2)).mutate(k)


def test_one_sided_mutation_reverses_arrows():
    for w in (1, 2, 3):
        B = c2_square_aw(w)
        plus = [i for i in range(w) if i % 2 == 0] + [
            w + i for i in range(w) if i % 2 == 1
        ]
        M = B
        for k in plus:
            M = mutate_matrix(M, k)
        assert M == B.opposite()


# ---------------------------------------------------------------------------
# Laurent arithmetic

def test_ring_identities():
    assert (X1 + X2) * (X1 - X2) == X1 * X1 - X2 * X2
    assert (X1 * X2**2) / X2 == X1 * X2
    assert (ROW_F2 * ROW_F4 * ROW_F3) / ROW_F3 == ROW_F2 * ROW_F4
    assert X1 ** (-2) == ONE / X1**2


def test_division_failures():
    with pytest.raises(NonLaurentQuotient):
        (ROW_F2 * ROW_F3 + 1) / ROW_F3
    with pytest.raises(NonLaurentQuotient):
        (X1 + 1) / LaurentPolynomial.constant(2, 2)
    with pytest.raises(ZeroDivisionError):
        X1 / LaurentPolynomial(2)


def _random_laurent(rng, nvars, terms):
    return LaurentPolynomial(nvars, {
        tuple(rng.randint(-2, 2) for _ in range(nvars)): rng.choice((-3, -2, -1, 1, 2, 3))
        for _ in range(terms)
    })


def test_arithmetic_agrees_with_evaluation():
    rng = random.Random(17)
    point = (Fraction(2, 3), Fraction(-5, 2), Fraction(7, 4))
    for _ in range(200):
        p = _random_laurent(rng, 3, rng.randint(1, 5))
        q = _random_laurent(rng, 3, rng.randint(1, 4))
        if not q:
            continue
        pv, qv = p.evaluate(point), q.evaluate(point)
        assert (p * q).evaluate(point) == pv * qv
        assert (p + q).evaluate(point) == pv + qv
        assert (p - q).evaluate(point) == pv - qv
        assert (p * q) / q == p
        assert ((p * q) / q).evaluate(point) == pv


def test_monomial_divisors():
    rng = random.Random(29)
    for _ in range(100):
        p = _random_laurent(rng, 3, rng.randint(1, 5))
        exp = tuple(rng.randint(-2, 2) for _ in range(3))
        for c in (1, -1, 2, -3):
            mono = LaurentPolynomial(3, {exp: c})
            assert (p * mono) / mono == p
            if abs(c) > 1:
                with pytest.raises(NonLaurentQuotient):
                    (p * mono + 1) / mono
            else:
                assert (p * mono + 1) / mono == p + LaurentPolynomial(
                    3, {tuple(-e for e in exp): c})


def test_coefficients_must_be_integers():
    with pytest.raises(TypeError):
        LaurentPolynomial.constant(2, Fraction(1, 2))
    with pytest.raises(TypeError):
        LaurentPolynomial(2, {(0, 0): Fraction(1, 2)})
    with pytest.raises(ValueError):
        LaurentPolynomial(2, {(0, 0, 0): 1})


def test_evaluate_and_render():
    assert str(ROW_F3.evaluate((1, 2))) == "3"
    assert str(ROW_F3) == "(x1 + x2^2 + 1)/(x1*x2)"
    assert str(ROW_F5) == "(x1 + 1)/x2"


def test_hash_respects_equality():
    assert len({X1, X2, X1 + 0, ROW_F3, ROW_F3 * ONE}) == 3
    # equal whatever order the terms were built in
    a = LaurentPolynomial(2, {(1, 0): 1, (0, -1): 2})
    b = LaurentPolynomial(2, {(0, -1): 2, (1, 0): 1})
    assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# the formal frieze

def test_formal_width1_diagonal():
    F1 = formal_frieze(1)
    cycle = [X1, X2, ROW_F2, ROW_F3, ROW_F4, ROW_F5]
    got = [F1.get(x, x) for x in range(1, 13)]
    assert got == cycle + cycle
    assert all(v.is_positive() for v in got)
    # minors of Laurent polynomials run Bareiss over the kind itself
    assert check_tame(F1).ok


def test_formal_width2_cells_are_cluster_variables():
    F2 = formal_frieze(2)
    cells = set()
    for x in range(1, 15):
        for o in range(2):
            cells.add(F2.get(x - o, x + o))
    assert len(cells) == 14
    assert all(v.is_positive() for v in cells)

    def key(sd):
        order = sorted(range(len(sd.cluster)), key=lambda i: str(sd.cluster[i]))
        cl = tuple(str(sd.cluster[i]) for i in order)
        mat = tuple(tuple(sd.matrix.rows[i][j] for j in order) for i in order)
        return (cl, mat)

    start = initial_seed(2)
    frontier = [start]
    seen = {key(start)}
    variables = set(start.cluster)
    steps = 0
    while frontier:
        sd = frontier.pop()
        for k in range(4):
            nxt = mutate_seed(sd, k)
            steps += 1
            assert steps <= 20000
            nk = key(nxt)
            if nk in seen:
                continue
            seen.add(nk)
            frontier.append(nxt)
            variables.update(nxt.cluster)
    assert len(variables) == 28
    assert cells <= variables


# ---------------------------------------------------------------------------
# seed exchange and the bipartite belt

def test_single_exchange():
    s0 = initial_seed(1)
    s = mutate_seed(s0, 0)
    assert s.cluster == (ROW_F2, X2)
    assert s.matrix == c2_square_aw(1).opposite()
    assert mutate_seed(s, 0) == s0


def test_belt_half_step():
    s = belt_step(initial_seed(1), 1)
    assert s.cluster == (ROW_F2, X2)
    s = belt_step(s, -1)
    F1 = formal_frieze(1)
    assert set(s.cluster) == {F1.get(3, 3), F1.get(4, 4)}


@pytest.mark.parametrize("w,first_return", [(1, 3), (2, 7), (3, 8)])
def test_belt_walks_the_columns(w, first_return):
    F = formal_frieze(w)
    n = w + 5
    sd = initial_seed(w)
    returned = None
    for t in range(2 * n):
        cols = {
            F.get(2 * t + 1 + c - o, 2 * t + 1 + c + o)
            for c in (0, 1)
            for o in range(w)
        }
        assert set(sd.cluster) == cols
        sd = belt_step(belt_step(sd, 1), -1)
        if returned is None and sd == initial_seed(w):
            returned = t + 1
    assert returned == first_return
    assert sd == initial_seed(w)


def test_belt_requires_bipartite_matrix():
    lopsided = mutate_matrix(c2_square_aw(2), 0)
    with pytest.raises(NotBipartite):
        belt_step(Seed(initial_seed(2).cluster, lopsided), 1)


def test_random_words_stay_laurent():
    rng = random.Random(5)
    for _ in range(30):
        w = rng.choice((2, 3))
        sd = initial_seed(w)
        for _ in range(rng.randrange(1, 9)):
            sd = mutate_seed(sd, rng.randrange(2 * w))


# ---------------------------------------------------------------------------
# quivers of zig-zag shapes

def test_straight_shapes():
    for w in (1, 2, 3, 5):
        assert zigzag_quiver((1,) * w) == quiver_of(c2_square_aw(w))
        assert zigzag_quiver((2,) * w) == quiver_of(c2_square_aw(w).opposite())
        assert zigzag_quiver((3,) * w) == quiver_of(c2_square_aw(w))


TEN_VERTEX = ExchangeMatrix(
    (
        (0, -1, 0, 0, 0, 1, 0, 0, 0, 0),
        (1, 0, 1, 0, 0, -1, 1, -1, 0, 0),
        (0, -1, 0, -1, 0, 0, 0, 1, 0, 0),
        (0, 0, 1, 0, 1, 0, 0, 0, -1, 0),
        (0, 0, 0, -1, 0, 0, 0, 0, 1, -1),
        (-2, 2, 0, 0, 0, 0, -1, 0, 0, 0),
        (0, -2, 0, 0, 0, 1, 0, 1, 0, 0),
        (0, 2, -2, 0, 0, 0, -1, 0, 1, 0),
        (0, 0, 0, 2, -2, 0, 0, -1, 0, 1),
        (0, 0, 0, 0, 2, 0, 0, 0, -1, 0),
    )
)


def test_ten_vertex_shape():
    q = zigzag_quiver((3, 4, 3, 3, 2))
    assert matrix_of(q) == TEN_VERTEX
    assert len(q.arrows) == 16


def test_zigzag_object_input():
    zz = ZigZag.straight(list(range(1, 11)), 5, start_col=3)
    assert zigzag_quiver(zz) == zigzag_quiver((3,) * 5)
    with pytest.raises(ValueError):
        zigzag_quiver((1, 3, 1))


def test_one_shape_move_is_one_mutation():
    rng = random.Random(31)
    for _ in range(20):
        w = rng.randrange(2, 6)
        shape = [rng.randrange(3, 6)]
        for _ in range(w - 1):
            shape.append(shape[-1] + rng.choice((-1, 0, 1)))
        o = rng.randrange(w)
        moved = list(shape)
        moved[o] += 1
        if any(abs(moved[i] - moved[i - 1]) > 1 for i in range(1, w)):
            continue
        v = o if (shape[o] - o) % 2 != 0 else w + o
        assert matrix_of(zigzag_quiver(moved)) == mutate_matrix(
            matrix_of(zigzag_quiver(shape)), v
        )


# ---------------------------------------------------------------------------
# numeric evaluation

def test_evaluate_reproduces_grid(width1_int):
    zig = (width1_int.get(1, 1), width1_int.get(2, 2))
    assert evaluate_frieze(zig) == width1_int
    with pytest.raises(ZeroSubstitution):
        evaluate_frieze((0, 1))


def test_evaluate_along_paths():
    rng = random.Random(17)
    for _ in range(8):
        point = [rng.randrange(1, 4) for _ in range(4)]
        path = [rng.randrange(4) for _ in range(rng.randrange(0, 5))]
        vals = [Fraction(p) for p in point]
        M = c2_square_aw(2)
        for k in path:
            pos = neg = Fraction(1)
            for i, u in enumerate(vals):
                e = M.rows[i][k]
                if e > 0:
                    pos *= u**e
                elif e < 0:
                    neg *= u ** (-e)
            vals[k] = (pos + neg) / vals[k]
            M = mutate_matrix(M, k)
        assert evaluate_frieze(vals, path) == evaluate_frieze(point)


def test_positive_points_give_positive_grids():
    rng = random.Random(29)
    for _ in range(5):
        point = [rng.randrange(1, 4) for _ in range(4)]
        g = evaluate_frieze(point)
        assert all(g.get(x - o, x + o) > 0 for x in range(1, 15) for o in range(2))
