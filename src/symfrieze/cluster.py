"""Exchange matrices and seed mutation.

The cells of a frieze are Laurent polynomials in the cells of any one
double zig-zag.  This module supplies the exact Laurent arithmetic, the
skew-symmetrizable exchange matrices that drive mutation, and the
bipartite belt that walks a straight zig-zag around the whole pattern.
An exchange matrix is the one representation of a valued quiver: arrow
i -> j carries the weights (b[i][j], -b[j][i]) wherever b[i][j] > 0.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add, sub
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from .frieze import FriezeError, FriezeGrid, propagate_from_zigzag
from .scalars import RATIONAL, ScalarKind, _Frozen

__all__ = [
    "NonLaurentQuotient",
    "NotSkewSymmetrizable",
    "NotBipartite",
    "ZeroSubstitution",
    "LaurentPolynomial",
    "LaurentKind",
    "ExchangeMatrix",
    "Seed",
    "mutate_matrix",
    "c2_square_aw",
    "initial_seed",
    "mutate_seed",
    "belt_step",
    "formal_frieze",
    "evaluate_frieze",
]


class NonLaurentQuotient(ArithmeticError):
    """A division that had to be exact left a remainder."""


class NotSkewSymmetrizable(ValueError):
    """No positive integer diagonal makes D*B antisymmetric."""


class NotBipartite(FriezeError):
    """The exchange graph of the seed has an odd cycle."""


class ZeroSubstitution(FriezeError):
    """A cluster evaluation point contains or produces a zero value."""


class LaurentPolynomial:
    """Integer Laurent polynomial in variables x1, .., x{nvars}.

    ``terms`` maps exponent vectors to nonzero integer coefficients.
    Instances are immutable and hashable; arithmetic returns fresh
    objects.  True division is exact and raises NonLaurentQuotient when
    the quotient does not exist over the integers.  The constructor
    checks its terms; arithmetic builds its results through `_of`,
    whose dicts are clean by construction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Union[Dict, Iterable] = ()):
        cleaned: Dict[Tuple[int, ...], int] = {}
        for exp, coeff in dict(terms).items():
            exp = tuple(exp)
            if len(exp) != nvars or not all(isinstance(e, int) for e in exp):
                raise ValueError(f"exponent {exp!r} does not fit {nvars} variables")
            if not isinstance(coeff, int):
                raise TypeError("coefficients must be integers")
            if coeff:
                cleaned[exp] = coeff
        self.nvars = nvars
        self.terms = cleaned

    @classmethod
    def _of(cls, nvars: int, terms: Dict[Tuple[int, ...], int]) -> "LaurentPolynomial":
        # terms: nvars-tuples of ints to nonzero ints, owned by the result
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def constant(cls, nvars: int, value: int) -> "LaurentPolynomial":
        if not isinstance(value, int):
            raise TypeError("coefficients must be integers")
        return cls._of(nvars, {(0,) * nvars: value} if value else {})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "LaurentPolynomial":
        if not 0 <= index < nvars:
            raise IndexError(f"variable {index} out of range")
        exp = [0] * nvars
        exp[index] = 1
        return cls._of(nvars, {tuple(exp): 1})

    def _coerce(self, other) -> "LaurentPolynomial":
        if isinstance(other, LaurentPolynomial):
            if other.nvars != self.nvars:
                raise ValueError("variable counts differ")
            return other
        if isinstance(other, int):
            return LaurentPolynomial.constant(self.nvars, other)
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = self._coerce(other) if not isinstance(other, LaurentPolynomial) else other
        if other is NotImplemented:
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        one = (0,) * self.nvars
        if self.terms.keys() <= {one}:  # a constant hashes like the int it equals
            return hash(self.terms.get(one, 0))
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exp, c in other.terms.items():
            v = out.get(exp, 0) + c
            if v:
                out[exp] = v
            else:
                del out[exp]
        return LaurentPolynomial._of(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: Dict[Tuple[int, ...], int] = {}
        get = out.get
        right = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                exp = tuple(map(add, e1, e2))
                out[exp] = get(exp, 0) + c1 * c2
        return LaurentPolynomial._of(self.nvars, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "LaurentPolynomial":
        if not isinstance(power, int):
            return NotImplemented
        if power < 0:
            return LaurentPolynomial.constant(self.nvars, 1) / self ** (-power)
        out = LaurentPolynomial.constant(self.nvars, 1)
        for _ in range(power):
            out = out * self
        return out

    def __truediv__(self, other) -> "LaurentPolynomial":
        """Exact division; the quotient must again have integer terms."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            raise ZeroDivisionError("Laurent division by zero")
        n = self.nvars
        if not self.terms:
            return LaurentPolynomial._of(n, {})
        if len(other.terms) == 1:
            # a monomial divides term by term
            ((oexp, oc),) = other.terms.items()
            quot: Dict[Tuple[int, ...], int] = {}
            for e, c in self.terms.items():
                q, r = divmod(c, oc)
                if r:
                    raise NonLaurentQuotient("quotient is not a Laurent polynomial")
                quot[tuple(map(sub, e, oexp))] = q
            return LaurentPolynomial._of(n, quot)
        smin = tuple(map(min, zip(*self.terms)))
        omin = tuple(map(min, zip(*other.terms)))
        # strip the monomial content; both operands become honest polynomials
        rem = {tuple(map(sub, e, smin)): c for e, c in self.terms.items()}
        div = [(tuple(map(sub, e, omin)), c) for e, c in other.terms.items()]
        lead, lc = max(div)
        quot = {}
        get = rem.get
        while rem:
            top = max(rem)
            step = tuple(map(sub, top, lead))
            if min(step) < 0:
                raise NonLaurentQuotient("quotient is not a Laurent polynomial")
            c, r = divmod(rem[top], lc)
            if r:
                raise NonLaurentQuotient("quotient is not a Laurent polynomial")
            quot[step] = c
            for e, dc in div:
                tgt = tuple(map(add, step, e))
                v = get(tgt, 0) - c * dc
                if v:
                    rem[tgt] = v
                else:
                    del rem[tgt]
        shift = tuple(map(sub, smin, omin))
        return LaurentPolynomial._of(n, {tuple(map(add, e, shift)): c for e, c in quot.items()})

    def is_positive(self) -> bool:
        """Nonzero with every coefficient positive."""
        return bool(self.terms) and all(c > 0 for c in self.terms.values())

    def evaluate(self, point: Sequence, kind: ScalarKind = RATIONAL):
        """Substitute kind scalars for the variables."""
        values = [kind.coerce(v) for v in point]
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        total = kind.zero()
        for exp, coeff in sorted(self.terms.items()):
            term = kind.from_int(coeff)
            for v, e in zip(values, exp):
                if e < 0 and kind.is_zero(v):
                    raise ZeroSubstitution("zero raised to a negative power")
                for _ in range(abs(e)):
                    term = term * v if e > 0 else term / v
            total = total + term
        return total

    @staticmethod
    def _monomial(exp: Tuple[int, ...]) -> str:
        parts = []
        for i, e in enumerate(exp):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        den = tuple(-min(m, 0) for m in map(min, zip(*self.terms)))
        num = {tuple(map(add, e, den)): c for e, c in self.terms.items()}
        chunks: List[str] = []
        for exp, coeff in sorted(num.items(), reverse=True):
            mono = self._monomial(exp)
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f" + {body}" if coeff > 0 else f" - {body}")
        text = "".join(chunks)
        if not any(den):
            return text
        dmono = self._monomial(den)
        if len(num) > 1:
            text = f"({text})"
        if "*" in dmono:
            dmono = f"({dmono})"
        return f"{text}/{dmono}"

    def __repr__(self) -> str:
        return f"<laurent {self}>"


class LaurentKind(_Frozen):
    """Scalar kind whose elements are integer Laurent polynomials."""

    __slots__ = _fields = ("nvars",)

    def __init__(self, nvars: int):
        super().__init__(nvars)

    @property
    def name(self) -> str:
        return f"laurent{self.nvars}"

    @property
    def exact(self) -> bool:
        return True

    def zero(self) -> LaurentPolynomial:
        return LaurentPolynomial(self.nvars)

    def one(self) -> LaurentPolynomial:
        return LaurentPolynomial.constant(self.nvars, 1)

    def from_int(self, n: int) -> LaurentPolynomial:
        return LaurentPolynomial.constant(self.nvars, n)

    def coerce(self, value) -> LaurentPolynomial:
        if isinstance(value, LaurentPolynomial):
            if value.nvars != self.nvars:
                raise ValueError(f"expected {self.nvars} variables, got {value.nvars}")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        raise TypeError(f"cannot treat {value!r} as a Laurent polynomial")

    def is_zero(self, value) -> bool:
        return not value

    def eq(self, a, b) -> bool:
        return a == b


def _find_symmetrizer(rows: Tuple[Tuple[int, ...], ...]) -> Tuple[int, ...]:
    # constructive: weights propagate along the nonzero entries, one
    # component at a time, and every cycle must agree
    m = len(rows)
    for i in range(m):
        if rows[i][i]:
            raise NotSkewSymmetrizable(f"nonzero diagonal entry at {i}")
        for j in range(i + 1, m):
            b, c = rows[i][j], rows[j][i]
            if (b == 0) != (c == 0) or b * c > 0:
                raise NotSkewSymmetrizable(f"entries ({i},{j}) break the sign condition")
    # d[i] is the weight num/den as an unreduced pair of positive ints
    d: List[Union[Tuple[int, int], None]] = [None] * m
    for root in range(m):
        if d[root] is not None:
            continue
        d[root] = (1, 1)
        component = [root]
        queue = [root]
        while queue:
            i = queue.pop()
            num, den = d[i]
            for j in range(m):
                if not rows[i][j]:
                    continue
                p, q = num * abs(rows[i][j]), den * abs(rows[j][i])
                if d[j] is None:
                    d[j] = (p, q)
                    component.append(j)
                    queue.append(j)
                elif d[j][0] * q != p * d[j][1]:
                    raise NotSkewSymmetrizable("inconsistent weights around a cycle")
        scale = lcm(*(d[i][1] for i in component))
        values = [d[i][0] * scale // d[i][1] for i in component]
        g = gcd(*values)
        for i, v in zip(component, values):
            d[i] = v // g
    return tuple(d)


class ExchangeMatrix(_Frozen):
    """Square integer matrix admitting a positive integer symmetrizer.

    The symmetrizer is computed on construction; matrices without one
    are rejected with NotSkewSymmetrizable.
    """

    __slots__ = ("rows", "_symmetrizer")
    _fields = ("rows",)

    def __init__(self, rows: Tuple[Tuple[int, ...], ...]):
        rows = tuple(tuple(v for v in row) for row in rows)
        m = len(rows)
        for row in rows:
            if len(row) != m:
                raise ValueError("matrix must be square")
            for v in row:
                if not isinstance(v, int):
                    raise TypeError("entries must be integers")
        super().__init__(rows)
        object.__setattr__(self, "_symmetrizer", _find_symmetrizer(rows))

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def symmetrizer(self) -> Tuple[int, ...]:
        """Positive diagonal d with d[i]*b[i][j] == -d[j]*b[j][i]."""
        return self._symmetrizer


def mutate_matrix(matrix: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation at vertex k (0-based)."""
    r, m = matrix.rows, matrix.m
    if not 0 <= k < m:
        raise IndexError(f"vertex {k} out of range")
    # b'_ij = -b_ij on row or column k, else b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2
    rows = tuple(
        tuple(
            -r[i][j] if i == k or j == k
            else r[i][j] + (abs(r[i][k]) * r[k][j] + r[i][k] * abs(r[k][j])) // 2
            for j in range(m)
        )
        for i in range(m)
    )
    return ExchangeMatrix(rows)


def c2_square_aw(width: int) -> ExchangeMatrix:
    """Exchange matrix of a straight double zig-zag.

    Vertices 0..width-1 are the white cells read top to bottom and
    vertices width..2*width-1 the black cells.  Arrow directions
    alternate down each chain; every white-black pair in one row is
    joined by a weight (1,2) arrow.
    """
    if width < 1:
        raise ValueError("width must be positive")
    w = width
    g = [[0] * (2 * w) for _ in range(2 * w)]
    for i in range(w - 1):
        g[i][i + 1] = (-1) ** (i + 1)
        g[i + 1][i] = (-1) ** i
        g[w + i][w + i + 1] = (-1) ** i
        g[w + i + 1][w + i] = (-1) ** (i + 1)
    for i in range(w):
        g[i][w + i] = (-1) ** i
        g[w + i][i] = 2 * (-1) ** (i + 1)
    return ExchangeMatrix(tuple(tuple(row) for row in g))


class Seed(_Frozen):
    """An ordered cluster of Laurent polynomials with its matrix."""

    __slots__ = _fields = ("cluster", "matrix")

    def __init__(self, cluster: Tuple[LaurentPolynomial, ...], matrix: ExchangeMatrix):
        cluster = tuple(cluster)
        if len(cluster) != matrix.m:
            raise ValueError("cluster size does not match the matrix")
        counts = {u.nvars for u in cluster}
        if len(counts) > 1:
            raise ValueError("cluster mixes variable counts")
        super().__init__(cluster, matrix)


def initial_seed(width: int) -> Seed:
    """The cells of a straight zig-zag as their own variables."""
    nvars = 2 * width
    gens = tuple(LaurentPolynomial.variable(nvars, i) for i in range(nvars))
    return Seed(gens, c2_square_aw(width))


def _exchange(values: Sequence, matrix: ExchangeMatrix, k: int, one):
    """Exchange relation (M+ + M-) / values[k]; M+ and M- take each value to
    its positive or negative entry of column k, one factor at a time."""
    pos = neg = one
    for v, row in zip(values, matrix.rows):
        e = row[k]
        for _ in range(abs(e)):
            if e > 0:
                pos = pos * v
            else:
                neg = neg * v
    return (pos + neg) / values[k]


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Exchange the k-th cluster variable and mutate the matrix.

    The new variable is (M+ + M-)/u_k with M+- the monomials read off
    column k; the division must be exact, anything else is a bug in the
    caller's seed and surfaces as NonLaurentQuotient.
    """
    mutated = mutate_matrix(seed.matrix, k)
    one = LaurentPolynomial.constant(seed.cluster[0].nvars, 1)
    new = _exchange(seed.cluster, seed.matrix, k, one)
    cluster = seed.cluster[:k] + (new,) + seed.cluster[k + 1 :]
    return Seed(cluster, mutated)


def _bipartition(matrix: ExchangeMatrix) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    m = matrix.m
    colour: List[Union[int, None]] = [None] * m
    for root in range(m):
        if colour[root] is not None:
            continue
        colour[root] = 0
        queue = [root]
        while queue:
            i = queue.pop()
            for j in range(m):
                if not (matrix.rows[i][j] or matrix.rows[j][i]):
                    continue
                if colour[j] is None:
                    colour[j] = 1 - colour[i]
                    queue.append(j)
                elif colour[j] == colour[i]:
                    raise NotBipartite("seed quiver has an odd cycle")
    plus = tuple(i for i in range(m) if colour[i] == 0)
    minus = tuple(i for i in range(m) if colour[i] == 1)
    return plus, minus


def belt_step(s: Seed, sign: int) -> Seed:
    """Mutate every vertex of one colour class of the seed's quiver.

    The class containing vertex 0 is the plus class.  Vertices in one
    class are never joined by an arrow, so the order does not matter.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    plus, minus = _bipartition(s.matrix)
    for k in plus if sign == 1 else minus:
        s = mutate_seed(s, k)
    return s


def formal_frieze(width: int) -> FriezeGrid:
    """The frieze whose cells are Laurent polynomials in a straight
    zig-zag's cells, variables ordered as in initial_seed."""
    nvars = 2 * width
    gens = [LaurentPolynomial.variable(nvars, i) for i in range(nvars)]
    return propagate_from_zigzag(gens, width, LaurentKind(nvars))


def evaluate_frieze(point: Sequence, path: Sequence[int] = (), kind: ScalarKind = RATIONAL) -> FriezeGrid:
    """Frieze through given cell values at a mutated seed.

    `point` lists the 2w cluster values at the seed reached from the
    straight zig-zag by mutating along `path` (vertices, 0-based).  The
    values are walked back to the straight cluster and propagated.
    Positive points give positive friezes for any path.
    """
    values = [kind.coerce(z) for z in point]
    if len(values) < 2 or len(values) % 2:
        raise ValueError("need 2*width values")
    if any(kind.is_zero(v) for v in values):
        raise ZeroSubstitution("cluster values must be nonzero")
    width = len(values) // 2
    mats = [c2_square_aw(width)]
    for k in path:
        mats.append(mutate_matrix(mats[-1], k))
    for t in range(len(path) - 1, -1, -1):
        k = path[t]
        new = _exchange(values, mats[t + 1], k, kind.one())
        if kind.is_zero(new):
            raise ZeroSubstitution(f"walking back through vertex {k} produced zero")
        values[k] = new
    return propagate_from_zigzag(values, width, kind)
