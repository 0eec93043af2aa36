import pytest
from collections import Counter
from fractions import Fraction

from symfrieze.frieze import FriezeGrid, propagate_from_coeffs
from symfrieze.scalars import GAUSSIAN, RATIONAL, GaussianRational

# coefficient cycles of the four golden friezes
WIDTH1_COEFFS = ((1, 3, 2, 1, 3, 2), (1, 2, 5, 1, 2, 5))
WIDTH2_COEFFS = ((6, 3, 1, 3, 4, 2, 1), (3, 14, 1, 2, 6, 5, 1))
WIDTH3_COEFFS = ((2, 4, 4, 3, 1, 4, 10, 1), (1, 5, 6, 6, 2, 1, 30, 4))
SIGNED_COEFFS = ((0, 1, -1, 0, 1, -1), (-1, -1, -2, -1, -1, -2))

# distinct primes next to the Mersenne prime 2^61 - 1; the lcm of the
# first three already passes 2^64
HOSTILE_DENOMINATORS = (2**61 - 1, 3, 5, 7, 11, 13)


def hostile_fractions(rng, count):
    """`count` nonzero Fractions whose denominators run through
    HOSTILE_DENOMINATORS in turn, from the first."""
    dens = HOSTILE_DENOMINATORS
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), dens[m % len(dens)]) for m in range(count)]


@pytest.fixture
def fraction_ops(monkeypatch):
    """A Counter, by operator name, of the Fraction *, + and - calls made
    while the test runs, reflected ones included: an int path that falls
    back to Fraction arithmetic shows up here.  Clear it after building
    the inputs."""
    ops = Counter()
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
        def spy(a, b, op=getattr(Fraction, name), name=name):
            ops[name] += 1
            return op(a, b)

        monkeypatch.setattr(Fraction, name, spy)
    return ops


@pytest.fixture(scope="session")
def width1_int():
    return propagate_from_coeffs(*WIDTH1_COEFFS)


@pytest.fixture(scope="session")
def width2_int():
    return propagate_from_coeffs(*WIDTH2_COEFFS)


@pytest.fixture(scope="session")
def width3_int():
    return propagate_from_coeffs(*WIDTH3_COEFFS)


@pytest.fixture(scope="session")
def width1_signed():
    return propagate_from_coeffs(*SIGNED_COEFFS)


@pytest.fixture(scope="session")
def width1_const():
    """Constant-coefficient width 1: a = 0, b = -1. Tame, 2-periodic."""
    return propagate_from_coeffs((0,) * 6, (-1,) * 6)


@pytest.fixture(scope="session")
def width1_gauss():
    """Gaussian width 1 with a = (i, -i, ...), b = 0; valid but not tame."""
    i = GaussianRational(Fraction(0), Fraction(1))
    zero = GaussianRational(Fraction(0), Fraction(0))
    a = (i, -i) * 3
    cells = {
        (x, 0): a[(x // 2) % 6] if x % 2 == 0 else zero for x in range(12)
    }
    return FriezeGrid.from_cells(GAUSSIAN, 1, cells)


@pytest.fixture(scope="session")
def width7_zero():
    """Width 7 with one alternating middle row and zeros elsewhere. Tame."""
    cells = {}
    for x in range(24):
        for o in range(7):
            cells[(x, o)] = 0 if o != 3 else (-1 if (x - o) % 2 == 0 else 1)
    return FriezeGrid.from_cells(RATIONAL, 7, cells)


@pytest.fixture(scope="session")
def width2_null():
    """All-zero interior, width 2: local rules hold but tameness fails."""
    cells = {(x, o): 0 for x in range(14) for o in range(2)}
    return FriezeGrid.from_cells(RATIONAL, 2, cells)


# ---------------------------------------------------------------------------
# acceptance reporting: one line per criterion in the terminal summary

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        prev = _ACCEPTANCE.get(name)
        if prev != "failed":
            _ACCEPTANCE[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        parts = name.split("_")
        label = " ".join(parts[3:])
        verdict = "PASS" if _ACCEPTANCE[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {int(parts[2])} ({label}): {verdict}")
