"""Mutants of the package, each with the tests that must kill it.

A mutant replaces one exact piece of text in one file.  Its old text
must occur exactly once in that file, which `test_mutants.py` checks in
Tier-1, so an edit that moves the text shows up at once.

    python tests/mutants.py --run

copies `src/`, `tests/`, `bench/` and `pyproject.toml` into a temporary
directory for each mutant, applies it there, and runs pytest on its node
ids.  A mutant is killed when those tests fail; first, all the node ids
must pass on an unmutated copy.  The run prints one line per mutant and
exits 1 if any survives or cannot be applied.  It runs
outside Tier-1: each mutant costs one pytest start.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    kills: Tuple[str, ...]  # pytest node ids, relative to the repository root


_RECUR_ORACLE = (
    "tests/test_diffeq.py::test_from_equation_matches_fraction_recurrence",
    "tests/test_diffeq.py::test_monodromy_matches_fraction_recurrence",
)

_RULES_ORACLE = ("tests/test_frieze.py::test_local_rules_match_the_full_row_scan",)

_DECODER_ORACLE = ("tests/test_formats.py::test_decoder_matches_the_per_kind_oracle",)

_PAIRINGS_ORACLE = ("tests/test_legendrian.py::test_rational_pairings_match_oracle",)

_BAND_ORACLE = (
    "tests/test_diffeq.py::test_band_builder_matches_cofactor_band",
    "tests/test_diffeq.py::test_complement_builder_matches_cofactor_complement",
)

_SWEEP_ORACLE = ("tests/test_frieze.py::test_every_zigzag_shape_rebuilds_the_grid",)

MUTANTS = (
    Mutant(
        "scaled recurrence: tail weight 1",
        "src/symfrieze/diffeq.py",
        "self.tail, self.zero, self._base = d ** (len(table) + 1), 0, d",
        "self.tail, self.zero, self._base = 1, 0, d",
        _RECUR_ORACLE,
    ),
    Mutant(
        "scaled recurrence: cycle s times d, not d^s",
        "src/symfrieze/diffeq.py",
        "more = len(table[0]), [d**t for t in range(len(table))]",
        "more = len(table[0]), [1 for t in range(len(table))]",
        _RECUR_ORACLE,
    ),
    Mutant(
        "scaled recurrence: tail sign flipped",
        "src/symfrieze/diffeq.py",
        "back = seq[-k - 1] if tail == 1 else seq[-k - 1] * tail",
        "back = seq[-k - 1] if tail == 1 else -seq[-k - 1] * tail",
        _RECUR_ORACLE,
    ),
    Mutant(
        "scaled recurrence: output denominator d^(t-1)",
        "src/symfrieze/diffeq.py",
        "Fraction(x, self._base**t)",
        "Fraction(x, self._base ** (t - 1))",
        _RECUR_ORACLE,
    ),
    Mutant(
        # t is the offset j - i of a band of size t + 1
        "unit run: value built at t, not t+1",
        "src/symfrieze/diffeq.py",
        "return run.value(run.from_unit(i, size)[-1], size)",
        "return run.value(run.from_unit(i, size)[-1], size - 1)",
        _BAND_ORACLE,
    ),
    Mutant(
        "coeffs_of: cycles read in reverse order",
        "src/symfrieze/slfrieze.py",
        "for col in cols) for s in range(k))",
        "for col in cols) for s in reversed(range(k)))",
        ("tests/test_slfrieze.py::test_coeffs_of_matches_cofactor_oracle",),
    ),
    Mutant(
        "zig-zag sweep: rows start at the westmost column",
        "src/symfrieze/frieze.py",
        "ends = [(ones, lo), *zip(rows, s), (ones, lo)]",
        "ends = [(ones, lo), *((row, lo) for row in rows), (ones, lo)]",
        _SWEEP_ORACLE,
    ),
    Mutant(
        # straight shapes are untouched: there every row starts at lo
        "zig-zag sweep: neighbours indexed from the row's own west column",
        "src/symfrieze/frieze.py",
        "up[x - 1 - su] * down[x - 1 - sd]",
        "up[x - 1 - so] * down[x - 1 - so]",
        _SWEEP_ORACLE,
    ),
    Mutant(
        "zig-zag sweep: ZeroPivot names the cell solved at, not the divisor",
        "src/symfrieze/frieze.py",
        "raise ZeroPivot(GridIndex(x - 2 - o, x - 2 + o))",
        "raise ZeroPivot(GridIndex(x - 1 - o, x - 1 + o))",
        (
            "tests/test_frieze.py::test_straightening_meets_a_zero",
            "tests/test_frieze.py::test_bent_shapes_name_a_computed_zero",
        ),
    ),
    Mutant(
        # every output stays the same: the closure check and the cells read the first 2n
        "zig-zag sweep: one step past the period",
        "src/symfrieze/frieze.py",
        "lo, last = min(s), 2 * n + 1",
        "lo, last = min(s), 2 * n + 2",
        ("tests/test_frieze.py::test_the_sweep_divides_once_per_grown_cell",),
    ),
    Mutant(
        "scaled local rules: white weight 1, not D",
        "src/symfrieze/frieze.py",
        "weight, eq, zero = d, operator.eq, 0",
        "weight, eq, zero = 1, operator.eq, 0",
        _RULES_ORACLE,
    ),
    Mutant(
        # the white band is then scaled by that D, flooring what it does not divide
        "scaled local rules: D over the black band only",
        "src/symfrieze/frieze.py",
        "d, ints = _lcm_scaled([v for store in stores for v in store.values()])",
        "d, ints = _lcm_scaled(list(stores[0].values())); "
        "ints += [v.numerator * (d // v.denominator) for v in stores[1].values()]",
        _RULES_ORACLE,
    ),
    Mutant(
        "store reader: non-rational guard rows read as one",
        "src/symfrieze/frieze.py",
        "weight, eq, zero = 1, kind.eq, kind.zero()",
        "weight, eq, zero = 1, kind.eq, kind.one()",
        _RULES_ORACLE,
    ),
    Mutant(
        "scaled local rules: black centre times D",
        "src/symfrieze/frieze.py",
        "lhs = v * v if I % 2 == 0 else",
        "lhs = v * v * weight if I % 2 == 0 else",
        _RULES_ORACLE,
    ),
    Mutant(
        "band reduction: _fold without its sign flip",
        "src/symfrieze/frieze.py",
        "return key, self._flips and steps % 2 == 1",
        "return key, False",
        (
            "tests/test_frieze.py::test_band_store_matches_naive_reduction",
            "tests/test_frieze.py::test_with_entry_one_period_off",
        ),
    ),
    Mutant(
        "block check: _gram pairs (v, u)",
        "src/symfrieze/legendrian.py",
        "[_pair(form, u, v) for u, v in combinations(vectors, 2)]",
        "[_pair(form, v, u) for u, v in combinations(vectors, 2)]",
        ("tests/test_legendrian.py::test_block_check_matches_dense_oracle",),
    ),
    Mutant(
        "scaled pairings: wrap sign dropped",
        "src/symfrieze/legendrian.py",
        "Fraction(-acc if s // n % 2 else acc, dt * ds * den)",
        "Fraction(acc, dt * ds * den)",
        _PAIRINGS_ORACLE,
    ),
    Mutant(
        "scaled pairings: D_t * D_t, not D_t * D_s",
        "src/symfrieze/legendrian.py",
        "dt * ds * den)",
        "dt * dt * den)",
        _PAIRINGS_ORACLE,
    ),
    Mutant(
        "scaled pairings: den(a) dropped",
        "src/symfrieze/legendrian.py",
        "dt * ds * den)",
        "dt * ds)",
        _PAIRINGS_ORACLE,
    ),
    Mutant(
        "polygon coefficients: b not negated",
        "src/symfrieze/legendrian.py",
        "b.append(det(_column_matrix(kind, [v] + frame[:1] + frame[2:])) / d)",
        "b.append(det(_column_matrix(kind, frame[:1] + [v] + frame[2:])) / d)",
        ("tests/test_legendrian.py::test_coeffs_from_polygon",),
    ),
    Mutant(
        "lcm scaling: each value times d, not d over its denominator",
        "src/symfrieze/scalars.py",
        "v.numerator * (d // v.denominator) for v in values",
        "v.numerator * d for v in values",
        ("tests/test_scalars.py::test_lcm_scaled_matches_fraction_arithmetic",),
    ),
    Mutant(
        "scalar lexer: imaginary sign dropped",
        "src/symfrieze/scalars.py",
        'return int(a) * e, -c if sign == "-" else c, b * e',
        "return int(a) * e, c, b * e",
        _DECODER_ORACLE + ("tests/test_scalars.py::test_gaussian_str_parse_round_trip",),
    ),
    Mutant(
        "scalar lexer: Gaussian denominators crossed, a*b for a*e",
        "src/symfrieze/scalars.py",
        "return int(a) * e, -c",
        "return int(a) * b, -c",
        _DECODER_ORACLE + ("tests/test_scalars.py::test_gaussian_str_parse_round_trip",),
    ),
    Mutant(
        "scalar lexer: rational fast path drops the denominator",
        "src/symfrieze/scalars.py",
        "return Fraction(parts[0], parts[2])",
        "return Fraction(parts[0])",
        _DECODER_ORACLE,
    ),
    Mutant(
        "scalar lexer: rational fast path takes Gaussian text",
        "src/symfrieze/scalars.py",
        "if parts is not None and parts[1] is None:",
        "if parts is not None:",
        _DECODER_ORACLE,
    ),
    Mutant(
        # every output stays the same; only the lexer's int route is lost
        "scalar lexer: canonical rational text sent to Fraction(text)",
        "src/symfrieze/scalars.py",
        "if parts is not None and parts[1] is None:",
        "if parts is not None and parts[2] is None:",
        ("tests/test_scalars.py::test_canonical_rational_text_never_reaches_fraction_parsing",),
    ),
    Mutant(
        "scalar lexer: Gaussian zero denominator not refused",
        "src/symfrieze/scalars.py",
        "        if d == 0:\n            raise ZeroDivisionError",
        "        if False:\n            raise ZeroDivisionError",
        _DECODER_ORACLE,
    ),
    Mutant(
        "mutation carries a permuted symmetrizer",
        "src/symfrieze/cluster.py",
        "return ExchangeMatrix._of(tuple(rows), matrix._symmetrizer)",
        "return ExchangeMatrix._of(tuple(rows), matrix._symmetrizer[::-1])",
        ("tests/test_cluster.py::test_mutation_keeps_the_symmetrizer",),
    ),
    Mutant(
        "sparse rule reuses a row with b_ik != 0",
        "src/symfrieze/cluster.py",
        "        if a:\n            new = [v + a * p",
        "        if a > 0:\n            new = [v + a * p",
        ("tests/test_cluster.py::test_quiver_mutation_matches_matrix_mutation",),
    ),
    Mutant(
        # every output stays the same; only the guard sees the symmetrizer search
        "mutated matrix built through ExchangeMatrix(rows)",
        "src/symfrieze/cluster.py",
        "return ExchangeMatrix._of(tuple(rows), matrix._symmetrizer)",
        "return ExchangeMatrix(tuple(rows))",
        ("tests/test_cluster.py::test_mutation_takes_the_trusted_path",),
    ),
    Mutant(
        # every output stays the same; only the guard sees the products with 1
        "exchange monomials seeded with the constant one",
        "src/symfrieze/cluster.py",
        "pos, neg = (reduce(mul, side) if side else one for side in sides)",
        "pos, neg = (reduce(mul, side, one) for side in sides)",
        ("tests/test_cluster.py::test_exchange_multiplies_no_constant",),
    ),
    Mutant(
        "minor scan reads through an uncached get",
        "src/symfrieze/frieze.py",
        "read = cache(get)",
        "read = get",
        ("tests/test_slfrieze.py::test_minor_scan_reads_each_cell_once",),
    ),
    Mutant(
        "projective dual reads through an uncached get",
        "src/symfrieze/slfrieze.py",
        "cache(f.get)",
        "f.get",
        ("tests/test_slfrieze.py::test_minor_scan_reads_each_cell_once",),
    ),
    Mutant(
        # every output stays the same; only the guard sees the Fraction route
        "scaled recurrence: rational tables run in Fractions",
        "src/symfrieze/diffeq.py",
        "if isinstance(kind, RationalKind):",
        "if False:",
        ("tests/test_diffeq.py::test_rational_tables_run_on_ints",),
    ),
    Mutant(
        # every output stays the same; only the guard sees the Fraction route
        "store reader: rational grids read in Fractions",
        "src/symfrieze/frieze.py",
        "if isinstance(kind, RationalKind):",
        "if False:",
        ("tests/test_frieze.py::test_rational_rule_scan_runs_on_ints",),
    ),
)

def run(mutant: Mutant) -> str:
    """'killed', 'survived', or why the mutant's tests could not run."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in COPIED:
            src, dst = ROOT / name, Path(tmp) / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
            else:
                shutil.copy2(src, dst)
        target = Path(tmp) / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"old text occurs {text.count(mutant.old)} times"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.kills],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    # pytest exits 1 when tests ran and failed; other codes mean they did not run
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    return f"pytest exit {done.returncode}: {done.stdout.strip().splitlines()[-1:] or done.stderr.strip()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run", action="store_true", help="apply each mutant in a copy and run its tests")
    args = parser.parse_args(argv)
    if not args.run:
        for m in MUTANTS:
            print(f"{m.name}  ({m.path})")
        return 0
    # the same tests on an unmutated copy must pass, or no kill means anything
    kills = tuple(dict.fromkeys(node for m in MUTANTS for node in m.kills))
    control = run(MUTANTS[0]._replace(name="unmutated", new=MUTANTS[0].old, kills=kills))
    if control != "survived":
        print(f"the tests fail without a mutant: {control}")
        return 1
    bad = 0
    for m in MUTANTS:
        verdict = run(m)
        bad += verdict != "killed"
        print(f"{verdict:8s}  {m.name}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
