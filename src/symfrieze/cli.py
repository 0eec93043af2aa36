"""Command-line front end.

Every command is a thin wrapper over one library operation.  Exit codes:
0 on success, 1 when a verification fails (a broken local relation, a
failed minor condition, a non-superperiodic equation), 2 on parse or
usage errors.

Commands live in one table, `_COMMANDS`: group, command, handler, help
text and the functions that add the command's arguments.  A call builds
only the invoked command's parser.  The whole argparse tree, assembled
from the same table, is built only for top-level or group help, unknown
commands and leftover arguments, so that those messages are the ones
argparse prints for the tree.
"""

import argparse
import sys
from functools import partial
from typing import Optional, Sequence

from . import cluster, diffeq, formats, frieze, legendrian, search, slfrieze
from .linalg import Matrix
from .scalars import COMPLEX, SCALAR_NAMES, KindMismatch, ScalarKind, kind_by_name

__all__ = ["main"]


class VerificationFailed(Exception):
    """Raised by command handlers to signal exit code 1 with a message."""


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise formats.FormatError(f"cannot read {path}: {e.strerror}") from None


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_values(kind: ScalarKind, text: str) -> tuple:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            out.append(kind.coerce(tok))
        except (ValueError, ZeroDivisionError):
            raise formats.FormatError(
                f"cannot parse {tok!r} as a {kind.name} value"
            ) from None
    return tuple(out)


def _parse_word(text: str, what: str, width: int) -> tuple:
    """A mutation word: comma-separated vertices, each in 0..2*width-1."""
    try:
        word = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise formats.FormatError(f"{what} must be comma-separated integers") from None
    for k in word:
        if not 0 <= k < 2 * width:
            raise formats.FormatError(f"vertex {k} out of range for width {width}")
    return word


def _add_tolerance(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="absolute tolerance for complex-float comparisons",
    )


def _add_scalar(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scalar",
        choices=SCALAR_NAMES,
        default="rational",
        help="scalar kind for parsing values (default rational)",
    )
    _add_tolerance(p)


def _add_io(p: argparse.ArgumentParser, reads: bool = True, writes: bool = True) -> None:
    if reads:
        p.add_argument(
            "input", nargs="?", default="-", help="input file, or - for stdin"
        )
        _add_tolerance(p)
    if writes:
        p.add_argument("--out", default=None, help="write output here instead of stdout")


def _add_frieze_output(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--json",
        action="store_true",
        help="emit canonical JSON instead of the staggered text layout",
    )


# document type -> (its name in error messages, converter to the live object)
_DOCUMENTS = {
    formats.FriezeDocument: ("a frieze document", formats.grid_of),
    formats.SLDocument: ("an sl-frieze document", formats.sl_of),
    formats.PolygonDocument: ("a polygon document", formats.polygon_of),
}


def _load(args, doc_type, path: Optional[str] = None, to_object=None):
    """Read a `doc_type` document from `path` (default: the input argument).

    Returns the live object, built by `to_object` (default: the document
    type's converter).  A named `path` prefixes the wrong-kind error.
    """
    doc = formats.loads(_read_input(args.input if path is None else path))
    name, convert = _DOCUMENTS[doc_type]
    if not isinstance(doc, doc_type):
        prefix = "" if path is None else f"{path}: "
        raise formats.FormatError(f"{prefix}expected {name}")
    return (to_object or convert)(doc, getattr(args, "tolerance", None))


def _emit_grid(g: frieze.FriezeGrid, args, provenance=None) -> None:
    doc = formats.document_of(g, provenance)
    if getattr(args, "json", False):
        _write_output(formats.dumps(doc), args.out)
    else:
        _write_output(formats.render_frieze_text(doc), args.out)


# ---------------------------------------------------------------------------
# frieze commands

def _cmd_frieze_from_coeffs(args) -> int:
    eq = _make_equation(args)
    g = frieze.propagate_from_coeffs(eq.a, eq.b, eq.kind)
    prov = {"coefficients": {"a": args.a.split(","), "b": args.b.split(",")}}
    _emit_grid(g, args, prov if args.json else None)
    return 0


def _cmd_frieze_from_zigzag(args) -> int:
    kind = kind_by_name(args.scalar, args.tolerance)
    values = _parse_values(kind, args.values)
    g = frieze.propagate_from_zigzag(values, args.width, kind)
    prov = {"seed": args.values.split(",")}
    _emit_grid(g, args, prov if args.json else None)
    return 0


def _cmd_frieze_verify(args) -> int:
    g = _load(args, formats.FriezeDocument, to_object=formats._unchecked_grid)
    bad, tame = frieze._verdict(g)
    formats._reject_failed_rules(bad)
    print("local rules: ok")
    if not tame.ok:
        raise VerificationFailed(f"tame: false at {tame.window}")
    print("tame: true")
    if not frieze.check_glide(g):
        raise VerificationFailed("glide: false")
    print("glide: true")
    print(f"minimal period: {frieze.check_periodicity(g)}")
    return 0


def _cmd_frieze_show(args) -> int:
    _emit_grid(_load(args, formats.FriezeDocument), args)
    return 0


def _cmd_frieze_twist(args) -> int:
    _emit_grid(frieze.sign_twist(_load(args, formats.FriezeDocument)), args)
    return 0


# ---------------------------------------------------------------------------
# eq commands

def _make_equation(args) -> diffeq.SymmetricDiffEq:
    kind = kind_by_name(args.scalar, args.tolerance)
    a = _parse_values(kind, args.a)
    b = _parse_values(kind, args.b)
    return diffeq.SymmetricDiffEq(a, b, kind)


def _cmd_eq_check(args) -> int:
    eq = _make_equation(args)
    if not diffeq.is_superperiodic(eq):
        raise VerificationFailed("superperiodic: false")
    print("superperiodic: true")
    return 0


def _cmd_eq_monodromy(args) -> int:
    eq = _make_equation(args)
    m = diffeq.monodromy(eq)
    for row in m.rows:
        print(" ".join(str(v) for v in row))
    if m != -Matrix.identity(eq.kind, 4):
        raise VerificationFailed("superperiodic: false")
    print("superperiodic: true")
    return 0


def _cmd_eq_variety(args) -> int:
    eq = _make_equation(args)
    residuals = diffeq.variety_residuals(eq.a, eq.b, eq.kind)
    for k, r in enumerate(residuals):
        print(f"residual[{k}]: {r}")
    if any(not eq.kind.is_zero(r) for r in residuals):
        raise VerificationFailed("on variety: false")
    print("on variety: true")
    return 0


# ---------------------------------------------------------------------------
# sl commands

def _cmd_sl_black(args) -> int:
    f = slfrieze.black_of(_load(args, formats.FriezeDocument))
    _write_output(formats.dumps(formats.sl_document_of(f)), args.out)
    return 0


def _cmd_sl_to_symplectic(args) -> int:
    g = slfrieze.symplectic_of(_load(args, formats.SLDocument))
    _emit_grid(g, args)
    return 0


def _cmd_sl_dual(args) -> int:
    f = slfrieze.projective_dual(_load(args, formats.SLDocument))
    _write_output(formats.dumps(formats.sl_document_of(f)), args.out)
    return 0


def _cmd_sl_gale(args) -> int:
    f = slfrieze.gale_dual(_load(args, formats.SLDocument))
    _write_output(formats.dumps(formats.sl_document_of(f)), args.out)
    return 0


# ---------------------------------------------------------------------------
# cluster commands

def _cmd_cluster_belt(args) -> int:
    w = args.width
    start = cluster.initial_seed(w)
    bound = 2 * (w + 5)
    seed = start
    period = None
    for t in range(1, bound + 1):
        seed = cluster.belt_step(cluster.belt_step(seed, +1), -1)
        if seed == start and period is None:
            period = t
    if period is None:
        raise VerificationFailed(f"belt did not close within {bound} full steps")
    print(f"belt period: {period}")
    print(f"identity at {bound}: {'true' if seed == start else 'false'}")
    return 0 if seed == start else 1


def _cmd_cluster_mutate(args) -> int:
    seed = cluster.initial_seed(args.width)
    for k in _parse_word(args.word, "--word", args.width):
        seed = cluster.mutate_seed(seed, k)
    print("exchange matrix:")
    for row in seed.matrix.rows:
        print("  " + " ".join(str(v) for v in row))
    print("cluster:")
    for k, u in enumerate(seed.cluster):
        print(f"  u[{k}] = {u}")
    return 0


def _cmd_cluster_formal(args) -> int:
    g = cluster.formal_frieze(args.width)
    lines = [f"{x},{o}: {v}" for (x, o), v in g.cells()]
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_cluster_evaluate(args) -> int:
    kind = kind_by_name(args.scalar, args.tolerance)
    point = _parse_values(kind, args.point)
    path = _parse_word(args.path, "--path", len(point) // 2)
    g = cluster.evaluate_frieze(point, path, kind)
    _emit_grid(g, args)
    return 0


# ---------------------------------------------------------------------------
# polygon commands

def _cmd_polygon_from_frieze(args) -> int:
    p = legendrian.polygon_from_frieze(_load(args, formats.FriezeDocument), args.anchor)
    _write_output(formats.dumps(formats.polygon_document_of(p)), args.out)
    return 0


def _cmd_polygon_to_frieze(args) -> int:
    g = legendrian.frieze_from_polygon(_load(args, formats.PolygonDocument))
    _emit_grid(g, args)
    return 0


def _cmd_polygon_normalize(args) -> int:
    p = _load(args, formats.PolygonDocument)
    tolerance = args.tolerance if args.tolerance is not None else COMPLEX.tolerance
    p = legendrian.normalize_lift(p.vertices, p.form, tolerance, p.base)
    _write_output(formats.dumps(formats.polygon_document_of(p)), args.out)
    return 0


def _cmd_polygon_coeffs(args) -> int:
    a, b = legendrian.coeffs_from_polygon(_load(args, formats.PolygonDocument))
    print("a: " + ", ".join(str(v) for v in a))
    print("b: " + ", ".join(str(v) for v in b))
    return 0


# ---------------------------------------------------------------------------
# search commands

def _cmd_search_enumerate(args) -> int:
    found = search.census(search.SearchConfig(args.width, args.bound, args.dedup))
    print(f"width: {args.width}")
    print(f"bound: {args.bound}")
    print(f"dedup: {args.dedup}")
    print(f"count: {found.count}, orbits: {found.orbits}")
    print(f"largest seed entry: {found.largest_seed}")
    return 0


def _cmd_search_orbits(args) -> int:
    grids = []
    names = []
    for path in args.inputs:
        grids.append(_load(args, formats.FriezeDocument, path))
        names.append(path)
    classes = search.dihedral_orbits(grids)
    by_id = {id(g): name for g, name in zip(grids, names)}
    print(f"orbits: {len(classes)}")
    for k, members in enumerate(classes):
        print(f"orbit {k}: " + " ".join(by_id[id(g)] for g in members))
    return 0


# ---------------------------------------------------------------------------
# command table


def _arg(*names, **kwargs):
    """An argument adder: `_arg(...)(p)` is `p.add_argument(...)`."""
    return lambda p: p.add_argument(*names, **kwargs)


_WIDTH = _arg("--width", type=int, required=True)
_READER = partial(_add_io, writes=False)
_WRITER = partial(_add_io, reads=False)
_FRIEZE_IN_OUT = (_add_io, _add_frieze_output)
_COEFFS = (
    _arg("--a", required=True, help="comma-separated cycle of a-coefficients"),
    _arg("--b", required=True, help="comma-separated cycle of b-coefficients"),
    _add_scalar,
)

# group -> (help, {command -> (handler, help, argument adders in order)})
_COMMANDS = {
    "frieze": ("build, verify, and render friezes", {
        "from-coeffs": (_cmd_frieze_from_coeffs, "propagate a frieze from coefficient cycles",
                        _COEFFS + (_WRITER, _add_frieze_output)),
        "from-zigzag": (_cmd_frieze_from_zigzag, "propagate a frieze from two seed columns", (
            _arg("--values", required=True, help="2*width seed values, west to east"),
            _WIDTH, _add_scalar, _WRITER, _add_frieze_output)),
        "verify": (_cmd_frieze_verify, "check local rules, tameness, glide symmetry", (_READER,)),
        "show": (_cmd_frieze_show, "re-render a frieze document", _FRIEZE_IN_OUT),
        "twist": (_cmd_frieze_twist, "apply the boundary sign twist", _FRIEZE_IN_OUT),
    }),
    "eq": ("symmetric difference equations", {
        "check": (_cmd_eq_check, "test superperiodicity", _COEFFS),
        "monodromy": (_cmd_eq_monodromy,
                      "print the period-length product of one-step transfer matrices", _COEFFS),
        "variety": (_cmd_eq_variety,
                    "evaluate the defining residuals of the coefficient variety", _COEFFS),
    }),
    "sl": ("linear friezes and their dualities", {
        "black": (_cmd_sl_black, "extract the black half of a frieze", (_add_io,)),
        "to-symplectic": (_cmd_sl_to_symplectic, "rebuild a frieze from an order-3 band",
                          _FRIEZE_IN_OUT),
        "dual": (_cmd_sl_dual, "projective dual band", (_add_io,)),
        "gale": (_cmd_sl_gale, "Gale dual band", (_add_io,)),
    }),
    "cluster": ("seed mutation and the mutation belt", {
        "belt": (_cmd_cluster_belt, "alternate the two bipartite mutation classes", (_WIDTH,)),
        "mutate": (_cmd_cluster_mutate, "apply a mutation word to the initial seed", (
            _WIDTH, _arg("--word", required=True, help="comma-separated vertex indices, 0-based"))),
        "formal": (_cmd_cluster_formal, "the frieze with formal seed entries",
                   (_WIDTH, _WRITER)),
        "evaluate": (_cmd_cluster_evaluate, "specialize seed values into a frieze", (
            _arg("--point", required=True, help="2*width values for the seed columns"),
            _arg("--path", default="", help="mutation word locating the seed, 0-based"),
            _add_scalar, _WRITER, _add_frieze_output)),
    }),
    "polygon": ("antiperiodic polygons in 4-space", {
        "from-frieze": (_cmd_polygon_from_frieze, "slice a polygon out of a frieze", (
            _arg("--anchor", type=int, required=True, help="first row index of the slice"),
            _add_io)),
        "to-frieze": (_cmd_polygon_to_frieze, "pair vertices back into a frieze", _FRIEZE_IN_OUT),
        "normalize": (_cmd_polygon_normalize,
                      "rescale vertices to unit second-neighbor pairings", (_add_io,)),
        "coeffs": (_cmd_polygon_coeffs, "read the equation coefficients off a polygon",
                   (_READER,)),
    }),
    "search": ("enumerate positive integer friezes", {
        "enumerate": (_cmd_search_enumerate, "count friezes with seed entries up to a bound", (
            _WIDTH, _arg("--bound", type=int, required=True),
            _arg("--dedup", choices=search.DEDUP_MODES, default="none"))),
        "orbits": (_cmd_search_orbits, "group frieze documents into dihedral orbits", (
            _arg("inputs", nargs="+", help="frieze document files"),)),
    }),
}


def _fill(p: argparse.ArgumentParser, func, adders) -> argparse.ArgumentParser:
    for add in adders:
        add(p)
    p.set_defaults(func=func)
    return p


def _build_parser() -> argparse.ArgumentParser:
    """The whole tree: every group and command, for help and usage errors."""
    top = argparse.ArgumentParser(
        prog="symfrieze",
        description="Exact arithmetic for symplectic 2-friezes and friends.",
    )
    groups = top.add_subparsers(dest="group", required=True)
    for group, (blurb, commands) in _COMMANDS.items():
        sub = groups.add_parser(group, help=blurb).add_subparsers(dest="command", required=True)
        for command, (func, blurb, adders) in commands.items():
            _fill(sub.add_parser(command, help=blurb), func, adders)
    return top


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse with the invoked command's parser alone when that settles it.

    Top-level and group help, unknown commands and leftover arguments go
    through the whole tree, whose messages name the top-level usage.
    """
    spec = _COMMANDS.get(argv[0], (None, {}))[1].get(argv[1]) if len(argv) > 1 else None
    if spec is not None:
        func, _, adders = spec
        p = _fill(argparse.ArgumentParser(prog=f"symfrieze {argv[0]} {argv[1]}"), func, adders)
        args, rest = p.parse_known_args(argv[2:])
        if not rest:
            args.group, args.command = argv[0], argv[1]
            return args
    return _build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except VerificationFailed as e:
        print(str(e))
        return 1
    except formats.FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (frieze.FriezeError, cluster.NonLaurentQuotient) as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 1
    except (ValueError, KindMismatch, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
