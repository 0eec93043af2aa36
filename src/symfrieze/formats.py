"""Frieze, SL-frieze and polygon documents, serialized losslessly.

Two on-disk shapes are supported and auto-detected:

* canonical JSON, one object per file, sorted keys, no spaces, trailing
  newline; rationals as strings like ``-5/2``, Gaussian rationals as
  ``p/q+r/si``, complex floats as ``[re, im]`` pairs;
* a staggered text layout for friezes only: a header line, then one row
  per line from the top boundary down, each row indented one more space
  than the one above it, cells separated by spaces, black cells marked
  with a ``*`` prefix.

Scalar text is parsed by the kind's own `coerce`; here are only the
JSON rules of which raw types each kind accepts.  Loading a frieze
document rebuilds the grid and replays the defining local relations; a
violated cell is reported by its grid index.  `frieze verify` loads
without the replay and decides the relations with tameness (`grid_of`).
"""

import json
import re
from typing import Any, Dict, Optional, Tuple

from .frieze import FriezeError, FriezeGrid, GridIndex, check_local_rules
from .legendrian import Polygon, SymplecticForm
from .scalars import SCALAR_NAMES, ScalarKind, _Frozen, kind_by_name
from .slfrieze import SLFrieze

__all__ = [
    "FormatError",
    "InvalidDocument",
    "FriezeDocument",
    "SLDocument",
    "PolygonDocument",
    "document_of",
    "grid_of",
    "sl_document_of",
    "sl_of",
    "polygon_document_of",
    "polygon_of",
    "dumps",
    "loads",
    "render_frieze_text",
]


class FormatError(ValueError):
    """A document failed to parse; carries a position when known."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            message = f"{where}: {message}"
        super().__init__(message)


class InvalidDocument(FriezeError):
    """A document parsed but its entries break a defining relation."""


# ---------------------------------------------------------------------------
# scalar value encoding

def _encode_value(scalar: str, v) -> Any:
    if scalar == "complex-float":
        c = complex(v)
        return [c.real, c.imag]
    return str(v)


def _decode_value(kind: ScalarKind, raw) -> Any:
    """One raw JSON value as a scalar of `kind`, parsed by `kind.coerce`.

    Exact kinds read strings and ints.  Complex floats also read floats,
    by their JSON text as the text layout does, and ``[re, im]`` pairs.
    Exact type tests keep out JSON true and false, as bool subclasses int.
    """
    if kind.exact:
        if type(raw) in (str, int):
            return kind.coerce(raw)
    elif type(raw) in (str, int, float):
        return kind.coerce(str(raw))
    elif type(raw) is list and len(raw) == 2 and all(type(x) in (str, int, float) for x in raw):
        return kind.coerce(complex(float(raw[0]), float(raw[1])))
    raise ValueError(f"cannot read {raw!r} as a {kind.name} value")


def _cell_token(scalar: str, v) -> str:
    if scalar == "complex-float":
        return str(complex(v))
    return str(v)


def _check_scalar(name) -> str:
    if name not in SCALAR_NAMES:
        raise FormatError(f"unknown scalar kind {name!r}")
    return name


# ---------------------------------------------------------------------------
# document types

class FriezeDocument(_Frozen):
    """A frieze over one fundamental domain, keyed by doubled indices."""

    __slots__ = _fields = ("width", "period", "scalar", "entries", "provenance")

    def __init__(self, width: int, period: int, scalar: str, entries: Dict[Tuple[int, int], Any],
                 provenance: Optional[Dict[str, Any]] = None):
        super().__init__(width, period, scalar, entries, provenance)


class SLDocument(_Frozen):
    """A linear frieze band keyed by (first index, second index)."""

    __slots__ = _fields = ("order", "width", "period", "scalar", "entries")

    def __init__(self, order: int, width: int, period: int, scalar: str,
                 entries: Dict[Tuple[int, int], Any]):
        super().__init__(order, width, period, scalar, entries)


class PolygonDocument(_Frozen):
    """One period of an antiperiodic vertex sequence with its pairing."""

    __slots__ = _fields = ("period", "base", "scalar", "form_variant", "form_a", "vertices")

    def __init__(self, period: int, base: int, scalar: str, form_variant: str, form_a: Any,
                 vertices: Tuple[Tuple[Any, Any, Any, Any], ...]):
        super().__init__(period, base, scalar, form_variant, form_a, vertices)


# ---------------------------------------------------------------------------
# conversions to and from live objects

def document_of(grid: FriezeGrid, provenance: Optional[Dict[str, Any]] = None) -> FriezeDocument:
    """Capture display columns 0..2n-1, rows -1..w, of a grid."""
    entries = {(x - o, x + o): v for (x, o), v in grid.cells()}
    return FriezeDocument(grid.width, grid.period, grid.kind.name, entries, provenance)


def grid_of(doc: FriezeDocument, tolerance: Optional[float] = None) -> FriezeGrid:
    """Rebuild the grid and check every defining local relation.

    `frieze verify` reads through `_unchecked_grid` instead and, for an
    exact kind, decides the relations by one rebuild from the grid's
    coefficients (`frieze._verdict`), scanning them only on a mismatch.
    """
    grid = _unchecked_grid(doc, tolerance)
    _reject_failed_rules(check_local_rules(grid))
    return grid


def _unchecked_grid(doc: FriezeDocument, tolerance: Optional[float]) -> FriezeGrid:
    """The grid of a document, its shape checked but not its local relations."""
    if doc.period != doc.width + 5:
        raise InvalidDocument(
            f"period {doc.period} does not match width {doc.width} + 5"
        )
    kind = kind_by_name(_check_scalar(doc.scalar), tolerance)
    cells = {}
    for (I, J), v in doc.entries.items():
        if (J - I) % 2:
            raise InvalidDocument(f"index ({I},{J}) mixes the two parities")
        o = (J - I) // 2
        if not -1 <= o <= doc.width:
            raise InvalidDocument(f"index ({I},{J}) lies outside the band")
        cells[((I + J) // 2, o)] = v
    try:
        return FriezeGrid.from_cells(kind, doc.width, cells)
    except ValueError as e:
        raise InvalidDocument(str(e)) from None


def _reject_failed_rules(bad: Tuple[GridIndex, ...]) -> None:
    """Raise InvalidDocument at the first of the failing local rules `bad`."""
    if bad:
        raise InvalidDocument(f"local relation fails at {bad[0]}")


def sl_document_of(f: SLFrieze) -> SLDocument:
    entries = {(i, i + o): v for (i, o), v in f.cells()}
    return SLDocument(f.order, f.width, f.period, f.kind.name, entries)


def sl_of(doc: SLDocument, tolerance: Optional[float] = None) -> SLFrieze:
    if doc.period != doc.width + doc.order + 2:
        raise InvalidDocument(
            f"period {doc.period} does not match width {doc.width} "
            f"+ order {doc.order} + 2"
        )
    kind = kind_by_name(_check_scalar(doc.scalar), tolerance)
    cells = {(i, j - i): v for (i, j), v in doc.entries.items()}
    try:
        return SLFrieze(kind, doc.order, doc.width, cells)
    except ValueError as e:
        raise InvalidDocument(str(e)) from None


def polygon_document_of(p: Polygon) -> PolygonDocument:
    return PolygonDocument(
        p.period,
        p.base,
        p.form.kind.name,
        p.form.variant,
        p.form.a,
        p.vertices,
    )


def polygon_of(doc: PolygonDocument, tolerance: Optional[float] = None) -> Polygon:
    kind = kind_by_name(_check_scalar(doc.scalar), tolerance)
    form = SymplecticForm(doc.form_a, doc.form_variant, kind)
    try:
        return Polygon(doc.period, doc.base, tuple(doc.vertices), form)
    except ValueError as e:
        raise InvalidDocument(str(e)) from None


# ---------------------------------------------------------------------------
# canonical JSON

def _payload(doc) -> Dict[str, Any]:
    if isinstance(doc, (FriezeDocument, SLDocument)):
        out = {
            "kind": "sl-frieze" if isinstance(doc, SLDocument) else "frieze",
            "width": doc.width,
            "period": doc.period,
            "scalar": doc.scalar,
            "entries": {
                f"{i},{j}": _encode_value(doc.scalar, v)
                for (i, j), v in doc.entries.items()
            },
        }
        if isinstance(doc, SLDocument):
            out["order"] = doc.order
        elif doc.provenance is not None:
            out["provenance"] = doc.provenance
        return out
    if isinstance(doc, PolygonDocument):
        return {
            "kind": "polygon",
            "period": doc.period,
            "base": doc.base,
            "scalar": doc.scalar,
            "form": {
                "variant": doc.form_variant,
                "a": _encode_value(doc.scalar, doc.form_a),
            },
            "vertices": [
                [_encode_value(doc.scalar, x) for x in v] for v in doc.vertices
            ],
        }
    raise TypeError(f"not a document: {doc!r}")


def dumps(doc) -> str:
    """Canonical JSON: sorted keys, tight separators, one trailing newline."""
    return json.dumps(_payload(doc), sort_keys=True, separators=(",", ":")) + "\n"


def _parse_key(key: str) -> Tuple[int, int]:
    try:
        i, j = map(int, key.split(","))
        if f"{i},{j}" == key:  # only the spelling `dumps` writes: one key per cell
            return i, j
    except ValueError:
        pass
    raise FormatError(f"bad entry key {key!r}, expected 'i,j'")


def _want(obj: Dict[str, Any], key: str, types) -> Any:
    if key not in obj:
        raise FormatError(f"missing field {key!r}")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, types):
        raise FormatError(f"field {key!r} has the wrong type")
    return v


def _from_payload(obj: Dict[str, Any]):
    doc_kind = _want(obj, "kind", str)
    scalar = _check_scalar(_want(obj, "scalar", str))
    kind = kind_by_name(scalar)

    def val(raw, where: str):
        try:
            return _decode_value(kind, raw)
        except (ValueError, ArithmeticError):
            raise FormatError(f"bad {scalar} value {raw!r} in {where}") from None

    if doc_kind in ("frieze", "sl-frieze"):
        entries = {
            _parse_key(k): val(raw, f"entry {k!r}")
            for k, raw in _want(obj, "entries", dict).items()
        }
        if doc_kind == "frieze":
            return FriezeDocument(
                _want(obj, "width", int),
                _want(obj, "period", int),
                scalar,
                entries,
                obj.get("provenance"),
            )
        return SLDocument(
            _want(obj, "order", int),
            _want(obj, "width", int),
            _want(obj, "period", int),
            scalar,
            entries,
        )
    if doc_kind == "polygon":
        form = _want(obj, "form", dict)
        vertices = []
        for r, row in enumerate(_want(obj, "vertices", list)):
            if not isinstance(row, list) or len(row) != 4:
                raise FormatError(f"vertex {r} is not a 4-vector")
            vertices.append(tuple(val(x, f"vertex {r}") for x in row))
        return PolygonDocument(
            _want(obj, "period", int),
            _want(obj, "base", int),
            scalar,
            _want(form, "variant", str),
            val(_want(form, "a", (str, int, list)), "form parameter"),
            tuple(vertices),
        )
    raise FormatError(f"unknown document kind {doc_kind!r}")


# ---------------------------------------------------------------------------
# staggered text format

_HEADER = re.compile(
    r"^frieze\s+width=(\d+)\s+period=(\d+)\s+scalar=([a-z-]+)\s*$"
)


def render_frieze_text(doc: FriezeDocument) -> str:
    """The staggered layout; black cells carry a ``*`` prefix."""
    n = doc.period
    lines = [f"frieze width={doc.width} period={doc.period} scalar={doc.scalar}"]
    for o in range(-1, doc.width + 1):
        cells = []
        for x in range(2 * n):
            v = doc.entries[(x - o, x + o)]
            mark = "*" if (x - o) % 2 == 0 else ""
            cells.append(mark + _cell_token(doc.scalar, v))
        lines.append(" " * (o + 1) + " ".join(cells))
    return "\n".join(lines) + "\n"


def _parse_frieze_text(text: str) -> FriezeDocument:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError("empty input", line=1, column=1)
    m = _HEADER.match(lines[0])
    if not m:
        raise FormatError(
            "expected a header like 'frieze width=2 period=7 scalar=rational'",
            line=1,
            column=1,
        )
    width, period, scalar = int(m.group(1)), int(m.group(2)), m.group(3)
    if scalar not in SCALAR_NAMES:
        raise FormatError(f"unknown scalar kind {scalar!r}", line=1, column=1)
    coerce = kind_by_name(scalar).coerce
    rows = lines[1:]
    if len(rows) != width + 2:
        raise FormatError(
            f"expected {width + 2} rows for width {width}, got {len(rows)}",
            line=len(lines),
            column=1,
        )
    entries = {}
    for r, raw in enumerate(rows):
        o = r - 1
        lineno = r + 2
        indent = len(raw) - len(raw.lstrip(" "))
        if indent != o + 1:
            raise FormatError(
                f"row at offset {o} should be indented by {o + 1} spaces",
                line=lineno,
                column=1,
            )
        tokens = list(re.finditer(r"\S+", raw))
        if len(tokens) != 2 * period:
            raise FormatError(
                f"row at offset {o} needs {2 * period} cells, got {len(tokens)}",
                line=lineno,
                column=1,
            )
        for x, tok in enumerate(tokens):
            col = tok.start() + 1
            word = tok.group()
            black = (x - o) % 2 == 0
            if word.startswith("*") != black:
                want = "a black marker" if black else "no black marker"
                raise FormatError(
                    f"cell at column {x}, offset {o} should have {want}",
                    line=lineno,
                    column=col,
                )
            if black:
                word = word[1:]
            try:
                v = coerce(word)
            except (ValueError, ZeroDivisionError):
                raise FormatError(
                    f"cannot parse {word!r} as a {scalar} value",
                    line=lineno,
                    column=col,
                ) from None
            entries[(x - o, x + o)] = v
    return FriezeDocument(width, period, scalar, entries)


def loads(text: str):
    """Parse a document, auto-detecting canonical JSON vs. staggered text."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        # JSON text that opens with a brace is an object or fails to parse
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise FormatError(e.msg, line=e.lineno, column=e.colno) from None
        return _from_payload(obj)
    return _parse_frieze_text(text)
