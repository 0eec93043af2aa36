import json
import re
from fractions import Fraction

import pytest

from oracles import naive_decode_value
from symfrieze.formats import (
    FormatError,
    FriezeDocument,
    InvalidDocument,
    _decode_value,
    document_of,
    dumps,
    grid_of,
    loads,
    polygon_document_of,
    polygon_of,
    render_frieze_text,
    sl_document_of,
    sl_of,
)
from symfrieze.frieze import ZeroPivot, propagate_from_coeffs, propagate_from_zigzag
from symfrieze.legendrian import polygon_from_frieze
from symfrieze.scalars import COMPLEX, GAUSSIAN, RATIONAL, GaussianRational
from symfrieze.slfrieze import black_of

from conftest import WIDTH2_COEFFS


@pytest.fixture(scope="module")
def frieze_doc(width2_int):
    provenance = {"coefficients": {"a": list(WIDTH2_COEFFS[0]), "b": list(WIDTH2_COEFFS[1])}}
    return document_of(width2_int, provenance=provenance)


def test_json_round_trip(frieze_doc, width2_int):
    blob = dumps(frieze_doc)
    doc = loads(blob)
    assert grid_of(doc) == width2_int
    assert dumps(doc) == blob
    assert doc.provenance == frieze_doc.provenance
    assert blob.endswith("\n") and '": ' not in blob


def test_text_round_trip(frieze_doc, width2_int):
    text = render_frieze_text(frieze_doc)
    lines = text.splitlines()
    assert lines[0] == "frieze width=2 period=7 scalar=rational"
    assert not lines[1].startswith(" ")
    assert lines[2].startswith(" ")
    assert "*6" in text and "*1" in text
    doc = loads(text)
    assert grid_of(doc) == width2_int
    assert render_frieze_text(doc) == text
    assert loads(text + "\n  \n\n") == doc  # trailing blank lines are dropped


def test_gaussian_round_trips(width1_gauss):
    doc = document_of(width1_gauss)
    blob = dumps(doc)
    assert grid_of(loads(blob)) == width1_gauss
    assert dumps(loads(blob)) == blob
    text = render_frieze_text(doc)
    assert grid_of(loads(text)) == width1_gauss


def test_complex_round_trips():
    g = propagate_from_coeffs((1, 3, 2) * 2, (1, 2, 5) * 2, COMPLEX)
    doc = document_of(g)
    blob = dumps(doc)
    assert grid_of(loads(blob)) == g
    assert dumps(loads(blob)) == blob
    assert grid_of(loads(render_frieze_text(doc))) == g


def test_json_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    nonzero = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)

    @hypothesis.given(
        st.sampled_from([RATIONAL, GAUSSIAN]),
        st.integers(min_value=1, max_value=3).flatmap(
            lambda w: st.lists(
                st.tuples(nonzero, st.integers(min_value=-2, max_value=2)),
                min_size=2 * w, max_size=2 * w,
            )
        ),
    )
    # no shrink phase, as in test_tame: a failing example is reported as drawn
    @hypothesis.settings(
        max_examples=30, deadline=None, derandomize=True, database=None,
        phases=(hypothesis.Phase.explicit, hypothesis.Phase.generate),
    )
    def check(kind, seed):
        if kind is RATIONAL:
            values = [re for re, _ in seed]
        else:
            values = [GaussianRational(re, Fraction(im)) for re, im in seed]
        try:
            g = propagate_from_zigzag(values, len(seed) // 2, kind)
        except ZeroPivot:
            hypothesis.reject()
        assert grid_of(loads(dumps(document_of(g)))) == g

    check()


# ---------------------------------------------------------------------------
# rejection paths

def test_corrupt_entry_is_reported(frieze_doc):
    bad = dict(frieze_doc.entries)
    bad[(4, 4)] = Fraction(99)
    with pytest.raises(InvalidDocument, match="local relation fails"):
        grid_of(FriezeDocument(2, 7, "rational", bad))


def test_period_mismatch_rejected(frieze_doc):
    with pytest.raises(InvalidDocument):
        grid_of(FriezeDocument(2, 8, "rational", frieze_doc.entries))


def test_parity_mix_rejected():
    with pytest.raises(InvalidDocument, match="parities"):
        grid_of(FriezeDocument(2, 7, "rational", {(0, 1): Fraction(1)}))


def parse_error(text):
    with pytest.raises(FormatError) as exc:
        loads(text)
    return exc.value


def test_parse_errors_carry_positions(frieze_doc):
    assert parse_error("nonsense\n").line == 1

    lines = render_frieze_text(frieze_doc).splitlines()
    overdented = "\n".join([lines[0], " " + lines[1]] + lines[2:]) + "\n"
    assert parse_error(overdented).line == 2

    extra_cell = "\n".join(lines[:2] + [lines[2] + " 7"] + lines[3:]) + "\n"
    assert parse_error(extra_cell).line == 3

    unmarked = "\n".join(lines[:2] + [lines[2].replace("*6", "6", 1)] + lines[3:]) + "\n"
    err = parse_error(unmarked)
    assert err.line == 3 and err.column is not None

    garbled = "\n".join(lines[:2] + [lines[2].replace("*6", "*x", 1)] + lines[3:]) + "\n"
    assert parse_error(garbled).column is not None


def test_json_errors():
    assert parse_error('{"kind": "frieze",}\n').line is not None
    parse_error('{"kind":"mystery","scalar":"rational"}\n')
    parse_error(
        '{"kind":"frieze","scalar":"rational","width":2,'
        '"entries":{"0,0":"1/0"},"period":7}\n'
    )
    # JSON booleans are not integers, neither as fields nor as entries
    with pytest.raises(FormatError, match="'width' has the wrong type"):
        loads('{"kind":"frieze","scalar":"rational","width":true,"entries":{},"period":6}\n')
    with pytest.raises(FormatError, match="bad rational value True"):
        loads('{"kind":"frieze","scalar":"rational","width":1,"entries":{"0,0":true},"period":6}\n')
    with pytest.raises(FormatError, match=re.escape("bad complex-float value [False, 0] in entry '0,0'")):
        loads(
            '{"kind":"sl-frieze","scalar":"complex-float","order":1,"width":0,'
            '"entries":{"0,0":[false,0]},"period":3}\n'
        )


def test_equation_documents_are_not_read():
    with pytest.raises(FormatError, match="unknown document kind 'equation'"):
        loads('{"kind":"equation","scalar":"rational","a":["1"],"b":["1"]}\n')


# raw values JSON can produce: bools, ints and floats beyond float range,
# pairs with bools or of the wrong length, and malformed text
DECODER_INPUTS = [
    True, False, None, {}, 0, -7, 10**400, -(10**400), 2.5, -0.0, 1e400, -1e400, float("nan"),
    [1, 2], [1.5, -2], ["1.5", " 2 "], [True, 0], [0, False], [10**400, 0], [0, 1e400],
    [None, 1], [[1], 2], [1], [1, 2, 3], [],
    "3/4", " -3/4 ", "1 / 2", "1/0", "x", "", "1+2i", " 1 - 2i ", "1/2+3/4i", "1+2j",
    "2.5", "1e400", "inf", "nan", "10" * 200,
    # rational text off the canonical p/q, and a zero over zero
    "1_000", "1_0/3", "\u0663/4", "+3/+4", "3/-4", "0/0", "-0", "0012/0008", "\t3/4\n",
    "7" * 4301,  # one digit past the interpreter's default int digit limit
    # Gaussian text with a zero denominator in either part, and near misses
    "1/0+1i", "1+1/0i", "+1+2i", "-0-0i", "1+-2i", "1.5+2i", "1+2 i",
]


@pytest.mark.parametrize("kind", [RATIONAL, GAUSSIAN, COMPLEX], ids=lambda k: k.name)
def test_decoder_matches_the_per_kind_oracle(kind):
    for raw in DECODER_INPUTS:
        try:
            want = repr(naive_decode_value(kind.name, raw))
        except (ValueError, TypeError, ArithmeticError) as e:
            want = type(e)
        doc = json.dumps({
            "kind": "sl-frieze", "scalar": kind.name, "order": 1, "width": 0,
            "period": 3, "entries": {"0,0": raw},
        })
        if isinstance(want, type):
            # rejected as the loader catches it, so no TypeError or OverflowError escapes
            with pytest.raises((ValueError, ArithmeticError)):
                _decode_value(kind, raw)
            with pytest.raises(FormatError, match=re.escape(f"bad {kind.name} value {raw!r} in entry '0,0'")):
                loads(doc)
        else:
            assert repr(_decode_value(kind, raw)) == want, raw
            assert repr(loads(doc).entries[(0, 0)]) == want, raw
        if isinstance(raw, str):
            # the text layout and the CLI read tokens with the kind alone,
            # to the oracle's value or exception class
            try:
                got = repr(kind.coerce(raw))
            except (ValueError, ZeroDivisionError) as e:
                got = type(e)
            assert got == want, raw


# ---------------------------------------------------------------------------
# the other three document kinds

def test_sl_round_trip(width2_int):
    f = black_of(width2_int)
    blob = dumps(sl_document_of(f))
    assert sl_of(loads(blob)) == f
    assert dumps(loads(blob)) == blob


def test_polygon_round_trip(width2_int):
    p = polygon_from_frieze(width2_int, 4)
    blob = dumps(polygon_document_of(p))
    assert polygon_of(loads(blob)) == p
    assert dumps(loads(blob)) == blob
