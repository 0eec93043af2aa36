import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import symfrieze
from conftest import WIDTH2_COEFFS
from symfrieze import cli, formats, frieze, legendrian, slfrieze
from symfrieze.cli import main
from symfrieze.diffeq import SymmetricDiffEq, monodromy, variety_residuals
from symfrieze.formats import (
    document_of,
    dumps,
    grid_of,
    loads,
    polygon_document_of,
    render_frieze_text,
    sl_document_of,
)
from symfrieze.frieze import (
    FriezeGrid,
    GridIndex,
    mirror_grid,
    propagate_from_coeffs,
    propagate_from_zigzag,
    sign_twist,
)
from symfrieze.scalars import COMPLEX, GAUSSIAN, RATIONAL

SRC = str(Path(symfrieze.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as e:
                rc = e.code
    finally:
        sys.stdin = old
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def w2_text(width2_int):
    return render_frieze_text(document_of(width2_int))


@pytest.fixture(scope="module")
def w2_json(width2_int):
    return dumps(document_of(width2_int))


# ---------------------------------------------------------------------------
# frieze commands

def test_from_coeffs(w2_text, width2_int):
    rc, out, _ = run(["frieze", "from-coeffs", "--a", "6,3,1,3,4,2,1", "--b", "3,14,1,2,6,5,1"])
    assert rc == 0 and out == w2_text
    rc, out, _ = run(
        ["frieze", "from-coeffs", "--a", "6,3,1,3,4,2,1", "--b", "3,14,1,2,6,5,1", "--json"]
    )
    assert rc == 0 and grid_of(loads(out)) == width2_int
    assert "coefficients" in out


def test_from_zigzag():
    rc, out, _ = run(["frieze", "from-zigzag", "--values", "1,1,1,1", "--width", "2"])
    assert rc == 0
    assert loads(out).width == 2


def test_from_zigzag_values_come_in_cluster_order():
    # the white values, then the black values, each top to bottom: row 0
    # reads 1 then *3 west to east, row 1 reads *4 then 2
    _, out, _ = run(["frieze", "from-zigzag", "--help"])
    assert "the width white values, then the width black values, each top to bottom" in " ".join(out.split())
    rc, out, _ = run(["frieze", "from-zigzag", "--width", "2", "--values", "1,2,3,4"])
    rows = [line.split() for line in out.splitlines()[2:4]]
    assert rc == 0 and rows[0][1:3] == ["1", "*3"] and rows[1][1:3] == ["*4", "2"]


def test_verify(w2_json, w2_text):
    rc, out, _ = run(["frieze", "verify", "-"], stdin=w2_json)
    assert rc == 0
    assert "local rules: ok" in out
    assert "tame: true" in out
    assert "glide: true" in out
    assert "minimal period: 14" in out
    rc, _, _ = run(["frieze", "verify", "-"], stdin=w2_text)
    assert rc == 0


def test_verify_rejects_corruption(w2_json):
    bad = w2_json.replace('"14"', '"99"', 1)
    rc, _, err = run(["frieze", "verify", "-"], stdin=bad)
    assert rc == 1 and "local relation" in err


@pytest.mark.parametrize("tolerance, shown", [("-1", "-1.0"), ("nan", "nan"), ("inf", "inf")])
def test_verify_rejects_a_bad_tolerance(tolerance, shown):
    docs = {}
    for scalar in ("complex-float", "rational", "gaussian"):
        rc, docs[scalar], _ = run(["frieze", "from-zigzag", "--values=1,2", "--width", "1",
                                   "--scalar", scalar, "--json"])
        assert rc == 0
    doc = docs.pop("complex-float")
    assert run(["frieze", "verify", "-", "--tolerance", "1e-6"], stdin=doc)[0] == 0
    rc, out, err = run(["frieze", "verify", "-", "--tolerance", tolerance], stdin=doc)
    assert (rc, out, err) == (2, "", f"error: tolerance must be finite and non-negative, got {shown}\n")
    # exact kinds compare exactly, but check a given tolerance all the same
    for exact in docs.values():
        assert run(["frieze", "verify", "-", "--tolerance", "1e-6"], stdin=exact)[0] == 0
        rc, out, err = run(["frieze", "verify", "-", "--tolerance", tolerance], stdin=exact)
        assert (rc, out, err) == (2, "", f"error: tolerance must be finite and non-negative, got {shown}\n")


@pytest.mark.parametrize("tolerance, shown", [("-1", "-1.0"), ("nan", "nan"), ("inf", "inf")])
@pytest.mark.parametrize("command", ["verify", "from-coeffs", "sl black"])
def test_rational_commands_reject_a_bad_tolerance(w2_json, command, tolerance, shown):
    argv, stdin = {
        "verify": (["frieze", "verify", "-"], w2_json),
        "from-coeffs": (["frieze", "from-coeffs", "--a", "6,3,1,3,4,2,1", "--b", "3,14,1,2,6,5,1"], ""),
        "sl black": (["sl", "black", "-"], w2_json),
    }[command]
    assert run(argv + ["--tolerance", "1e-6"], stdin=stdin)[0] == 0
    rc, out, err = run(argv + ["--tolerance", tolerance], stdin=stdin)
    assert (rc, out, err) == (2, "", f"error: tolerance must be finite and non-negative, got {shown}\n")


@pytest.mark.parametrize("tolerance, shown", [("-1", "-1.0"), ("nan", "nan"), ("inf", "inf")])
def test_polygon_normalize_rejects_a_bad_tolerance(w2_json, tolerance, shown):
    rc, poly_json, _ = run(["polygon", "from-frieze", "-", "--anchor", "4"], stdin=w2_json)
    assert rc == 0
    assert run(["polygon", "normalize", "-", "--tolerance", "1e-6"], stdin=poly_json)[0] == 0
    rc, out, err = run(["polygon", "normalize", "-", "--tolerance", tolerance], stdin=poly_json)
    assert (rc, out, err) == (2, "", f"error: tolerance must be finite and non-negative, got {shown}\n")


@pytest.fixture
def verify_counts(monkeypatch):
    """Calls of the local-rule scan (any binding) and of the rebuild during one verify."""
    counts = {"scan": 0, "rebuild": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    scan = counted("scan", frieze.check_local_rules)
    monkeypatch.setattr(frieze, "check_local_rules", scan)
    monkeypatch.setattr(formats, "check_local_rules", scan)
    monkeypatch.setattr(frieze, "propagate_from_coeffs", counted("rebuild", frieze.propagate_from_coeffs))
    return counts


@pytest.mark.parametrize("kind", [RATIONAL, GAUSSIAN], ids=lambda k: k.name)
def test_verify_decides_an_exact_frieze_by_one_rebuild(verify_counts, kind):
    doc = dumps(document_of(propagate_from_coeffs(*WIDTH2_COEFFS, kind)))
    verify_counts.update(scan=0, rebuild=0)
    rc, out, err = run(["frieze", "verify", "-"], stdin=doc)
    assert (rc, out, err) == (0, "local rules: ok\ntame: true\nglide: true\nminimal period: 14\n", "")
    assert verify_counts == {"scan": 0, "rebuild": 1}


def test_verify_scans_a_complex_float_frieze(verify_counts):
    doc = dumps(document_of(propagate_from_zigzag((1, 2), 1, COMPLEX)))
    verify_counts.update(scan=0, rebuild=0)
    rc, out, err = run(["frieze", "verify", "-"], stdin=doc)
    assert (rc, out, err) == (0, "local rules: ok\ntame: true\nglide: true\nminimal period: 6\n", "")
    assert verify_counts == {"scan": 1, "rebuild": 0}


@pytest.mark.parametrize("kind", [RATIONAL, GAUSSIAN], ids=lambda k: k.name)
def test_verify_reports_a_corrupted_white_cell(verify_counts, kind):
    g = propagate_from_coeffs(*WIDTH2_COEFFS, kind)
    doc = dumps(document_of(g.with_entry(GridIndex(3, 5), g.get(3, 5) + kind.one())))
    verify_counts.update(scan=0, rebuild=0)
    rc, out, err = run(["frieze", "verify", "-"], stdin=doc)
    assert (rc, out, err) == (1, "", "verification failed: local relation fails at d[1,2]\n")
    assert verify_counts == {"scan": 1, "rebuild": 1}


def test_verify_reports_wild_grid(verify_counts, width2_null):
    verify_counts.update(scan=0, rebuild=0)
    rc, out, err = run(["frieze", "verify", "-"], stdin=dumps(document_of(width2_null)))
    assert (rc, out, err) == (1, (
        "local rules: ok\n"
        "tame: false at MinorWindow(size=3, i=0, j=-6, value=Fraction(-1, 1), expected=Fraction(0, 1))\n"
    ), "")
    assert verify_counts == {"scan": 1, "rebuild": 1}


def test_show(w2_text, width2_int):
    rc, out, _ = run(["frieze", "show", "-"], stdin=w2_text)
    assert rc == 0 and out == w2_text
    rc, out, _ = run(["frieze", "show", "-", "--json"], stdin=w2_text)
    assert rc == 0 and grid_of(loads(out)) == width2_int


def test_twist(width3_int):
    rc, out, _ = run(["frieze", "twist", "-"], stdin=dumps(document_of(width3_int)))
    assert rc == 0 and grid_of(loads(out)) == sign_twist(width3_int)


# ---------------------------------------------------------------------------
# eq commands

def test_eq_check():
    rc, out, _ = run(["eq", "check", "--a", "6,3,1,3,4,2,1", "--b", "3,14,1,2,6,5,1"])
    assert rc == 0 and out.strip() == "superperiodic: true"
    rc, out, _ = run(["eq", "check", "--a", "7,3,1,3,4,2,1", "--b", "3,14,1,2,6,5,1"])
    assert rc == 1 and "superperiodic: false" in out


def test_eq_monodromy():
    rc, out, _ = run(["eq", "monodromy", "--a", "6,3,1,3,4,2,1", "--b", "3,14,1,2,6,5,1"])
    lines = out.splitlines()
    assert rc == 0
    assert lines[0].split() == ["-1", "0", "0", "0"]
    assert lines[3].split() == ["0", "0", "0", "-1"]
    assert lines[4] == "superperiodic: true"


def test_eq_variety():
    rc, out, _ = run(["eq", "variety", "--a", "6,3,1,3,4,2,1", "--b", "3,14,1,2,6,5,1"])
    assert rc == 0 and out.count("residual[") == 10 and "on variety: true" in out


def test_eq_commands_print_no_negative_zero():
    # real-valued complex-float products on these cycles end on -0.0 imaginary parts
    signed = ["--a=1,-3,-1,-3,-3,-3", "--b=2,1,-3,0,2,-2"]
    rc, out, _ = run(["eq", "monodromy", *signed, "--scalar", "complex-float"])
    assert rc == 1 and out.split("\n")[0] == "(-3+0j) (10+0j) (-38+0j) (-50+0j)" and "-0j" not in out
    rc, out, _ = run(["eq", "variety", *signed, "--scalar", "complex-float"])
    assert rc == 1 and "residual[7]: (53+0j)\n" in out and "-0j" not in out
    # exact kinds print each value's str
    for kind in (RATIONAL, GAUSSIAN):
        a, b = ([kind.coerce(t) for t in arg[4:].split(",")] for arg in signed)
        eq = SymmetricDiffEq(tuple(a), tuple(b), kind)
        rows = [" ".join(map(str, row)) for row in monodromy(eq).rows]
        rc, out, _ = run(["eq", "monodromy", *signed, "--scalar", kind.name])
        assert (rc, out.splitlines()) == (1, rows + ["superperiodic: false"])
        residuals = [f"residual[{k}]: {r}" for k, r in enumerate(variety_residuals(a, b, kind))]
        rc, out, _ = run(["eq", "variety", *signed, "--scalar", kind.name])
        assert (rc, out.splitlines()) == (1, residuals + ["on variety: false"])


# ---------------------------------------------------------------------------
# sl commands

def test_sl_pipeline(w2_json, w2_text, width2_int):
    rc, sl_json, _ = run(["sl", "black", "-"], stdin=w2_json)
    assert rc == 0 and loads(sl_json).order == 3

    rc, out, _ = run(["sl", "to-symplectic", "-"], stdin=sl_json)
    assert rc == 0 and out == w2_text

    rc, out, _ = run(["sl", "dual", "-"], stdin=sl_json)
    assert rc == 0 and loads(out).order == 3

    rc, out, _ = run(["sl", "gale", "-"], stdin=sl_json)
    assert rc == 0 and loads(out).order == width2_int.width and loads(out).width == 3


def test_sl_document_rejects_a_cell_given_twice(w2_json):
    rc, sl_json, _ = run(["sl", "black", "-"], stdin=w2_json)
    # key 7,7 is d[0, 0] = 6 one period on; it used to overwrite it silently
    doubled = sl_json.replace('},"kind"', ',"7,7":"99"},"kind"', 1)
    assert doubled != sl_json
    rc, out, err = run(["sl", "dual", "-"], stdin=doubled)
    assert (rc, out) == (1, "")
    assert err == "verification failed: cell (0, offset 0) given twice\n"


# ---------------------------------------------------------------------------
# cluster commands

def test_cluster_belt():
    rc, out, _ = run(["cluster", "belt", "--width", "1"])
    assert rc == 0 and "belt period: 3" in out and "identity at 12: true" in out
    rc, out, _ = run(["cluster", "belt", "--width", "2"])
    assert rc == 0 and "belt period: 7" in out


def test_cluster_mutate():
    rc, out, _ = run(["cluster", "mutate", "--width", "2", "--word", "0,2,0"])
    assert rc == 0 and "0 1 -1 0" in out and "cluster:" in out


def test_cluster_formal():
    rc, out, _ = run(["cluster", "formal", "--width", "1"])
    assert rc == 0 and "/x1" in out and "x2" in out


def test_cluster_evaluate(width1_int):
    rc, out, _ = run(["cluster", "evaluate", "--point", "2,3"])
    assert rc == 0 and out == render_frieze_text(document_of(width1_int))


# ---------------------------------------------------------------------------
# polygon commands

def test_polygon_pipeline(w2_json, w2_text):
    rc, poly_json, _ = run(["polygon", "from-frieze", "-", "--anchor", "4"], stdin=w2_json)
    assert rc == 0 and loads(poly_json).period == 7

    rc, out, _ = run(["polygon", "to-frieze", "-"], stdin=poly_json)
    assert rc == 0 and out == w2_text

    rc, out, _ = run(["polygon", "coeffs", "-"], stdin=poly_json)
    assert rc == 0 and out.startswith("a: ") and "\nb: " in out

    rc, normalized, _ = run(["polygon", "normalize", "-"], stdin=poly_json)
    assert rc == 0 and loads(normalized).scalar == "complex-float"

    # complex-float determinants: partial-pivot LU
    rc, out, _ = run(["polygon", "coeffs", "-"], stdin=normalized)
    assert rc == 0
    a, b = (line.split(": ")[1].split(", ") for line in out.splitlines())
    want = (6, 3, 1, 3, 4, 2, 1, 3, 14, 1, 2, 6, 5, 1)
    assert len(a + b) == len(want)
    assert all(abs(complex(v) - w) < 1e-9 for v, w in zip(a + b, want))


def test_polygon_coeffs_prints_no_negative_zero(w2_json):
    # the LU determinants of a real-valued complex-float polygon may end on -0.0
    rc, poly_json, _ = run(["polygon", "from-frieze", "-", "--anchor", "1"], stdin=w2_json)
    doc = json.loads(poly_json)
    doc["vertices"] = [[[float(Fraction(v)), 0.0] for v in row] for row in doc["vertices"]]
    doc["form"]["a"] = [float(Fraction(doc["form"]["a"])), 0.0]
    rc, out, _ = run(["polygon", "coeffs", "-"], stdin=json.dumps(dict(doc, scalar="complex-float")))
    assert rc == 0 and out.count("+0j") == 14 and "-0j" not in out


def test_complex_writers_print_no_negative_zero():
    # the twist negates real-valued complex cells, which gives -0.0 imaginary parts
    rc, doc, _ = run(["frieze", "from-zigzag", "--values", "1,1,1,1", "--width", "2", "--scalar",
                      "complex-float", "--json"])
    rc, text, _ = run(["frieze", "twist", "-"], stdin=doc)
    assert rc == 0 and "*(-2+0j)" in text and "-0j" not in text
    rc, out, _ = run(["frieze", "twist", "-", "--json"], stdin=doc)
    assert rc == 0 and "[-2.0,0.0]" in out and "-0.0" not in out


def test_polygon_readers_validate_the_document(w2_json):
    rc, poly_json, _ = run(["polygon", "from-frieze", "-", "--anchor", "4"], stdin=w2_json)
    assert rc == 0 and '"period":7' in poly_json
    short = poly_json.replace('"period":7', '"period":9')
    for command in ("normalize", "coeffs", "to-frieze"):
        rc, out, err = run(["polygon", command, "-"], stdin=short)
        assert (rc, out, err) == (1, "", "verification failed: need 9 vertices, got 7\n")


# ---------------------------------------------------------------------------
# search commands

def test_search_enumerate():
    rc, out, _ = run(["search", "enumerate", "--width", "1", "--bound", "5"])
    assert rc == 0 and "count: 6, orbits: 1" in out and "bound: 5" in out


def test_search_enumerate_builds_no_grids(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("search enumerate built a grid")

    monkeypatch.setattr(FriezeGrid, "from_cells", refuse)
    rc, out, err = run(["search", "enumerate", "--width", "2", "--bound", "10"])
    assert (rc, err) == (0, "")
    assert "count: 68, orbits: 9\nlargest seed entry: 10\n" in out


def test_search_orbits(tmp_path, w2_json, width2_int):
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(w2_json)
    pb.write_text(dumps(document_of(mirror_grid(width2_int))))
    rc, out, _ = run(["search", "orbits", str(pa), str(pb)])
    assert rc == 0 and "orbits: 1" in out and str(pa) in out


def test_search_orbits_rejects_other_kinds(tmp_path, width1_int):
    gauss = tmp_path / "g.json"
    rational = tmp_path / "r.json"
    rc, _, _ = run(["frieze", "from-zigzag", "--width", "1", "--values=1+1i,2",
                    "--scalar", "gaussian", "--json", "--out", str(gauss)])
    assert rc == 0
    rational.write_text(dumps(document_of(width1_int)))
    for paths, word in (([gauss, gauss], "gaussian"), ([rational, gauss], "kind mismatch")):
        rc, out, err = run(["search", "orbits"] + [str(p) for p in paths])
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and word in err and "Traceback" not in err


def test_out_flag(tmp_path, width1_int):
    target = tmp_path / "out.txt"
    rc, out, _ = run(
        ["frieze", "from-coeffs", "--a", "1,3,2,1,3,2", "--b", "1,2,5,1,2,5", "--out", str(target)]
    )
    assert rc == 0 and out == ""
    assert target.read_text() == render_frieze_text(document_of(width1_int))


_WRITERS = {
    "grid text": ["frieze", "show", "-"],
    "grid json": ["frieze", "show", "-", "--json"],
    "sl json": ["sl", "black", "-"],
    "polygon json": ["polygon", "from-frieze", "-", "--anchor", "1"],
    "cluster formal": ["cluster", "formal", "--width", "1"],
}


@pytest.mark.parametrize("writer", _WRITERS)
def test_out_dash_writes_stdout(tmp_path, monkeypatch, w2_json, writer):
    # `-` means stdout for --out as it means stdin for an input
    monkeypatch.chdir(tmp_path)
    want = run(_WRITERS[writer], stdin=w2_json)
    assert want[0] == 0 and want[1]
    assert run(_WRITERS[writer] + ["--out", "-"], stdin=w2_json) == want
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("writer", _WRITERS)
def test_unwritable_out_exits_2(tmp_path, w2_json, writer):
    for target in (tmp_path / "missing" / "f.txt", tmp_path):
        rc, out, err = run(_WRITERS[writer] + ["--out", str(target)], stdin=w2_json)
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# exit codes

def test_exit_codes(width1_int):
    rc, _, err = run(["frieze", "verify", "-"], stdin="garbage\n")
    assert rc == 2 and "error:" in err

    doc = dumps(document_of(width1_int))
    assert '"width":1' in doc
    rc, out, err = run(["frieze", "verify", "-"], stdin=doc.replace('"width":1', '"width":true'))
    assert rc == 2 and out == "" and err == "error: field 'width' has the wrong type\n"

    rc, _, err = run(["frieze", "verify", "/no/such/file"])
    assert rc == 2 and "cannot read" in err

    rc, _, _ = run(["frieze", "bogus"])
    assert rc == 2

    rc, _, err = run(["cluster", "evaluate", "--point", "0,3"])
    assert rc == 1 and "verification failed" in err

    rc, _, err = run(["frieze", "from-coeffs", "--a", "7,3,1,3,4,2,1", "--b", "3,14,1,2,6,5,1"])
    assert rc == 1 and "verification failed" in err

    rc, _, _ = run(["frieze", "from-zigzag", "--values", "1,1", "--width", "7"])
    assert rc == 2
    for width in ("-1", "0"):
        rc, out, err = run(["frieze", "from-zigzag", "--values", "1,1", "--width", width])
        assert (rc, out, err) == (2, "", "error: zig-zag needs width >= 1\n")

    for path, vertex in (("5", 5), ("-1", -1), ("0,2", 2)):
        rc, out, err = run(["cluster", "evaluate", "--point", "1,1", "--path", path])
        assert rc == 2 and out == ""
        assert err == f"error: vertex {vertex} out of range for width 1\n"

    rc, out, err = run(["frieze", "from-coeffs", "--a", "6,3,x,3,4,2,1", "--b", "3,14,1,2,6,5,1"])
    assert (rc, out, err) == (2, "", "error: cannot parse 'x' as a rational value\n")

    # an exponent past the int digit limit is refused before any output
    rc, out, err = run(["eq", "monodromy", "--a", "1e5000,1,1,1,1,1", "--b", "1,1,1,1,1,1"])
    assert (rc, out, err) == (2, "", "error: cannot parse '1e5000' as a rational value\n")

    rc, out, err = run(["cluster", "mutate", "--width", "1", "--word", "0,a"])
    assert (rc, out, err) == (2, "", "error: --word must be comma-separated integers\n")

    off_variety = ["--a", "6,3,1,3,4,2,1", "--b", "3,14,1,2,6,5,2"]
    rc, out, err = run(["eq", "monodromy"] + off_variety)
    assert rc == 1 and err == ""
    assert out.splitlines() == ["-1 0 1 6", "0 -1 0 0", "0 0 -1 0", "0 0 0 -1", "superperiodic: false"]

    rc, out, err = run(["eq", "variety"] + off_variety)
    assert rc == 1 and err == ""
    assert out.splitlines()[-1] == "on variety: false"


# ---------------------------------------------------------------------------
# documents of the wrong kind

@pytest.fixture(scope="module")
def documents(width2_int):
    return {
        "frieze": dumps(document_of(width2_int)),
        "sl": dumps(sl_document_of(slfrieze.black_of(width2_int))),
        "polygon": dumps(polygon_document_of(legendrian.polygon_from_frieze(width2_int, 4))),
    }


@pytest.mark.parametrize("argv, given, wanted", [
    (["frieze", "verify"], "sl", "a frieze document"),
    (["frieze", "show"], "polygon", "a frieze document"),
    (["frieze", "twist"], "sl", "a frieze document"),
    (["sl", "black"], "polygon", "a frieze document"),
    (["sl", "to-symplectic"], "frieze", "an sl-frieze document"),
    (["sl", "dual"], "polygon", "an sl-frieze document"),
    (["sl", "gale"], "frieze", "an sl-frieze document"),
    (["polygon", "from-frieze", "--anchor", "4"], "sl", "a frieze document"),
    (["polygon", "to-frieze"], "frieze", "a polygon document"),
    (["polygon", "normalize"], "sl", "a polygon document"),
    (["polygon", "coeffs"], "frieze", "a polygon document"),
])
def test_reader_rejects_wrong_kind(documents, argv, given, wanted):
    rc, out, err = run(argv + ["-"], stdin=documents[given])
    assert (rc, out, err) == (2, "", f"error: expected {wanted}\n")


def test_search_orbits_rejects_wrong_kind(tmp_path, documents):
    path = tmp_path / "band.json"
    path.write_text(documents["sl"])
    rc, out, err = run(["search", "orbits", str(path)])
    assert (rc, out, err) == (2, "", f"error: {path}: expected a frieze document\n")


# ---------------------------------------------------------------------------
# malformed documents: one case per reader branch, with its exit code and message

@pytest.fixture(scope="module")
def width1_documents(width1_int):
    return {
        "frieze": json.loads(dumps(document_of(width1_int))),
        "sl": json.loads(dumps(sl_document_of(slfrieze.black_of(width1_int)))),
        "polygon": json.loads(
            dumps(polygon_document_of(legendrian.polygon_from_frieze(width1_int, 1)))
        ),
    }


def _drop_row(o):
    def edit(doc):
        for key in list(doc["entries"]):
            I, J = map(int, key.split(","))
            if J - I == 2 * o:
                del doc["entries"][key]
    return edit


TEXT_HEADER = "frieze width=1 period=6 scalar=rational\n"

# (id, command, document edited or None, edit or literal text, exit code, stderr)
MALFORMED = [
    ("json-unknown-scalar", "frieze verify", "frieze", lambda d: d.update(scalar="real"),
     2, "error: unknown scalar kind 'real'"),
    ("json-missing-field", "frieze verify", "frieze", lambda d: d.pop("width"),
     2, "error: missing field 'width'"),
    ("json-bad-entry-key", "frieze verify", "frieze", lambda d: d["entries"].update(x="1"),
     2, "error: bad entry key 'x', expected 'i,j'"),
    *(
        (f"json-entry-key-{name}", "frieze verify", "frieze",
         lambda d, key=key: d["entries"].update({key: "1"}),
         2, f"error: bad entry key {key!r}, expected 'i,j'")
        # each spelling int() reads as cell (0, 0), which the document already holds
        for name, key in (("zero-padded", "00,0"), ("plus-sign", "+0,0"), ("leading-space", " 0,0"),
                          ("inner-space", "0, 0"), ("underscore", "0_0,0"))
    ),
    ("json-list-value", "frieze verify", "frieze", lambda d: d["entries"].update({"0,0": [1, 2]}),
     2, "error: bad rational value [1, 2] in entry '0,0'"),
    ("json-pair-beyond-float", "sl gale", "sl",
     lambda d: d.update(scalar="complex-float", entries={**d["entries"], "0,0": [10**400, 0]}),
     2, f"error: bad complex-float value [{10**400}, 0] in entry '0,0'"),
    ("json-equation-kind", "frieze verify", None, '{"kind":"equation","scalar":"rational","a":[],"b":[]}',
     2, "error: unknown document kind 'equation'"),
    ("text-empty", "frieze verify", None, "",
     2, "error: line 1, column 1: empty input"),
    ("text-unknown-scalar", "frieze verify", None, TEXT_HEADER.replace("rational", "real"),
     2, "error: line 1, column 1: unknown scalar kind 'real'"),
    ("text-too-few-rows", "frieze verify", None, TEXT_HEADER + "1 *1 1 *1 1 *1 1 *1 1 *1 1 *1\n",
     2, "error: line 2, column 1: expected 3 rows for width 1, got 1"),
    ("polygon-short-vertex", "polygon coeffs", "polygon",
     lambda d: d["vertices"].__setitem__(0, d["vertices"][0][:3]),
     2, "error: vertex 0 is not a 4-vector"),
    ("entry-outside-band", "frieze verify", "frieze", lambda d: d["entries"].update({"0,6": "1"}),
     1, "verification failed: index (0,6) lies outside the band"),
    ("interior-row-missing", "frieze verify", "frieze", _drop_row(0),
     1, "verification failed: interior row 0 missing"),
    ("row-short", "frieze verify", "frieze", lambda d: d["entries"].pop("0,0"),
     1, "verification failed: row 0 needs 12 consecutive columns, got 11"),
    ("sl-period", "sl gale", "sl", lambda d: d.update(period=5),
     1, "verification failed: period 5 does not match width 1 + order 3 + 2"),
]


@pytest.mark.parametrize(
    "command, document, edit, code, message",
    [case[1:] for case in MALFORMED],
    ids=[case[0] for case in MALFORMED],
)
def test_malformed_document(width1_documents, command, document, edit, code, message):
    if document is None:
        stdin = edit
    else:
        doc = json.loads(json.dumps(width1_documents[document]))
        edit(doc)
        stdin = json.dumps(doc)
    rc, out, err = run(command.split() + ["-"], stdin=stdin)
    assert (rc, out, err) == (code, "", message + "\n")


NEGATIVE_WIDTH = '{"kind":"frieze","width":-3,"period":2,"scalar":"rational","entries":{}}'


@pytest.mark.parametrize("command", [
    "frieze show", "frieze twist", "frieze verify", "sl black", "search orbits",
    "polygon from-frieze --anchor 0",
])
def test_frieze_document_with_negative_width_fails(command):
    # the grid loader rejects the width as the SL constructor does
    rc, out, err = run(command.split() + ["-"], stdin=NEGATIVE_WIDTH)
    assert (rc, out, err) == (1, "", "verification failed: width must be nonnegative, got -3\n")


# ---------------------------------------------------------------------------
# argument parsing: one parser per call, the same results as the whole tree

# a valid command line for every command, with most of its options
VALID = {
    ("frieze", "from-coeffs"): ["--a", "1,2", "--b", "3,4", "--scalar", "gaussian",
                                "--tolerance", "0.5", "--out", "f.txt", "--json"],
    ("frieze", "from-zigzag"): ["--values=1,1", "--width", "1", "--scalar", "complex-float"],
    ("frieze", "verify"): ["doc.json", "--tolerance", "1e-6"],
    ("frieze", "show"): ["--json", "doc.json", "--out", "f.txt"],
    ("frieze", "twist"): ["-"],
    ("eq", "check"): ["--a", "1", "--b", "2"],
    ("eq", "monodromy"): ["--b", "2", "--a", "1", "--scalar", "gaussian"],
    ("eq", "variety"): ["--a", "1", "--b", "2", "--tolerance", "3"],
    ("sl", "black"): ["doc.json", "--out", "f.txt"],
    ("sl", "to-symplectic"): ["--json"],
    ("sl", "dual"): ["--tolerance", "0.1"],
    ("sl", "gale"): ["-"],
    ("cluster", "belt"): ["--width", "3"],
    ("cluster", "mutate"): ["--width", "2", "--word", "0,2"],
    ("cluster", "formal"): ["--width", "1", "--out", "f.txt"],
    ("cluster", "evaluate"): ["--point", "2,3", "--path=-1", "--json"],
    ("polygon", "from-frieze"): ["--anchor", "-4", "doc.json"],
    ("polygon", "to-frieze"): ["--json"],
    ("polygon", "normalize"): ["doc.json", "--tolerance", "1e-3"],
    ("polygon", "coeffs"): [],
    ("search", "enumerate"): ["--width", "2", "--bound", "9", "--dedup", "dihedral"],
    ("search", "orbits"): ["a.json", "b.json"],
}


def parse_outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc, namespace = 0, vars(parse(argv))
        except SystemExit as e:
            rc, namespace = e.code, None
    return rc, out.getvalue(), err.getvalue(), namespace


def parse_with_tree(argv):
    return cli._build_parser().parse_args(argv)


@pytest.fixture
def parsers_built(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_valid_call_builds_one_parser(parsers_built, w2_json):
    rc, _, _ = run(["cluster", "belt", "--width", "1"])
    assert rc == 0 and parsers_built == ["symfrieze cluster belt"]
    del parsers_built[:]
    rc, _, _ = run(["frieze", "verify", "-"], stdin=w2_json)
    assert rc == 0 and parsers_built == ["symfrieze frieze verify"]


def test_import_builds_no_parser():
    code = (
        "import argparse\n"
        "def refuse(*args, **kwargs): raise SystemExit('parser built at import')\n"
        "argparse.ArgumentParser.__init__ = refuse\n"
        "import symfrieze.cli\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


def test_valid_table_covers_every_command():
    assert set(VALID) == {(g, c) for g, (_, commands) in cli._COMMANDS.items() for c in commands}


@pytest.mark.parametrize("group, command", sorted(VALID))
def test_command_parser_matches_tree(monkeypatch, parsers_built, group, command):
    monkeypatch.setenv("COLUMNS", "80")
    valid = VALID[group, command]
    for argv in ([group, command] + valid,
                 [group, command, "-h"],
                 [group, command],
                 [group, command, "--bogus"],
                 [group, command] + valid + ["--bogus"],
                 [group, command] + valid + ["extra"],
                 [group, command] + valid + ["--tolerance", "x"]):
        del parsers_built[:]
        got = parse_outcome(cli._parse_args, argv)
        if argv == [group, command] + valid:
            assert got[0] == 0 and parsers_built == [f"symfrieze {group} {command}"]
        assert got == parse_outcome(parse_with_tree, argv), argv


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["--bogus"], ["frieze"], ["frieze", "-h"], ["frieze", "bogus"],
    ["search", "--bogus", "enumerate"], ["-h", "frieze", "verify"],
])
def test_top_level_usage_matches_tree(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    got = parse_outcome(cli._parse_args, argv)
    assert got[3] is None  # help or a usage error: argparse exits
    assert got == parse_outcome(parse_with_tree, argv)


# ---------------------------------------------------------------------------
# the module as a program: `python -m symfrieze.cli` reads sys.argv

def symfrieze_cli(*argv, stdin=""):
    return subprocess.run([sys.executable, "-m", "symfrieze.cli", *argv], input=stdin,
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
                          timeout=60)


def readme_output(command):
    """The lines the README shows after `$ command`, up to a blank line or fence."""
    lines = README.read_text(encoding="utf-8").splitlines()
    shown = []
    for line in lines[lines.index(f"$ {command}") + 1:]:
        if not line or line.startswith(("$ ", "```")):
            break
        shown.append(line)
    return "\n".join(shown) + "\n"


def test_module_entry_point_matches_readme():
    done = symfrieze_cli("search", "enumerate", "--width", "1", "--bound", "5")
    want = readme_output("symfrieze search enumerate --width 1 --bound 5")
    assert (done.returncode, done.stdout, done.stderr) == (0, want, "")

    build = "symfrieze frieze from-coeffs --a 6,3,1,3,4,2,1 --b 3,14,1,2,6,5,1"
    built = symfrieze_cli(*build.split()[1:])
    assert (built.returncode, built.stdout, built.stderr) == (0, readme_output(build), "")
    done = symfrieze_cli("frieze", "verify", "-", stdin=built.stdout)
    want = readme_output(f"{build} | symfrieze frieze verify -")
    assert (done.returncode, done.stdout, done.stderr) == (0, want, "")

    done = symfrieze_cli()
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage: symfrieze ")
