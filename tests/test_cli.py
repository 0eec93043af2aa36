import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from symfrieze.cli import main
from symfrieze.formats import document_of, dumps, grid_of, loads, render_frieze_text
from symfrieze.frieze import mirror_grid, sign_twist


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


def test_verify_reports_wild_grid(width2_null):
    rc, out, _ = run(["frieze", "verify", "-"], stdin=dumps(document_of(width2_null)))
    assert rc == 1 and "tame: false" in out


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

    rc, out, _ = run(["polygon", "normalize", "-"], stdin=poly_json)
    assert rc == 0 and loads(out).scalar == "complex-float"


# ---------------------------------------------------------------------------
# search commands

def test_search_enumerate():
    rc, out, _ = run(["search", "enumerate", "--width", "1", "--bound", "5"])
    assert rc == 0 and "count: 6, orbits: 1" in out and "bound: 5" in out


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
