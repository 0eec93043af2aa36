"""Seed 1 of the four benchmark workloads, replayed through `cli.main`.

The jobs come from `bench/workloads.py`, with inputs and expected answers
from `bench/oracle.py`; both are loaded from their files and left as they
are.  Every job runs in-process with its stdin, and its stdout and stderr
are captured.  Each job must pass its oracle check, and its argv, a sha256
of its stdin, its exit code and sha256s of its stdout and stderr must match
the digest in `tests/data/cli_replay_seed1.json`.  So any change in what the
CLI prints or returns on these 357 jobs fails here.

`extra_jobs` adds a fixed list for what no workload reaches: `eq variety`,
`polygon normalize`, `search orbits`, `search enumerate` at bounds past the
workload's, the exit paths of a bad `--tolerance`, a non-canonical entry
key, a negative width and a zig-zag width below 1, complex-float
`frieze verify`, `frieze show` of a planted cell, `frieze twist`, `sl
black`, `sl dual`, `sl gale`, `sl to-symplectic` and `polygon coeffs`,
and `polygon to-frieze` on a Gaussian, a complex-float and two planted
rational polygons (one breaks a first-neighbor pairing, one a
second-neighbor), one job for each (command, scalar kind) pair that no
workload reaches, complex-float `eq monodromy` and `eq variety` on
cycles whose products end on negative zeros, an `--out` into a
missing directory, and an `--out -`, which writes stdout.  Its inputs
are `bench/oracle.py` grids drawn by `bench/workloads.py` `Inputs` from
`random.Random(1)`, each job names its exit code, and its digest rows
sit in `tests/data/cli_replay_extra.json`.

Seeds 1-3 of the four workloads (1071 jobs) are replayed outside Tier-1 by

    PYTHONPATH=src python tests/test_cli_replay.py --check

which compares one sha256 per (seed, workload), taken over that
workload's digest rows, with `tests/data/cli_replay_digest.json`, replays
the extra jobs against their file, and exits 1 on any difference.  A
change that alters CLI output on purpose re-pins all three files with

    PYTHONPATH=src python tests/test_cli_replay.py --pin

The same replay, seeds 1-3 and the extra jobs, runs under a call tracer
(`sys.settrace`, limited to the package's files) in

    PYTHONPATH=src python tests/test_cli_replay.py --reach

which prints every function of `src/symfrieze` that no job enters, with
its line span, and the totals.  It restores any tracer already set.  The
package is imported before the tracer starts, so a function called only
at import (`cli._arg`) is listed too.  It then prints, per command, how
many jobs read or write each scalar kind (the job's `--scalar`, or the
`scalar` tag of a document among its inputs and its stdout), and the
(command, kind) pairs that a user can reach and no job runs.  Tier-1
checks, on the seed-1 and extra replays it already runs, that there is
no such pair.

A line mode of the same tool,

    PYTHONPATH=src python tests/test_cli_replay.py --reach --lines

runs the Tier-1 suite in-process under a line tracer limited to the
package's files, with the package imported afresh under the tracer, and
prints `file:line: text` for every executable line (one that starts
bytecode) that no test runs, then, apart, the lines under
`if __name__ == "__main__":`, which run only when a module is a script,
and last the package's line total, as `wc -l src/symfrieze/*.py` counts it.
Tests that assert wall-clock limits may fail under the tracer; the lines
they run still count.

Usage errors print argparse text, which depends on the terminal width and
the Python version; the replay fixes COLUMNS at 80.
"""

import argparse
import ast
import hashlib
import importlib.util
import io
import json
import os
import pkgutil
import random
import re
import sys
import tempfile
import types
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Tuple

import pytest

import symfrieze
from symfrieze import cli
from symfrieze.scalars import SCALAR_NAMES

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
DIGEST = Path(__file__).resolve().parent / "data" / "cli_replay_seed1.json"
SEEDS_DIGEST = DIGEST.with_name("cli_replay_digest.json")
EXTRA_DIGEST = DIGEST.with_name("cli_replay_extra.json")
SEED = 1
CHECK_SEEDS = (1, 2, 3)
WORKLOADS = ("verify", "build", "census", "cluster")


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _bench():
    """(oracle, workloads) modules; workloads imports the oracle as `oracle`."""
    oracle = _load(BENCH / "oracle.py", "bench_oracle")
    saved = sys.modules.get("oracle")
    sys.modules["oracle"] = oracle
    try:
        workloads = _load(BENCH / "workloads.py", "bench_workloads")
    finally:
        if saved is None:
            del sys.modules["oracle"]
        else:
            sys.modules["oracle"] = saved
    return oracle, workloads


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_job(job):
    """(exit code, stdout, stderr) of one job run through `cli.main`."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(job.stdin), out, err
    try:
        rc = cli.main(list(job.argv))
    except SystemExit as e:  # argparse usage errors
        rc = e.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, out.getvalue(), err.getvalue()


def replay(jobs, record=None):
    """One digest row per job, and the oracle's complaints; `record(argv,
    texts)`, when given, sees each job's argv with its stdin and stdout."""
    rows, failures = [], []
    for job in jobs:
        rc, out, err = run_job(job)
        if record:
            record(job.argv, (job.stdin, out))
        rows.append([job.argv, _sha(job.stdin), rc, _sha(out), _sha(err)])
        verdict = job.check(rc, out)
        if verdict is not None:
            failures.append(f"{job.slot}: {verdict}")
    return rows, failures


class Extra(NamedTuple):
    """One extra job; `files` are (name, text) pairs in its working directory."""

    slot: str
    argv: list
    rc: int
    stdin: str = ""
    files: Tuple[Tuple[str, str], ...] = ()


def extra_jobs(oracle, workloads):
    """The fixed extra job list, built from the workloads' grid draws at SEED."""
    rng = random.Random(SEED)
    # read the pins directly: load_census first checks them against reference counts (~0.5 s)
    pins = json.loads(Path(oracle.PINS_PATH).read_text(encoding="utf-8"))
    inp = workloads.Inputs(rng, oracle.Census(pins))

    def mirrored(grid):
        n2 = 2 * grid.period
        return oracle.Grid(grid.width, {(-x % n2, o): v for (x, o), v in grid.cells.items()}, grid.scalar)

    def complex_json(grid, dump=oracle.frieze_json):
        doc = json.loads(dump(grid))
        doc["entries"] = {k: [float(Fraction(v)), 0.0] for k, v in doc["entries"].items()}
        return json.dumps(dict(doc, scalar="complex-float"))

    def coeff_args(a, b, scalar):
        args = [f"--a={','.join(map(str, a))}", f"--b={','.join(map(str, b))}"]
        return args + (["--scalar", scalar] if scalar != "rational" else [])

    jobs = []
    for w in (1, 2, 3, 4):
        for family in ("int", "rat", "gauss"):
            grid = inp.grid(family, w)
            a, b = grid.coeffs()
            jobs.append(Extra(f"variety w{w} {family}", ["eq", "variety"] + coeff_args(a, b, grid.scalar), 0))
            b[rng.randrange(len(b))] += 1
            jobs.append(Extra(f"off variety w{w} {family}", ["eq", "variety"] + coeff_args(a, b, grid.scalar), 1))
            for anchor in rng.sample(range(grid.period), 2):
                poly = oracle.polygon_json(grid, anchor)
                for tol in ([], ["--tolerance", "1e-6"]):  # an even period exits 1
                    jobs.append(Extra(f"normalize w{w} {family} @{anchor}", ["polygon", "normalize"] + tol,
                                      grid.period % 2 ^ 1, poly))
    jobs.append(Extra("variety short period", ["eq", "variety", "--a=1,2,3", "--b=3,2,1"], 2))

    g, h, r = inp.integral(2), inp.integral(2), inp.rational(2)
    docs = [oracle.frieze_json(g), oracle.frieze_text(g.translated(3)), oracle.frieze_json(mirrored(g)),
            oracle.frieze_text(h), oracle.frieze_json(r), oracle.frieze_text(mirrored(r).translated(2))]
    names = [f"{k}.{'json' if doc.startswith('{') else 'txt'}" for k, doc in enumerate(docs)]
    files = tuple(zip(names, docs))
    jobs.append(Extra("orbits mixed", ["search", "orbits"] + names[::-1], 0, files=files))
    floats = (("f0.json", complex_json(g)), ("f1.json", complex_json(mirrored(g).translated(1))),
              ("f2.json", complex_json(h)))
    jobs.append(Extra("orbits complex", ["search", "orbits", "f0.json", "f1.json", "f2.json"], 2, files=floats))
    jobs.append(Extra("orbits width mismatch", ["search", "orbits", "0.json", "w1.json"], 2,
                      files=(files[0], ("w1.json", oracle.frieze_json(inp.integral(1))))))

    float_doc, poly = complex_json(g), oracle.polygon_json(r, 1)
    for tol in ("-1", "nan", "inf"):
        bad = ["--tolerance", tol]
        jobs.append(Extra(f"verify tolerance {tol}", ["frieze", "verify"] + bad, 2, float_doc))
        jobs.append(Extra(f"normalize tolerance {tol}", ["polygon", "normalize"] + bad, 2, poly))
        jobs.append(Extra(f"orbits tolerance {tol}", ["search", "orbits", "f0.json"] + bad, 2,
                          files=floats[:1]))

    frieze_doc, sl_doc = oracle.frieze_json(r), oracle.sl_json(r)
    for key in ("01,1", " 1,1", "+1,1", "1,1.0"):
        jobs.append(Extra(f"frieze key {key!r}", ["frieze", "verify"], 2,
                          frieze_doc.replace('"1,1":', json.dumps(key) + ":")))
        jobs.append(Extra(f"sl key {key!r}", ["sl", "dual"], 2, sl_doc.replace('"1,1":', json.dumps(key) + ":")))

    negative = {"entries": {}, "kind": "frieze", "period": 4, "scalar": "rational", "width": -1}
    for argv in (["frieze", "verify"], ["frieze", "show"], ["frieze", "twist"], ["sl", "black"],
                 ["polygon", "from-frieze", "--anchor", "0"]):
        jobs.append(Extra(f"negative width {' '.join(argv[:2])}", argv, 1, json.dumps(negative)))
    negative_sl = json.dumps(dict(negative, kind="sl-frieze", order=3))
    for argv in (["sl", "to-symplectic"], ["sl", "dual"], ["sl", "gale"]):
        jobs.append(Extra(f"negative width {' '.join(argv)}", argv, 1, negative_sl))
    for width in ("0", "-1"):
        jobs.append(Extra(f"zig-zag width {width}",
                          ["frieze", "from-zigzag", "--values", "1,1", "--width", width], 2))
    # more translates of each survivor fall inside these boxes than inside the workload's
    for w, bound, dedup in ((3, 8, "dihedral"), (4, 3, "translation"), (2, 30, "none")):
        jobs.append(Extra(f"enumerate w{w} b{bound} {dedup}", ["search", "enumerate", "--width", str(w),
                          "--bound", str(bound), "--dedup", dedup], 0))
    # complex-float documents read without error: the rule scan on stored values, and `_det_lu`
    planted = json.loads(float_doc)
    planted["entries"]["1,1"] = [0.5, 0.25]
    float_sl = complex_json(g, oracle.sl_json)
    jobs += [Extra("verify complex", ["frieze", "verify"], 0, float_doc),
             Extra("show complex planted", ["frieze", "show"], 1, json.dumps(planted)),
             Extra("sl black complex", ["sl", "black"], 0, float_doc),
             Extra("sl dual complex", ["sl", "dual"], 0, float_sl)]
    # the kinds that pair polygon vertices in their own arithmetic, a planted
    # rational vertex (V_3 + V_1 breaks its pairing with V_4), and the
    # complex-float readers of SL bands and polygons
    float_poly = json.loads(oracle.polygon_json(g, 1))
    float_poly["vertices"] = [[[float(Fraction(v)), 0.0] for v in row] for row in float_poly["vertices"]]
    float_poly["form"]["a"] = [float(Fraction(float_poly["form"]["a"])), 0.0]
    float_poly = json.dumps(dict(float_poly, scalar="complex-float"))
    off_poly = json.loads(poly)
    vertices = off_poly["vertices"]
    vertices[3] = [str(Fraction(x) + Fraction(y)) for x, y in zip(vertices[3], vertices[1])]
    jobs += [Extra("to-frieze gauss", ["polygon", "to-frieze"], 0, oracle.polygon_json(inp.gaussian(2), 1)),
             Extra("to-frieze complex", ["polygon", "to-frieze"], 0, float_poly),
             Extra("to-frieze planted", ["polygon", "to-frieze"], 1, json.dumps(off_poly)),
             Extra("sl gale complex", ["sl", "gale"], 0, float_sl),
             Extra("sl to-symplectic complex", ["sl", "to-symplectic"], 0, float_sl),
             Extra("polygon coeffs complex", ["polygon", "coeffs"], 0, float_poly)]
    # V_2 doubled in the polygon of propagate_from_zigzag([1] * 4, 2) at anchor 1:
    # omega(V_0, V_1) stays 0 and omega(V_0, V_2) becomes 2
    doubled = {"base": 0, "form": {"a": "1", "variant": "dual"}, "kind": "polygon", "period": 7,
               "scalar": "rational", "vertices": [["1", "0", "0", "0"], ["1", "1", "0", "0"], ["4", "8", "2", "0"],
                                                  ["1", "5", "4", "1"], ["0", "1", "2", "1"], ["0", "0", "1", "1"],
                                                  ["0", "0", "0", "1"]]}
    jobs.append(Extra("to-frieze planted second", ["polygon", "to-frieze"], 1, json.dumps(doubled)))
    # the twist negates real-valued cells, whose imaginary parts must print as +0
    jobs.append(Extra("twist complex", ["frieze", "twist"], 0, float_doc))
    # the (command, kind) pairs that no job above runs
    z, (a, b) = inp.gaussian(2), g.coeffs()
    za, zb = z.coeffs()
    z_files = (("z0.json", oracle.frieze_json(z)), ("z1.json", oracle.frieze_json(mirrored(z))))
    jobs += [Extra("from-coeffs complex", ["frieze", "from-coeffs"] + coeff_args(a, b, "complex-float"), 0),
             Extra("from-zigzag complex", ["frieze", "from-zigzag", "--values=1,2,1,3", "--width", "2",
                                           "--scalar", "complex-float"], 0),
             Extra("twist gauss", ["frieze", "twist"], 0, oracle.frieze_json(z)),
             Extra("eq check complex", ["eq", "check"] + coeff_args(a, b, "complex-float"), 0),
             Extra("monodromy gauss", ["eq", "monodromy"] + coeff_args(za, zb, "gaussian"), 0),
             Extra("sl gale gauss", ["sl", "gale"], 0, oracle.sl_json(z)),
             Extra("evaluate gauss", ["cluster", "evaluate", "--point=1+1i,2,1/2-1i,3", "--path=0,3",
                                      "--scalar", "gaussian"], 0),
             Extra("evaluate complex", ["cluster", "evaluate", "--point=1,2,3,1", "--path=1",
                                        "--scalar", "complex-float", "--json"], 0),
             Extra("from-frieze complex", ["polygon", "from-frieze", "--anchor", "1"], 0, float_doc),
             Extra("orbits gauss", ["search", "orbits", "z0.json", "z1.json"], 2, files=z_files)]
    # real-valued complex floats whose products end on -0.0 imaginary parts, printed as +0
    signed = ["--a=1,-3,-1,-3,-3,-3", "--b=2,1,-3,0,2,-2", "--scalar", "complex-float"]
    jobs += [Extra("monodromy complex signed zero", ["eq", "monodromy"] + signed, 1),
             Extra("variety complex signed zero", ["eq", "variety"] + signed, 1),
             Extra("out unwritable", ["frieze", "from-coeffs"] + coeff_args(a, b, "rational")
                   + ["--out", "missing/f.txt"], 2),
             Extra("out dash", ["frieze", "from-coeffs"] + coeff_args(a, b, "rational") + ["--out", "-"], 0)]
    return jobs


def replay_extra(jobs, record=None):
    """One digest row per extra job, and the jobs whose exit code is not
    theirs; `record` sees each job's argv with its stdin, files and stdout."""
    rows, failures = [], []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for job in jobs:
                for name, text in job.files:
                    Path(name).write_text(text, encoding="utf-8")
                rc, out, err = run_job(job)
                if record:
                    record(job.argv, (job.stdin, *(text for _, text in job.files), out))
                rows.append([job.slot, job.argv, _sha(json.dumps([job.stdin, job.files])), rc, _sha(out), _sha(err)])
                if rc != job.rc:
                    failures.append(f"{job.slot}: exit {rc}, expected {job.rc}")
        finally:
            os.chdir(cwd)
    return rows, failures


@pytest.fixture(scope="module")
def jobs():
    oracle, workloads = _bench()
    census = oracle.load_census()
    return {w: workloads.make_jobs(w, SEED, census) for w in WORKLOADS}


@pytest.fixture(scope="module")
def digest():
    return json.loads(DIGEST.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def replayed(jobs):
    """Seed 1 and the extra jobs, replayed once: {workload: (rows,
    failures)}, the extra jobs' (rows, failures), and every job's (argv,
    texts) for the kind table."""
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        seeded = {w: replay(jobs[w], lambda *job: runs.append(job)) for w in WORKLOADS}
        extra = replay_extra(extra_jobs(*_bench()), lambda *job: runs.append(job))
    return seeded, extra, runs


def test_digest_covers_seed_one(jobs, digest):
    assert digest["seed"] == SEED
    assert {w: len(digest["jobs"][w]) for w in WORKLOADS} == {w: len(jobs[w]) for w in WORKLOADS}
    assert sum(len(j) for j in jobs.values()) == 357


def test_seed_digests_agree_with_the_seed_one_rows(digest):
    pinned = json.loads(SEEDS_DIGEST.read_text(encoding="utf-8"))
    assert sorted(pinned, key=int) == [str(s) for s in CHECK_SEEDS]
    assert all(sorted(pinned[s]) == sorted(WORKLOADS) for s in pinned)
    assert sum(count for per_seed in pinned.values() for count, _ in per_seed.values()) == 1071
    assert pinned[str(SEED)] == _digests({SEED: digest["jobs"]})[str(SEED)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_replay_matches_oracle_and_digest(replayed, digest, workload):
    rows, failures = replayed[0][workload]
    assert failures == []
    changed = [(i, got[0]) for i, (got, want) in enumerate(zip(rows, digest["jobs"][workload]))
               if got != want]
    assert changed == [], f"{len(changed)} jobs differ from the digest, first {changed[:3]}"
    assert len(rows) == len(digest["jobs"][workload])


def test_extra_jobs_match_their_exit_codes_and_digest(replayed):
    rows, failures = replayed[1]
    assert failures == []
    pinned = json.loads(EXTRA_DIGEST.read_text(encoding="utf-8"))
    assert pinned["seed"] == SEED and len(rows) == len(pinned["jobs"])
    changed = [got[0] for got, want in zip(rows, pinned["jobs"]) if got != want]
    assert changed == [], f"{len(changed)} extra jobs differ from the digest, first {changed[:3]}"


def test_every_reachable_command_kind_pair_is_run(replayed):
    # a workload slot's name fixes its kinds at every seed, and seeds 1-3
    # run the same pairs, so seed 1 and the extra jobs stand for them all
    assert kind_table(replayed[2]) == []


def test_reach_lists_the_functions_no_job_enters(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    jobs = extra_jobs(*_bench())[:2]  # eq variety on and off the variety

    def outer(frame, event, arg):
        return None

    saved = sys.gettrace()
    sys.settrace(outer)
    try:
        missed, total = unentered(lambda: replay_extra(jobs))
        assert sys.gettrace() is outer
        lines, script, count = unrun_lines(lambda: replay_extra(jobs))
        assert sys.gettrace() is outer
    finally:
        sys.settrace(saved)
    names = {name for *_, name in missed}
    assert "cli.main" not in names and "diffeq.variety_residuals" not in names
    assert {"search.census", "cluster.formal_frieze", "scalars.GaussianKind.coerce"} <= names
    assert 0 < len(missed) < total
    assert all(path.endswith(".py") and first <= last for path, first, last, _ in missed)

    def body(f):
        code = f.__code__
        return {(code.co_filename, n) for *_, n in code.co_lines() if n and n != code.co_firstlineno}

    assert not body(cli.main) <= set(lines) and body(symfrieze.search.census) <= set(lines)
    assert [(Path(path).name, _text(path, n)) for path, n in script] == [("cli.py", "sys.exit(main())")]
    assert 0 < len(lines) + len(script) < count


def test_kind_table_reads_scalars_off_argv_and_documents(capsys):
    options = scalar_options()
    assert options[("frieze", "from-coeffs")] == (True, False)
    assert options[("frieze", "verify")] == options[("search", "orbits")] == (False, True)
    assert options[("cluster", "belt")] == (False, False)
    doc = '{"kind":"frieze","scalar":"gaussian"}'
    assert job_kinds(["eq", "check", "--a=1", "--b=1"], ("", ""), True) == {"rational"}
    assert job_kinds(["eq", "check", "--scalar", "gaussian"], ("", ""), True) == {"gaussian"}
    assert job_kinds(["eq", "check", "--scalar=complex-float"], ("", ""), True) == {"complex-float"}
    assert job_kinds(["frieze", "show"], (doc, "frieze width=1 period=6 scalar=gaussian\n"), False) == {"gaussian"}
    runs = [(["frieze", "verify"], (doc, "ok\n")), (["cluster", "belt", "--width", "1"], ("", "x\n"))]
    kind_table(runs)
    out = capsys.readouterr().out.splitlines()
    assert "frieze verify          gaussian 1" in out and "cluster belt           none 1" in out
    assert "  frieze verify rational" in out and "  frieze verify gaussian" not in out
    assert not any(line.startswith("  cluster belt") for line in out)


def _rows(workloads, census, seed, record=None):
    """{workload: digest rows} of one seed; exits on an oracle complaint."""
    out = {}
    for w in WORKLOADS:
        rows, failures = replay(workloads.make_jobs(w, seed, census), record)
        if failures:
            raise SystemExit(f"seed {seed} {w}: oracle rejects {len(failures)} jobs, first {failures[0]}")
        out[w] = rows
    return out


def _digests(per_seed):
    """{seed: {workload: [job count, sha256 of the rows]}} of {seed: {workload: rows}}."""
    return {
        str(seed): {w: [len(rows), _sha(json.dumps(rows))] for w, rows in by_workload.items()}
        for seed, by_workload in per_seed.items()
    }


def _replay_seeds(record=None):
    os.environ["COLUMNS"] = "80"
    oracle, workloads = _bench()
    census = oracle.load_census()
    return {seed: _rows(workloads, census, seed, record) for seed in CHECK_SEEDS}


def _replay_extra(record=None):
    """Digest rows of the extra jobs; exits when one returns another exit code."""
    rows, failures = replay_extra(extra_jobs(*_bench()), record)
    if failures:
        raise SystemExit(f"extra jobs: {len(failures)} exit codes differ, first {failures[0]}")
    return rows


def pin():
    per_seed = _replay_seeds()
    rows = per_seed[SEED]
    lines = ['{"seed": %d, "jobs": {' % SEED]
    for n, w in enumerate(WORKLOADS):
        body = ",\n".join("  " + json.dumps(row) for row in rows[w])
        lines.append(f'"{w}": [\n{body}\n]' + ("," if n < len(WORKLOADS) - 1 else ""))
    lines.append("}}")
    DIGEST.parent.mkdir(exist_ok=True)
    DIGEST.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {DIGEST} ({sum(map(len, rows.values()))} jobs)", file=sys.stderr)
    SEEDS_DIGEST.write_text(json.dumps(_digests(per_seed), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    total = sum(len(r) for by_workload in per_seed.values() for r in by_workload.values())
    print(f"wrote {SEEDS_DIGEST} ({total} jobs)", file=sys.stderr)
    extra = _replay_extra()
    body = ",\n".join("  " + json.dumps(row) for row in extra)
    EXTRA_DIGEST.write_text('{"seed": %d, "jobs": [\n%s\n]}\n' % (SEED, body), encoding="utf-8")
    print(f"wrote {EXTRA_DIGEST} ({len(extra)} jobs)", file=sys.stderr)


def check() -> int:
    """Replay CHECK_SEEDS and the extra jobs against their pins; 0 if all match."""
    got = _digests(_replay_seeds())
    want = json.loads(SEEDS_DIGEST.read_text(encoding="utf-8"))
    differ = 0
    for seed in sorted(set(got) | set(want), key=int):
        for w in WORKLOADS:
            g, p = got.get(seed, {}).get(w), want.get(seed, {}).get(w)
            differ += g != p
            print(f"seed {seed} {w:<8} {'ok' if g == p else 'DIFFERS'} ({g[0] if g else 0} jobs)")
    extra = _replay_extra()
    pinned = json.loads(EXTRA_DIGEST.read_text(encoding="utf-8"))["jobs"]
    extra_differ = sum(g != p for g, p in zip(extra, pinned)) + abs(len(extra) - len(pinned))
    print(f"extra        {'ok' if not extra_differ else 'DIFFERS'} ({len(extra)} jobs)")
    total = sum(count for per_seed in got.values() for count, _ in per_seed.values())
    print(f"{total} jobs replayed, {differ} (seed, workload) digests differ, "
          f"{extra_differ} of {len(extra)} extra jobs differ")
    return 1 if differ or extra_differ else 0


def _defs():
    """{(file, first line): (module.qualname, last line)} of every function
    in the package's modules; a decorated function starts at its first
    decorator, as its code object does."""
    out = {}
    for info in pkgutil.iter_modules(symfrieze.__path__):
        path = importlib.import_module(f"symfrieze.{info.name}").__file__

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(path, first)] = (f"{info.name}.{prefix}{child.name}", child.end_lineno)
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(Path(path).read_text(encoding="utf-8")), "")
    return out


def unentered(run):
    """(functions, count): the package functions that no call enters while
    `run()` runs, as sorted (file, first line, last line, name), and the
    count of all of them.  The tracer sees calls only, not lines, and the
    one set before is put back."""
    defs = _defs()
    files = {path for path, _ in defs}
    entered = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename in files:
            entered.add((code.co_filename, code.co_firstlineno))

    saved = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(saved)
    missed = sorted((path, first, last, name) for (path, first), (name, last) in defs.items()
                    if (path, first) not in entered)
    return missed, len(defs)


_SCALAR_TAG = re.compile(r'"scalar": ?"([a-z-]+)"|\bscalar=([a-z-]+)')


def scalar_options():
    """{(group, command): (takes --scalar, reads documents)} from the CLI's
    command table: a command reads documents when it has an input argument."""
    out = {}
    for group, (_, commands) in cli._COMMANDS.items():
        for command, (func, _, adders) in commands.items():
            dests = {a.dest for a in cli._fill(argparse.ArgumentParser(), func, adders)._actions}
            out[(group, command)] = ("scalar" in dests, bool(dests & {"input", "inputs"}))
    return out


def job_kinds(argv, texts, takes_scalar):
    """The scalar kinds a job reads or writes: its `--scalar` (rational when
    the command takes one and the job names none) and the scalar tag of
    each document among `texts`, its inputs and its stdout."""
    kinds = {m.group(1) or m.group(2) for text in texts for m in _SCALAR_TAG.finditer(text)}
    if takes_scalar:
        named = [v for a, v in zip(argv, argv[1:]) if a == "--scalar"]
        named += [a[len("--scalar="):] for a in argv if a.startswith("--scalar=")]
        kinds.update(named or ["rational"])
    return kinds


def kind_table(runs):
    """Print, per command, how many jobs read or write each scalar kind, and
    the (command, kind) pairs a user can reach that no job runs, which it
    returns.  `runs` holds (argv, texts) per job; a job that reads and
    writes no scalar counts as "none".  Every kind is reachable on a
    command that takes `--scalar` or reads documents, and no kind on any
    other."""
    options = scalar_options()
    counts = {key: {} for key in options}
    for argv, texts in runs:
        key = tuple(argv[:2])
        for kind in job_kinds(argv, texts, options[key][0]) or ["none"]:
            counts[key][kind] = counts[key].get(kind, 0) + 1
    missing = []
    for key, by_kind in counts.items():
        cells = ", ".join(f"{kind} {count}" for kind, count in sorted(by_kind.items())) or "no job"
        print(f"{' '.join(key):<22} {cells}")
        if any(options[key]):
            missing += [f"{' '.join(key)} {kind}" for kind in SCALAR_NAMES if kind not in by_kind]
    print(f"{len(missing)} reachable (command, kind) pairs run by no job" + (":" if missing else ""))
    for pair in missing:
        print(f"  {pair}")
    return missing


def reach():
    """Print the functions that no job of CHECK_SEEDS or the extra list
    enters, then the (command, kind) table of the same jobs."""
    jobs, runs = [], []

    def run():
        per_seed = _replay_seeds(lambda *job: runs.append(job))
        jobs.append(sum(len(rows) for by_workload in per_seed.values() for rows in by_workload.values()))
        jobs.append(len(_replay_extra(lambda *job: runs.append(job))))

    missed, total = unentered(run)
    for path, first, last, name in missed:
        print(f"{Path(path).name}:{first}-{last} {name}")
    lines = {(path, n) for path, first, last, _ in missed for n in range(first, last + 1)}
    print(f"{len(missed)} of {total} functions ({len(lines)} lines) are entered by none of "
          f"the {jobs[0]} workload jobs and {jobs[1]} extra jobs")
    print()
    kind_table(runs)


def _executable_lines():
    """{file: (executable lines, lines under `if __name__ == "__main__":`)}
    of the package's modules.  A line is executable when it starts
    bytecode in the module's code or in any code object nested in it."""
    out = {}
    for info in pkgutil.iter_modules(symfrieze.__path__):
        path = importlib.util.find_spec(f"symfrieze.{info.name}").origin
        source = Path(path).read_text(encoding="utf-8")
        lines, todo = set(), [compile(source, path, "exec")]
        while todo:
            code = todo.pop()
            lines.update(n for *_, n in code.co_lines() if n)
            todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        script = {
            n for node in ast.parse(source).body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
            for child in node.body for n in range(child.lineno, child.end_lineno + 1)
        }
        out[path] = (lines, script)
    return out


def _text(path, n):
    return Path(path).read_text(encoding="utf-8").splitlines()[n - 1].strip()


def unrun_lines(run):
    """(lines, script lines, count): the executable package lines that no
    line event reaches while `run()` runs, as sorted (file, line), those
    of them that run only in a script, and the count of all executable
    lines.  The tracer set before is put back."""
    table = _executable_lines()
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in table else None

    saved = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(saved)
    missed = sorted((path, n) for path, (lines, _) in table.items() for n in lines if (path, n) not in ran)
    script = [(path, n) for path, n in missed if n in table[path][1]]
    return [m for m in missed if m not in script], script, sum(len(lines) for lines, _ in table.values())


def reach_lines():
    """Print the package lines that no Tier-1 test runs."""
    status = []

    def run():
        # import the package again under the tracer, so module-level lines count
        for name in [m for m in sys.modules if m == "symfrieze" or m.startswith("symfrieze.")]:
            del sys.modules[name]
        status.append(pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                                   str(ROOT / "tests")]))

    missed, script, total = unrun_lines(run)
    for path, n in missed:
        print(f"{Path(path).name}:{n}: {_text(path, n)}")
    print("run only as a script:")
    for path, n in script:
        print(f"{Path(path).name}:{n}: {_text(path, n)}")
    modules = Path(symfrieze.__path__[0]).glob("*.py")
    size = sum(path.read_text(encoding="utf-8").count("\n") for path in modules)
    print(f"{len(missed)} of {total} executable lines are run by no Tier-1 test, "
          f"and {len(script)} more run only as a script (pytest exit code {status[0]}); "
          f"src/ has {size} lines")


if __name__ == "__main__":
    if sys.argv[1:] == ["--pin"]:
        pin()
    elif sys.argv[1:] == ["--check"]:
        sys.exit(check())
    elif sys.argv[1:] == ["--reach"]:
        reach()
    elif sys.argv[1:] == ["--reach", "--lines"]:
        reach_lines()
    else:
        raise SystemExit("usage: python tests/test_cli_replay.py --pin | --check | --reach [--lines]")
