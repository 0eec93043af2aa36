"""Seed 1 of the four benchmark workloads, replayed through `cli.main`.

The jobs come from `bench/workloads.py`, with inputs and expected answers
from `bench/oracle.py`; both are loaded from their files and left as they
are.  Every job runs in-process with its stdin, and its stdout and stderr
are captured.  Each job must pass its oracle check, and its argv, a sha256
of its stdin, its exit code and sha256s of its stdout and stderr must match
the digest in `tests/data/cli_replay_seed1.json`.  So any change in what the
CLI prints or returns on these 357 jobs fails here.

`extra_jobs` adds a fixed list for what no workload reaches: `eq variety`,
`polygon normalize` and `search orbits`, and the exit paths of a bad
`--tolerance`, a non-canonical entry key, a negative width and a zig-zag
width below 1.  Its inputs are `bench/oracle.py` grids drawn by
`bench/workloads.py` `Inputs` from `random.Random(1)`, each job names its
exit code, and its digest rows sit in `tests/data/cli_replay_extra.json`.

Seeds 1-3 of the four workloads (1071 jobs) are replayed outside Tier-1 by

    PYTHONPATH=src python tests/test_cli_replay.py --check

which compares one sha256 per (seed, workload), taken over that
workload's digest rows, with `tests/data/cli_replay_digest.json`, replays
the extra jobs against their file, and exits 1 on any difference.  A
change that alters CLI output on purpose re-pins all three files with

    PYTHONPATH=src python tests/test_cli_replay.py --pin

Usage errors print argparse text, which depends on the terminal width and
the Python version; the replay fixes COLUMNS at 80.
"""

import hashlib
import importlib.util
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Tuple

import pytest

from symfrieze import cli

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


def replay(jobs):
    """One digest row per job, and the oracle's complaints."""
    rows, failures = [], []
    for job in jobs:
        rc, out, err = run_job(job)
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

    def complex_json(grid):
        doc = json.loads(oracle.frieze_json(grid))
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
    return jobs


def replay_extra(jobs):
    """One digest row per extra job, and the jobs whose exit code is not theirs."""
    rows, failures = [], []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for job in jobs:
                for name, text in job.files:
                    Path(name).write_text(text, encoding="utf-8")
                rc, out, err = run_job(job)
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
def test_replay_matches_oracle_and_digest(monkeypatch, jobs, digest, workload):
    monkeypatch.setenv("COLUMNS", "80")
    rows, failures = replay(jobs[workload])
    assert failures == []
    changed = [(i, got[0]) for i, (got, want) in enumerate(zip(rows, digest["jobs"][workload]))
               if got != want]
    assert changed == [], f"{len(changed)} jobs differ from the digest, first {changed[:3]}"
    assert len(rows) == len(digest["jobs"][workload])


def test_extra_jobs_match_their_exit_codes_and_digest(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    rows, failures = replay_extra(extra_jobs(*_bench()))
    assert failures == []
    pinned = json.loads(EXTRA_DIGEST.read_text(encoding="utf-8"))
    assert pinned["seed"] == SEED and len(rows) == len(pinned["jobs"])
    changed = [got[0] for got, want in zip(rows, pinned["jobs"]) if got != want]
    assert changed == [], f"{len(changed)} extra jobs differ from the digest, first {changed[:3]}"


def _rows(workloads, census, seed):
    """{workload: digest rows} of one seed; exits on an oracle complaint."""
    out = {}
    for w in WORKLOADS:
        rows, failures = replay(workloads.make_jobs(w, seed, census))
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


def _replay_seeds():
    os.environ["COLUMNS"] = "80"
    oracle, workloads = _bench()
    census = oracle.load_census()
    return {seed: _rows(workloads, census, seed) for seed in CHECK_SEEDS}


def _replay_extra():
    """Digest rows of the extra jobs; exits when one returns another exit code."""
    rows, failures = replay_extra(extra_jobs(*_bench()))
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


if __name__ == "__main__":
    if sys.argv[1:] == ["--pin"]:
        pin()
    elif sys.argv[1:] == ["--check"]:
        sys.exit(check())
    else:
        raise SystemExit("usage: python tests/test_cli_replay.py --pin | --check")
