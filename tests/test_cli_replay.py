"""Seed 1 of the four benchmark workloads, replayed through `cli.main`.

The jobs come from `bench/workloads.py`, with inputs and expected answers
from `bench/oracle.py`; both are loaded from their files and left as they
are.  Every job runs in-process with its stdin, and its stdout and stderr
are captured.  Each job must pass its oracle check, and its argv, a sha256
of its stdin, its exit code and sha256s of its stdout and stderr must match
the digest in `tests/data/cli_replay_seed1.json`.  So any change in what the
CLI prints or returns on these 357 jobs fails here.

A change that alters CLI output on purpose re-pins the digest with

    PYTHONPATH=src python tests/test_cli_replay.py --pin

Usage errors print argparse text, which depends on the terminal width and
the Python version; the replay fixes COLUMNS at 80.
"""

import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

import pytest

from symfrieze import cli

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
DIGEST = Path(__file__).resolve().parent / "data" / "cli_replay_seed1.json"
SEED = 1
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


@pytest.mark.parametrize("workload", WORKLOADS)
def test_replay_matches_oracle_and_digest(monkeypatch, jobs, digest, workload):
    monkeypatch.setenv("COLUMNS", "80")
    rows, failures = replay(jobs[workload])
    assert failures == []
    changed = [(i, got[0]) for i, (got, want) in enumerate(zip(rows, digest["jobs"][workload]))
               if got != want]
    assert changed == [], f"{len(changed)} jobs differ from the digest, first {changed[:3]}"
    assert len(rows) == len(digest["jobs"][workload])


def pin():
    os.environ["COLUMNS"] = "80"
    oracle, workloads = _bench()
    census = oracle.load_census()
    payload = {"seed": SEED, "jobs": {}}
    for w in WORKLOADS:
        rows, failures = replay(workloads.make_jobs(w, SEED, census))
        if failures:
            raise SystemExit(f"{w}: oracle rejects {len(failures)} jobs, first {failures[0]}")
        payload["jobs"][w] = rows
    lines = ['{"seed": %d, "jobs": {' % SEED]
    for n, w in enumerate(WORKLOADS):
        body = ",\n".join("  " + json.dumps(row) for row in payload["jobs"][w])
        lines.append(f'"{w}": [\n{body}\n]' + ("," if n < len(WORKLOADS) - 1 else ""))
    lines.append("}}")
    DIGEST.parent.mkdir(exist_ok=True)
    DIGEST.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {DIGEST} ({sum(map(len, payload['jobs'].values()))} jobs)", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        raise SystemExit("usage: python tests/test_cli_replay.py --pin")
    pin()
