"""Seed 1 of the four benchmark workloads, replayed through `cli.main`.

The jobs come from `bench/workloads.py`, with inputs and expected answers
from `bench/oracle.py`; both are loaded from their files and left as they
are.  Every job runs in-process with its stdin, and its stdout and stderr
are captured.  Each job must pass its oracle check, and its argv, a sha256
of its stdin, its exit code and sha256s of its stdout and stderr must match
the digest in `tests/data/cli_replay_seed1.json`.  So any change in what the
CLI prints or returns on these 357 jobs fails here.

Seeds 1-3 of the four workloads (1071 jobs) are replayed outside Tier-1 by

    PYTHONPATH=src python tests/test_cli_replay.py --check

which compares one sha256 per (seed, workload), taken over that
workload's digest rows, with `tests/data/cli_replay_digest.json`, and
exits 1 on any difference.  A change that alters CLI output on purpose
re-pins both files with

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
SEEDS_DIGEST = DIGEST.with_name("cli_replay_digest.json")
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


def check() -> int:
    """Replay CHECK_SEEDS and compare with the pinned digests; 0 if all match."""
    got = _digests(_replay_seeds())
    want = json.loads(SEEDS_DIGEST.read_text(encoding="utf-8"))
    differ = 0
    for seed in sorted(set(got) | set(want), key=int):
        for w in WORKLOADS:
            g, p = got.get(seed, {}).get(w), want.get(seed, {}).get(w)
            differ += g != p
            print(f"seed {seed} {w:<8} {'ok' if g == p else 'DIFFERS'} ({g[0] if g else 0} jobs)")
    total = sum(count for per_seed in got.values() for count, _ in per_seed.values())
    print(f"{total} jobs replayed, {differ} (seed, workload) digests differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--pin"]:
        pin()
    elif sys.argv[1:] == ["--check"]:
        sys.exit(check())
    else:
        raise SystemExit("usage: python tests/test_cli_replay.py --pin | --check")
