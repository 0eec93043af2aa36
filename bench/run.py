#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `symfrieze` command line.

One client runs a closed loop: each job is one command line, called
in-process through `symfrieze.cli.main(argv)` with its stdin, and its exit
code and stdout are checked against the oracle after timing.  `setup_s` is
the cost a user pays before any job: a fresh interpreter started until
`import symfrieze.cli` has finished.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

`--trace 0` reports the end-to-end metrics; `--trace 1` runs the job list
once untraced and once under `tracer.Tracer`, reports the per-layer
metrics and writes every span to `.bench_spans/<workload>-<seed>.jsonl`.
The last stdout line is the result object; the line before it holds the
environment, sample counts and unscaled wall-clock figures.

Times are scaled to a reference speed.  On a shared host the interpreter's
speed drifts by tens of percent within seconds, so a fixed pure-Python
calibration unit (`CAL_UNITS`) is timed between jobs, at least every
`CAL_EVERY_S`, and each job's wall time is multiplied by the unit's
reference time over the unit's measured time around the job.  A reported
millisecond is one the job would take on a host that runs the unit in its
reference time; the unscaled figures are in the detail line.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".bench_spans")
WORKLOADS = ("verify", "build", "census", "cluster")

CAL_EVERY_S = 0.05
MIN_SAMPLES = 100
SETUP_STARTS = 7
SETUP_CODE = "import symfrieze.cli"
# the standard-library imports the package itself makes
SETUP_REF_CODE = "import argparse, cmath, dataclasses, fractions, itertools, json, math, re, typing"
SETUP_REF_S = 0.08


# ---------------------------------------------------------------------------
# host speed calibration


def _arith_unit() -> int:
    # Fraction arithmetic, tuple-keyed dicts, int arithmetic and string building
    acc = Fraction(0)
    table = {}
    for i in range(1, 60):
        acc += Fraction(i, i + 1) * Fraction(3, 2 * i + 1)
        table[(i, i % 7)] = acc.numerator % 97
    total = 0
    for (i, j), v in sorted(table.items()):
        total += i * j - v
    return total + len(",".join(str(v) for v in table.values()))


def _parse_unit() -> int:
    # building and running a small argument parser, plus a little arithmetic
    acc = Fraction(0)
    for i in range(1, 30):
        acc += Fraction(i, i + 1) * Fraction(3, 2 * i + 1)
    parser = argparse.ArgumentParser(prog="unit", add_help=False)
    sub = parser.add_subparsers(dest="cmd")
    for i in range(3):
        p = sub.add_parser(f"c{i}", add_help=False)
        p.add_argument("--a", default="0")
        p.add_argument("rest", nargs="?")
    return len(parser.parse_args(["c1", "--a", str(acc.numerator)]).a)


# workload -> (calibration unit, its time at the reference speed in seconds).
# The unit resembles the work that dominates the workload's jobs: arithmetic
# for verify and census, argument parsing for the few-millisecond jobs of
# build and cluster.  A mismatched unit tracks the host's speed less well.
CAL_UNITS = {
    "verify": (_arith_unit, 0.0005),
    "census": (_arith_unit, 0.0005),
    "build": (_parse_unit, 0.001),
    "cluster": (_parse_unit, 0.001),
}


class Clock:
    """Calibration samples interleaved with the jobs."""

    def __init__(self, unit, ref_s: float):
        self.unit = unit
        self.ref_s = ref_s
        self.samples: List[float] = []
        self.last = float("-inf")

    def sample(self) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            self.unit()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        self.last = time.perf_counter()
        return best

    def tick(self) -> int:
        """Sample if due; index of the latest sample before the next job."""
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.sample()
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        """Scale for a job run between sample `index` and the next one."""
        around = self.samples[index:index + 2]
        return self.ref_s / (sum(around) / len(around))


# ---------------------------------------------------------------------------
# running jobs


@dataclass
class Record:
    job: int
    rc: Optional[int]
    out: str
    seconds: float
    error: Optional[str]
    cal: int


def run_job(cli, job):
    out = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(job.stdin), out, io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(list(job.argv))
    except SystemExit as e:  # argparse usage errors
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # an escaped exception fails the job, not the benchmark
        rc, error = None, f"{type(e).__name__}: {e}"
    finally:
        elapsed = time.perf_counter() - t0
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, out.getvalue(), elapsed, error


def run_pass(cli, jobs, clock: Clock, tracer=None) -> List[Record]:
    records = []
    for idx, job in enumerate(jobs):
        cal = clock.tick()
        if tracer is not None:
            tracer.job = idx
        rc, out, elapsed, error = run_job(cli, job)
        records.append(Record(idx, rc, out, elapsed, error, cal))
    return records


def check_records(jobs, records: List[Record]) -> List[str]:
    """One failure line per record whose result the oracle rejects."""
    verdicts = {}
    failures = []
    for r in records:
        key = (r.job, r.rc, r.out, r.error)
        if key not in verdicts:
            if r.error is not None:
                verdicts[key] = r.error
            else:
                try:
                    verdicts[key] = jobs[r.job].check(r.rc, r.out)
                except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as e:
                    verdicts[key] = f"unreadable output ({type(e).__name__}: {e})"
        if verdicts[key] is not None:
            failures.append(f"{jobs[r.job].slot}: {verdicts[key]}")
    return failures


# ---------------------------------------------------------------------------
# metrics


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup() -> tuple:
    """Median scaled and wall time of fresh `import symfrieze.cli` starts.

    Each start sits between two starts of SETUP_REF_CODE, and is scaled by
    SETUP_REF_S / (their mean): a cold start tracks the host's speed for
    process creation and module loading, which the warm calibration unit
    does not.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def start(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       capture_output=True)
        return time.perf_counter() - t0

    start(SETUP_CODE)  # writes the bytecode cache, which users pay only once
    refs = [start(SETUP_REF_CODE)]
    wall = []
    for _ in range(SETUP_STARTS):
        wall.append(start(SETUP_CODE))
        refs.append(start(SETUP_REF_CODE))
    scaled = [t * SETUP_REF_S * 2 / (refs[k] + refs[k + 1]) for k, t in enumerate(wall)]
    return statistics.median(scaled), statistics.median(wall)


def end_to_end(cli, jobs, clock: Clock, seconds: float):
    run_job(cli, jobs[0])  # warm the interpreter's own caches
    setup_s, setup_wall = measure_setup()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds \
            or len(passes) * len(jobs) < MIN_SAMPLES:
        passes.append(run_pass(cli, jobs, clock))
    clock.sample()
    records = [r for p in passes for r in p]
    scaled = [r.seconds * clock.factor(r.cal) for r in records]
    wall = [r.seconds for r in records]
    n = len(records)
    # the median pass, so that a burst of host noise in one pass does not count
    pass_s = statistics.median(sum(r.seconds * clock.factor(r.cal) for r in p) for p in passes)
    metrics = {
        "jobs_per_s": (len(jobs) / pass_s, "1/s", len(passes)),
        "job_p50_ms": (percentile(scaled, 50) * 1e3, "ms", n),
        "job_p90_ms": (percentile(scaled, 90) * 1e3, "ms", n),
        "setup_s": (setup_s, "s", SETUP_STARTS),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    unscaled = {
        "jobs_per_s": n / sum(wall),
        "job_p50_ms": percentile(wall, 50) * 1e3,
        "job_p90_ms": percentile(wall, 90) * 1e3,
        "setup_s": setup_wall,
        "calibration_unit_ms": statistics.median(clock.samples) * 1e3,
    }
    return records, metrics, {"passes": len(passes), "unscaled": unscaled}


def laurent_terms(records: List[Record], jobs) -> int:
    """Most terms in any Laurent polynomial a cluster job printed."""
    most = 0
    for r in records:
        if jobs[r.job].argv[:2] not in (["cluster", "formal"], ["cluster", "mutate"]):
            continue
        for line in r.out.splitlines():
            m = re.match(r"^\s*(?:-?\d+,-?\d+:|u\[\d+\] =)\s*(.*)$", line)
            if m:
                num = m.group(1).split(")/")[0].lstrip("(")
                most = max(most, len(re.split(r" [+-] ", num)))
    return most


def per_layer(cli, jobs, clock: Clock, spans_path: str):
    from tracer import Tracer

    untraced = run_pass(cli, jobs, clock)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, jobs, clock, tracer)
    finally:
        tracer.restore()
    clock.sample()
    mismatched = [
        f"{jobs[u.job].slot}: traced stdout or exit code differs"
        for u, t in zip(untraced, traced) if (u.rc, u.out) != (t.rc, t.out)
    ]
    factors = {t.job: clock.factor(t.cal) for t in traced}
    metrics = {
        name: (value, unit, 1)
        for name, (value, unit) in tracer.layer_metrics(lambda j: factors.get(j, 1.0)).items()
    }
    metrics["cluster.laurent_terms_max"] = (laurent_terms(traced, jobs), "count", 1)
    rate = [len(rs) / sum(r.seconds * clock.factor(r.cal) for r in rs) for rs in (untraced, traced)]
    metrics["trace.overhead_frac"] = (1 - rate[1] / rate[0], "frac", 1)
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.span_records():
            fh.write(json.dumps(span) + "\n")
    return untraced + traced, metrics, {"passes": 2, "mismatched": mismatched}


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": _commit(),
        "src_lines": _src_lines(),
    }


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


# ---------------------------------------------------------------------------
# entry point


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "symfrieze", "cli.py")):
        print(f"no symfrieze sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import symfrieze.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"imported symfrieze from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import oracle
    import workloads

    jobs = workloads.make_jobs(args.workload, args.seed, oracle.load_census())
    clock = Clock(*CAL_UNITS[args.workload])
    clock.sample()
    if args.trace:
        spans = os.path.join(SPANS_DIR, f"{args.workload}-{args.seed}.jsonl")
        records, metrics, extra = per_layer(cli, jobs, clock, spans)
    else:
        records, metrics, extra = end_to_end(cli, jobs, clock, args.seconds)
    failures = check_records(jobs, records) + extra.pop("mismatched", [])
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = len(records)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "jobs": len(jobs),
        "samples": attempted,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:10],
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
        **extra,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, then one table."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = (json.loads(lines[-2]), json.loads(lines[-1]))
    for name, (detail, result) in results.items():
        print(f"{name}  seed {args.seed}  {result['attempted']} jobs run, "
              f"failed_frac {detail['failed_frac']:.4f}")
        for metric, m in detail["metrics"].items():
            print(f"  {metric:<32} {m['value']:>14.6g} {m['unit']:<6} (n={m['samples']})")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results.values()),
        "attempted": sum(r["attempted"] for _, r in results.values()),
        "failed": sum(r["failed"] for _, r in results.values()),
        "metrics": {f"{w}.{k}": v for w, (_, r) in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measure at least this long (whole passes over the job list)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
