"""Benchmark of nebulab: one seeded workload, closed loop, one client.

    python3 bench/run.py --workload census|search|extraction --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` whole cycles of distinct jobs run
untraced until the jobs have been busy for S seconds, and the end-to-end
metrics are printed.  With ``--trace 1`` one cycle runs untraced, then
again with the per-layer tracer installed; the two passes must produce
identical outputs, and the per-layer metrics are printed.  Durations are
reported at a reference speed (see ``Speed``).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import inputs
import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 5  # fresh processes timed from start to first job; median reported
CALIBRATION_EVERY_S = 0.1  # job time between two speed samples
REFERENCE_CALIBRATION_S = 0.0029
CALIBRATION_ROWS = inputs.random_rows(10, random.Random(0))  # fixed: seed 0, not the run's


def import_program() -> None:
    """Put the checkout's own sources first on the path, or stop."""
    if not (SRC / "nebulab" / "__init__.py").is_file():
        sys.exit(f"bench: no nebulab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nebulab

    if Path(nebulab.__file__).resolve().parent != (SRC / "nebulab").resolve():
        sys.exit(f"bench: imported nebulab from {nebulab.__file__}, not from {SRC}")


def probe(workload: str, seed: int) -> None:
    """Set-up only: interpreter, imports and inputs, then report ready."""
    import_program()
    import workloads

    work = WORK / f"probe-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        workloads.build(workload, seed, work)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Speed:
    """The machine's speed, sampled between jobs.

    The CPUs are shared with other work, and their speed drifts by tens of
    percent from one minute to the next, for every job alike.  A fixed
    pure-Python computation from the benchmark's own code (an exact minimum
    feedback arc set of a fixed 10-vertex tournament, about 3 ms) is timed
    every CALIBRATION_EVERY_S of job time; ``factor`` is its mean time over
    REFERENCE_CALIBRATION_S, the time it took on the reference machine when
    quiet (2 vCPU x86_64, Python 3.11).  Dividing a duration by the factor
    gives it at the reference speed, which removes the drift and keeps the
    program's own cost.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._due = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        oracles.min_backward_edges(CALIBRATION_ROWS)
        self.samples.append(time.perf_counter() - start)

    def after_job(self, busy: float) -> None:
        if busy >= self._due:
            self.sample()
            self._due = busy + CALIBRATION_EVERY_S

    def factor(self) -> float:
        return statistics.fmean(self.samples) / REFERENCE_CALIBRATION_S


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall time from starting a fresh interpreter until its jobs are ready,
    as measured and at the reference speed (3 calibrations before each)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--probe"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        speed = Speed()
        for _ in range(3):
            speed.sample()
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        raw.append(ready - start)
        scaled.append(raw[-1] / speed.factor())
    return raw, scaled


class Outcomes:
    """Latency and verdict of every job attempted in a run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.by_kind: Counter = Counter()
        self.failed_by_kind: Counter = Counter()
        self.speed = Speed()
        self.busy = 0.0  # sum of the latencies

    def run(self, job) -> tuple[float, object]:
        """Time ``job.call`` and re-check its output; the latency and the
        output, None for a failed job."""
        self.by_kind[job.kind] += 1
        start = time.perf_counter()
        try:
            output = job.call()
            elapsed = time.perf_counter() - start
            job.check(output)
        except (Exception, SystemExit):
            elapsed = time.perf_counter() - start
            output = None
            self.failed += 1
            self.failed_by_kind[job.kind] += 1
            if self.failed <= 5:
                print(f"bench: {job.kind} job failed", file=sys.stderr)
                traceback.print_exc(limit=3, file=sys.stderr)
        self.latencies.append(elapsed)
        self.busy += elapsed
        self.speed.after_job(self.busy)
        return elapsed, output


def closed_loop(cycle, seconds: float) -> Outcomes:
    """Whole cycles, one job at a time, until jobs have been busy ``seconds``."""
    outcomes = Outcomes()
    while True:
        for job in cycle:
            outcomes.run(job)
        if outcomes.busy >= seconds:
            return outcomes


def timings(outcomes: Outcomes, factor: float) -> dict[str, tuple[float, str]]:
    """The timing metrics, with durations divided by ``factor``."""
    lat = outcomes.latencies
    deciles = statistics.quantiles(lat, n=10)
    return {
        "jobs_per_s": ((len(lat) - outcomes.failed) / outcomes.busy * factor, "jobs/s"),
        "job_ms.p50": (statistics.median(lat) / factor * 1e3, "ms"),
        "job_ms.p90": (deciles[8] / factor * 1e3, "ms"),
    }


def end_to_end(outcomes: Outcomes, setup: list[float]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics at the reference speed (see ``Speed``)."""
    return timings(outcomes, outcomes.speed.factor()) | {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_passes(jobs) -> tuple[list[Outcomes], dict[str, tuple[float, str]], bool]:
    """One untraced and one traced pass over the same jobs; per-layer
    durations at the reference speed."""
    import tracing
    import workloads

    plain, traced = Outcomes(), Outcomes()
    plain_out = [plain.run(job)[1] for job in jobs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_out = [traced.run(job)[1] for job in jobs]
    finally:
        tracer.restore()
    outputs = [[None if out is None else workloads.fingerprint(out) for out in p]
               for p in (plain_out, traced_out)]
    faithful = None not in outputs[0] and outputs[0] == outputs[1]
    if not faithful:
        print("bench: traced outputs differ from untraced outputs", file=sys.stderr)
    factor = traced.speed.factor()
    plain_s = plain.busy / plain.speed.factor()
    traced_s = traced.busy / factor
    units = dict(tracing.metric_names())
    values = tracer.metrics(traced_s, traced_s - plain_s, 1 / factor)
    return [plain, traced], {k: (v, units[k]) for k, v in values.items()}, faithful


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    rev = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, check=False, timeout=30)
            rev = done.stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "clients": 1, "loop": "closed",
        "pinning": "none: unpinned, on CPUs shared with other work",
        "cache_dropping": "none",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census", "search", "extraction"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    import_program()
    import workloads

    setup_raw, setup = ([], []) if args.trace else setup_seconds(args.workload, args.seed)

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        cycle = workloads.build(args.workload, args.seed, work)
        if args.trace:
            passes, metrics, faithful = traced_passes(cycle)
        else:
            passes = [closed_loop(cycle, args.seconds)]
            metrics, faithful = end_to_end(passes[0], setup), True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    env["jobs"] = attempted
    env["jobs_by_kind"] = dict(sorted(sum((p.by_kind for p in passes), Counter()).items()))
    env["failed_by_kind"] = dict(sorted(sum((p.failed_by_kind for p in passes), Counter()).items()))
    env["speed_factor"] = [p.speed.factor() for p in passes]
    if setup_raw:
        env["setup_probes_s"] = setup_raw
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"failed_ratio {failed / attempted:.6f} ratio ({failed} of {attempted} jobs)")
    if not args.trace:
        print(f"job_ms samples {attempted}")
        as_measured = timings(passes[0], 1.0) | {"setup_s": (statistics.median(setup_raw), "s")}
        for name, (value, unit) in as_measured.items():
            print(f"as measured: {name} {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": faithful and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
