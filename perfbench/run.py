"""Benchmark for skewclifford: seeded batches of CLI jobs, run in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 20 --trace 0

One client in one process runs jobs back to back (a closed loop) through
`skewclifford.cli.main(argv)`, on spec files written by gen.py, and checks
every output with check.py.  A run ends at the first whole schedule cycle
after --seconds once at least MIN_JOBS jobs are done, so every run holds
the same mix of job sizes.  End-to-end times are in units of a reference
probe timed right before and right after each job (see reference_probe).

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.  --trace 1
runs a fixed number of jobs twice each, untraced and traced, and prints the
per-layer metrics from tracer.py plus the tracing overhead; its counts repeat
exactly for a given seed.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import check
import gen
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_JOBS = 100  # p90 then has at least ten samples above it
JOB_CAP_S = 30.0
HARD_STOP_S = 120.0  # a run starts no job after this, whatever MIN_JOBS says
SETUP_REPEATS = 15
BARE_START_S = 0.065  # median start of `python3 -c pass` on a 2-core x86 VM, Python 3.11
TRACE_JOBS = 40  # rounded up to whole schedule cycles
REF_STEPS = 4000  # about 1.5 ms of reference work
DEFAULT_SEED = 1  # digests.json holds this seed's digests


class JobTimeout(Exception):
    """A job ran past JOB_CAP_S."""


class JobRunner:
    """Runs one job at a time through cli.main, capped by SIGALRM on the main thread."""

    def __init__(self, cli_main, workdir: str, digests: dict):
        self.cli_main = cli_main
        self.workdir = workdir
        self.digests = digests
        self.armed = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self.armed:
            raise JobTimeout()

    def execute(self, job: dict, tracer: Tracer = None):
        """(exit code or failure text, stdout, wall seconds of the cli.main call)."""
        path = gen.write_spec(job, self.workdir)
        argv = [job["argv"][0], path, *job["argv"][1:]]
        out = io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                return self.cli_main(argv)

        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
        start = time.perf_counter()
        try:
            code = tracer.run_job(job["id"], call) if tracer else call()
        except JobTimeout:
            code = f"exceeded the {JOB_CAP_S:g} s cap"
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = "crashed:\n" + traceback.format_exc(limit=4)
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        os.remove(path)
        return code, out.getvalue(), elapsed

    def run(self, job: dict, tracer: Tracer = None):
        """(failure reason or None, wall seconds of the cli.main call)."""
        code, stdout, elapsed = self.execute(job, tracer)
        reason = check.check(job, code, stdout, self.digests.get(job["id"]))
        if reason:
            print(f"{job['id']} ({job['class']}) failed: {reason}", file=sys.stderr)
        return reason, elapsed


def measure_setup():
    """(setup_s, median raw wall seconds) of fresh interpreters that import skewclifford.cli.

    Each import start is timed right after a bare interpreter start with the
    same flags and environment, and setup_s is the median of their ratios
    times BARE_START_S: the set-up time on a host where a bare start takes
    BARE_START_S.  The ratio cancels the host's drift in speed, which moved
    the raw median by up to 30% between runs.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    bare = [sys.executable, "-c", "pass"]
    cmd = [sys.executable, "-c", "import skewclifford.cli"]
    subprocess.run(cmd, env=env, check=True)  # untimed: writes the bytecode cache

    def wall(argv):
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True)
        return time.perf_counter() - start

    ratios, times = [], []
    for _ in range(SETUP_REPEATS):
        reference = wall(bare)
        times.append(wall(cmd))
        ratios.append(times[-1] / reference)
    return BARE_START_S * statistics.median(ratios), statistics.median(times)


def import_cli():
    if not os.path.isdir(os.path.join(SRC, "skewclifford")):
        raise RuntimeError(f"no skewclifford package under {SRC}")
    sys.path.insert(0, SRC)
    import skewclifford.cli

    if not os.path.abspath(skewclifford.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported skewclifford from {skewclifford.cli.__file__}, not from {SRC}")
    return skewclifford.cli.main


def reference_probe() -> float:
    """Wall time of fixed pure-Python integer work that shares no code with skewclifford.

    The speed of a shared host drifts (up to 1.5x, within seconds, on a
    2-core VM whose cores other tenants also use); a job's time divided by
    the probes taken right before and after it cancels that drift.  The
    probe touches only ints and a list, so nothing a change to the package
    does can speed it up.
    """
    start = time.perf_counter()
    x, table = 1, [0] * 97
    for _ in range(REF_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x % 97] += x >> 7
    return time.perf_counter() - start


def timed_run(runner: JobRunner, timed, cycle: int, seconds: float):
    """(job seconds, reference probe seconds, job passed?, wall seconds) of a closed loop.

    Job i runs between probes i and i + 1.
    """
    times, refs, ok = [], [reference_probe()], []
    start = time.perf_counter()
    while True:
        reason, elapsed = runner.run(next(timed))
        refs.append(reference_probe())
        times.append(elapsed)
        ok.append(reason is None)
        wall = time.perf_counter() - start
        if wall >= HARD_STOP_S or (len(times) % cycle == 0 and len(times) >= MIN_JOBS and wall >= seconds):
            return times, refs, ok, wall


def end_to_end(times, refs, ok, wall, cycle: int) -> dict:
    """Metrics of a timed run: in wall seconds, and in reference units (ref).

    A job's ref time is its wall time over the mean of the probes right
    before and after it; the drift is too fast for a longer window.
    jobs_per_kref is the median over whole cycles of correct jobs per 1000
    ref of job time.
    """
    norm = [t / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(times)]
    whole = len(norm) - len(norm) % cycle or len(norm)
    rates = [1000 * sum(ok[i : i + cycle]) / sum(norm[i : i + cycle]) for i in range(0, whole, cycle)]
    return {
        "jobs_per_kref": statistics.median(rates),
        "job_ref.p50": statistics.median(norm),
        "job_ref.p90": statistics.quantiles(norm, n=10)[8],
        "jobs_per_s": sum(ok) / wall,
        "job_s.p50": statistics.median(times),
        "job_s.p90": statistics.quantiles(times, n=10)[8],
        "failed_frac": 1 - sum(ok) / len(ok),
        "ref_s": statistics.median(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(runner: JobRunner, jobs, spans_path: str):
    tracer = Tracer()
    plain = traced = 0.0
    failed = 0
    origin = time.perf_counter()
    for job in jobs:
        reason, elapsed = runner.run(job)
        plain += elapsed
        tracer.install()
        try:
            traced_reason, traced_elapsed = runner.run(job, tracer)
        finally:
            tracer.restore()
        traced += traced_elapsed
        failed += reason is not None or traced_reason is not None
    tracer.write(spans_path, origin)
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    return metrics, len(jobs), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum measured time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    with open(os.path.join(HERE, "digests.json")) as handle:
        recorded = json.load(handle)
    digests = recorded["jobs"].get(args.workload, {}) if args.seed == recorded["seed"] else {}

    cli_main = import_cli()
    setup_s, setup_wall_s = measure_setup()
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = JobRunner(cli_main, workdir, digests)
        warmups, timed = gen.generate(args.workload, args.seed)
        warm_failed = sum(runner.run(job)[0] is not None for job in warmups)
        cycle = gen.cycle_length(args.workload)
        if args.trace:
            out_dir = os.path.join(HERE, ".out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
            jobs = [next(timed) for _ in range(math.ceil(TRACE_JOBS / cycle) * cycle)]
            values, attempted, failed = traced_run(runner, jobs, spans_path)
            wanted = declared["per_layer"]
            print(f"workload {args.workload}, seed {args.seed}: {attempted} jobs, each run untraced then traced")
            print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        else:
            times, refs, ok, wall = timed_run(runner, timed, cycle, args.seconds)
            attempted, failed = len(times), ok.count(False)
            values = dict(end_to_end(times, refs, ok, wall, cycle), setup_s=setup_s, setup_wall_s=setup_wall_s)
            wanted = declared["end_to_end"]
            print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, {attempted} jobs in {wall:.2f} s")
            print(f"  percentiles over {attempted} samples; jobs_per_kref is a median over whole cycles of {cycle} jobs")
            for name, unit in (("jobs_per_s", "1/s"), ("job_s.p50", "s"), ("job_s.p90", "s"), ("failed_frac", "ratio"), ("ref_s", "s"), ("setup_wall_s", "s")):
                print(f"  {name} = {values[name]:.6g} {unit}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0 and warm_failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
