"""Closed-loop benchmark of exact Macaulay verdicts.

    python3 bench/run.py --workload grid-scan --seed 0 --seconds 30 --trace 0

One process, one thread: the workload's jobs run one after another, pass
after pass, until `--seconds` have elapsed; every output is checked.  An
untimed warm-up pass comes first.  With `--trace 0` every later job is timed
against the calibration loop of `speed.py`, and the last line reports the
end-to-end metrics, times in seconds at reference speed.  With `--trace 1`
half the remaining time runs untraced and half traced, and the last line
reports the per-layer metrics of `spans.py` in wall seconds.  A result file with the
environment, every pass and job time and, when traced, the spans of the last
traced pass goes to `.bench_out/` in the checkout.  The exit code is 1 when any output is wrong.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402  (fails, before any output, without the package source)
import spans  # noqa: E402
import speed  # noqa: E402

OUT_DIR = jobs.ROOT / ".bench_out"
SETUP_SAMPLES = 7

END_TO_END = {"batch_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Set-up as a fresh process pays it: import the package, then generate the
# jobs.  Runs in a child interpreter so every sample imports from scratch;
# prints wall seconds and seconds at reference speed.
_SETUP_PROBE = """\
import sys
sys.path.insert(0, {here!r})
import speed

def setup():
    import jobs
    jobs.make_jobs({workload!r}, {seed!r})

_, wall, ref = speed.Probe().measure(setup)
print(wall, ref)
"""

_PROCESS_EVENTS = {"subprocess.Popen", "os.fork", "os.forkpty", "os.posix_spawn", "os.spawn",
                   "os.system", "os.exec", "os.startfile"}


def _threads_alive():
    try:
        return len(os.listdir("/proc/self/task"))
    except FileNotFoundError:
        return threading.active_count()


class Guard:
    """Records every process or thread started while a pass runs."""

    def __init__(self):
        self.active = False
        self.events = []
        sys.addaudithook(self._audit)

    def _audit(self, event, args):
        if self.active and event in _PROCESS_EVENTS:
            self.events.append(event)

    @contextlib.contextmanager
    def watching(self):
        start = threading.Thread.start

        def start_recorded(thread):
            self.events.append("threading.Thread.start")
            start(thread)

        threading.Thread.start = start_recorded
        self.active = True
        try:
            yield
        finally:
            self.active = False
            threading.Thread.start = start
        if _threads_alive() != 1:
            self.events.append(f"{_threads_alive()} threads alive after a pass")


def environment():
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "processes": 1,
        "threads": 1,
        "ref_slice_s": speed.REF_SLICE_S,
    }


def measure_setup(workload, seed):
    """[(wall seconds, seconds at reference speed)], one per child interpreter."""
    code = _SETUP_PROBE.format(here=str(HERE), workload=workload, seed=seed)
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            timeout=120, cwd=jobs.ROOT,
        )
        wall, ref = map(float, done.stdout.split()[-2:])
        samples.append((wall, ref))
    return samples


class Pass(NamedTuple):
    seconds: float  # wall seconds of the pass, calibration slices excluded
    outputs: list  # one per job; the exception when the job raised
    layers: dict | None  # per-layer metrics, when traced
    job_ref_s: list | None  # per-job seconds at reference speed (None if it raised), when probed


def _run_job(job, tracer):
    with tracer.span("job") if tracer is not None else contextlib.nullcontext():
        return jobs.run_job(job)


def run_passes(job_list, seconds, guard, tracer=None, probe=None):
    """Passes over the job list until `seconds` elapse (at least one).

    With a probe, every job is timed against the calibration loop of
    `speed.py`.  The tracer keeps the last pass's spans.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        outputs, job_wall_s, job_ref_s = [], [], []
        if tracer is not None:
            tracer.reset()
        # Start every pass from a collected heap, so that a collection owed
        # by the previous pass does not land at a varying point in this one.
        gc.collect()
        with guard.watching():
            t0 = time.perf_counter()
            for job in job_list:
                wall = ref = None
                try:
                    if probe is None:
                        out = _run_job(job, tracer)
                    else:
                        out, wall, ref = probe.measure(lambda: _run_job(job, tracer))
                except Exception as exc:  # a failed job is counted, not fatal
                    traceback.print_exc()
                    out = exc
                outputs.append(out)
                job_wall_s.append(wall or 0.0)
                job_ref_s.append(ref)
            elapsed = time.perf_counter() - t0 if probe is None else sum(job_wall_s)
        layers = None
        if tracer is not None:
            report_bytes = sum(o["stdout_bytes"] for j, o in zip(job_list, outputs)
                               if j.kind == "cli" and isinstance(o, dict))
            layers = tracer.layer_metrics(report_bytes)
        passes.append(Pass(elapsed, outputs, layers, job_ref_s if probe is not None else None))
    return passes


def check_passes(job_list, passes, expected, seed):
    """(attempted, failed, messages) over every job of every pass."""
    attempted = failed = 0
    messages = []
    for p in passes:
        for job, out in zip(job_list, p.outputs):
            attempted += 1
            bad = [f"{job.key}: raised {out!r}"] if isinstance(out, Exception) else \
                jobs.check(job, out, expected, seed)
            if bad:
                failed += 1
                messages.extend(bad)
    return attempted, failed, messages


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = environment()
    expected = jobs.load_expected()[args.workload]
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    job_list = jobs.make_jobs(args.workload, args.seed)
    guard = Guard()
    problems = []

    start = time.perf_counter()
    warm_up = run_passes(job_list, 0, guard)
    left = args.seconds - (time.perf_counter() - start)
    if args.trace:
        plain = run_passes(job_list, left / 2, guard)
        tracer = spans.Tracer()
        with tracer.installed():
            traced = run_passes(job_list, left / 2, guard, tracer)
        passes = warm_up + plain + traced
        per_pass = [p.layers for p in traced]
        for c in spans.EXACT_COUNTERS:
            if len({m[c] for m in per_pass}) > 1:
                problems.append(f"counter {c} differs between passes: {[m[c] for m in per_pass]}")
        metrics = {m: statistics.median(p[m] for p in per_pass) for m in spans.PER_LAYER
                   if m != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(p.seconds for p in traced)
                                       - statistics.median(p.seconds for p in plain))
        units = spans.PER_LAYER
        span_records = tracer.records()
    else:
        timed = run_passes(job_list, left, guard, probe=speed.Probe())
        passes = warm_up + timed
        # Each job's median over the timed passes, summed over the jobs: a
        # slow moment then costs one sample of one job, not a whole pass.
        job_medians = [statistics.median(r for r in samples if r is not None)
                       for samples in zip(*(p.job_ref_s for p in timed))
                       if any(r is not None for r in samples)]
        metrics = {
            "batch_s": sum(job_medians),
            "setup_s": statistics.median(ref for _, ref in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        span_records = None

    attempted, failed, messages = check_passes(job_list, passes, expected, args.seed)
    problems += [f"started a process or thread during a pass: {e}" for e in guard.events]
    for msg in messages + problems:
        print(f"MISMATCH {msg}", file=sys.stderr)
    correct = failed == 0 and not problems

    times = sorted(p.seconds for p in passes[len(warm_up):])
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env,
        "jobs": [j.key for j in job_list], "pass_seconds": [p.seconds for p in passes],
        "job_ref_seconds": [p.job_ref_s for p in passes if p.job_ref_s is not None],
        "setup_wall_ref_seconds": setup, "metrics": metrics, "attempted": attempted, "failed": failed,
        "problems": messages + problems,
        "span_fields": ["id", "parent", "name", "start", "end"], "spans": span_records,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh)

    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(job_list)} jobs"
          f" (1 warm-up{f', {len(traced)} traced' if args.trace else ''}), "
          f"wall pass seconds min {times[0]:.4f} median {statistics.median(times):.4f} max {times[-1]:.4f}")
    for name, value in metrics.items():
        print(f"  {name:30s} {value:>16.6g} {units[name]}")
    print(f"  {'failed_ratio':30s} {failed / attempted:>16.6g} ratio ({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
