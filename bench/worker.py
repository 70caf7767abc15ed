"""Run one workload's jobs in this process and print a JSON summary.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; not meant to be run by hand.  Each job is one argv passed to
``qhermite2.cli.main`` with stdout and stderr captured; its wall time
covers the call only.

    worker.py --workload W --seed N --rounds R --time-limit S [--trace]

R rounds run, then the workload's closing jobs, so the job list depends
only on the arguments; no round starts after S seconds, a guard for
machines far slower than the one the round counts were sized on.  The
machine-speed kernel of ``calibration.py`` is sampled five times before
the first job and after the last and once a second in between (inside
jobs too, from a timer signal, with the sampling time left out of the
job times and of the tracer's clock).  A job during which at least three
samples were taken is scaled by their mean, any other job by the mean of
all samples of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import calibration
import checks
import workloads

_CALIBRATE_EVERY_S = 1.0
_CALIBRATION_BURST = 5
_MIN_JOB_SAMPLES = 3


def _environment(seed: int) -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _load_cli(root: Path):
    import qhermite2.cli as cli

    # A qhermite2 installed elsewhere must not stand in for the checkout.
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"qhermite2 imported from {cli.__file__}, not from {root / 'src'}")
    return cli


def run(workload: str, seed: int, rounds: int, time_limit: float, sampler, tracer) -> dict:
    root = Path(__file__).resolve().parent.parent
    cli = _load_cli(root)
    if tracer is not None:
        tracer.install()
    times = []
    job_samples = []  # kernel samples taken during each job
    attempted = certified = 0
    problems = []
    digests = {}
    run_digest = hashlib.sha256()
    stream = workloads.rounds(workload, seed)
    kernels = calibration.samples(_CALIBRATION_BURST)
    start = time.perf_counter()
    done_rounds = 0

    def run_jobs(jobs):
        nonlocal attempted, certified
        for job in jobs:
            if tracer is not None:
                tracer.start_job(attempted)
            out, err = io.StringIO(), io.StringIO()
            paused, sampled = sampler.paused, len(sampler.kernels)
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(job.argv))
                raised = None
            except Exception as exc:  # a raise out of main breaks the exit-code contract
                code, raised = None, exc
            times.append(time.perf_counter() - t0 - (sampler.paused - paused))
            job_samples.append(sampler.kernels[sampled:])
            attempted += 1
            text = out.getvalue()
            if raised is not None:
                ok, problem = False, f"raised {type(raised).__name__}: {raised}"
            else:
                ok, problem = checks.check(job.kind, job.argv, code, text)
            digest = hashlib.sha256(f"{code}\0{text}".encode()).hexdigest()
            run_digest.update(digest.encode())
            if digests.setdefault(job.argv, digest) != digest:
                ok, problem = False, "repeated argv gave different output"
            if problem is not None:
                problems.append(f"{' '.join(job.argv)}: {problem}")
            certified += ok

    try:
        with sampler:
            while done_rounds < rounds and time.perf_counter() - start < time_limit:
                run_jobs(next(stream))
                done_rounds += 1
            run_jobs(workloads.final_jobs(workload))
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - start
    kernels += sampler.kernels + calibration.samples(_CALIBRATION_BURST)
    run_speed = calibration.factor(kernels)
    scaled = [
        t * (calibration.factor(own) if len(own) >= _MIN_JOB_SAMPLES else run_speed)
        for t, own in zip(times, job_samples)
    ]
    return {
        "workload": workload,
        "rounds": done_rounds,
        "attempted": attempted,
        "certified": certified,
        "failed": attempted - certified,
        "problems": problems,
        "times": times,
        "scaled_times": scaled,
        "kernel_s": kernels,
        "wall_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "output_digest": run_digest.hexdigest(),
        "environment": _environment(seed),
    }


def _trace_summary(tracer) -> dict:
    return {
        "stats": {
            key: {"calls": s.calls, "incl": s.incl, "self": s.self, "errors": s.errors, **s.extra}
            for key, s in tracer.stats.items()
        },
        "b_coeff_hit_ratio": tracer.b_coeff_hit_ratio(),
        "sized": [[*label, len(ts), sum(ts)] for label, ts in sorted(tracer.sized.items())],
        "spans": tracer.spans,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--time-limit", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sampler = calibration.Sampler(_CALIBRATE_EVERY_S)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(clock=lambda: time.perf_counter() - sampler.paused)
    result = run(args.workload, args.seed, args.rounds, args.time_limit, sampler, tracer)
    if tracer is not None:
        result["trace"] = _trace_summary(tracer)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
