"""qhermite2 benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {extremal,operator,short_jobs} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
its ``src`` directory, so nothing needs installing.  The workloads, and
why each exists, are described in ``bench/workloads.py``.

``--trace 0`` measures the end-to-end metrics: set-up time over several
fresh interpreters, then one closed loop with a single client that runs
a fixed list of the workload's jobs, sized to take about S seconds, in a
worker process.  Timings
are wall times scaled to a reference machine speed measured between
jobs (``bench/calibration.py``); the raw figures are printed beside
them.

``--trace 1`` runs a fixed job list twice in fresh worker processes,
untraced and then traced (``bench/tracer.py``), and reports the
per-layer metrics, the tracing overhead, and per-call times beside the
per-call baselines in ROADMAP.md.  Spans go to
``.bench_out/spans-<workload>-<seed>.jsonl``.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every output check passed, 1 when
one failed, and 2 when the checkout holds no ``src/qhermite2``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

# Every run of this script must end within 180 s.
_DEADLINE_S = 170.0
# A worker starts no round after this many times --seconds.
_TIME_LIMIT_FACTOR = 2

_SETUP_PROBES = 7
_SETUP_CALIBRATION = 3

# job_tail_s is the highest of these percentiles with at least ten jobs
# beyond it.  A run's job count is fixed by --seconds, so the level is
# too.
_TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
_TAIL_MIN_BEYOND = 10
_SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import qhermite2, qhermite2.cli\n"
    "from qhermite2.context import PrecisionContext\n"
    "PrecisionContext(q='1/2', precision_bits=256)\n"
    "print(time.perf_counter() - start)\n"
)


# Per-call baselines from the ROADMAP table (q = 1/2, 256 bits, one
# untraced call each): (traced name, size label) -> baseline.  They are
# printed only beside calls made at q = 1/2 and 256 bits.
_ROADMAP_PER_CALL = {
    ("qhermite.psi_sequence", "nmax=63"): "1.05 ms",
    ("qkernel.gen_exponential", ""): "0.38 ms at x=1",
    ("qhermite.hermite2_eval_direct", "n=15"): "1.3 ms",
    ("qoscillator.mat_mul", "dim=32"): "112 ms",
    ("qoscillator.verify_algebra", "dim=32"): "0.74 s",
    ("qmeasure.lattice_weight", "K=61"): "17 ms (K=61, M=120)",
    ("qmeasure.unity_check", "n_max=6"): "23 ms",
    ("coherent.cs_eigen_residual", ""): "2.6 ms at trunc 60",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "certified_jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}

# Functions with their own per-layer metrics: name -> statistics.
_HOT = {
    "qkernel.b_coeff": ("calls", "self_s", "hit_ratio"),
    "qkernel.gen_exponential": ("calls", "self_s"),
    "qkernel.phi_rs": ("calls", "self_s"),
    "qhermite.psi_sequence": ("calls", "self_s", "steps"),
    "qhermite.hermite2_coeffs": ("self_s",),
    "qhermite.hermite2_eval_direct": ("self_s",),
    "qoscillator.mat_mul": ("calls", "self_s", "madds"),
    "qoscillator.verify_algebra": ("self_s",),
    "qmeasure.lattice_weight": ("calls", "self_s"),
    "qcalculus.hat_q_integral_finite": ("self_s",),
    "coherent.cs_coeffs": ("self_s",),
    "extremal.carrier_roots": ("calls", "self_s", "evals"),
    "extremal.loadings": ("self_s",),
}

_UNITS = {
    "calls": "count", "self_s": "s", "errors": "count", "hit_ratio": "ratio",
    "steps": "count", "madds": "count", "evals": "count",
}


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for layer in tracer.LAYERS:
        names += [(f"{layer}.{stat}", _UNITS[stat]) for stat in ("calls", "self_s", "errors")]
    for function, stats in _HOT.items():
        names += [(f"{function}.{stat}", _UNITS[stat]) for stat in stats]
    names += [
        ("qoscillator.builds", "count"),
        ("extremal.roots", "count"),
        ("extremal.evals_per_root", "evals/root"),
        ("trace.overhead_pct", "%"),
        ("trace.coverage_pct", "%"),
    ]
    return names


class BenchError(Exception):
    """A worker or probe did not finish cleanly."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _run_child(argv, started: float) -> str:
    timeout = _DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:3]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup(started: float):
    """(scaled, raw) median seconds to import the package and build a
    context in a fresh interpreter."""
    probe = [sys.executable, "-c", _SETUP_PROBE]
    _run_child(probe, started)  # writes the bytecode caches
    kernels = calibration.samples(_SETUP_CALIBRATION)
    raw = statistics.median(float(_run_child(probe, started)) for _ in range(_SETUP_PROBES))
    kernels += calibration.samples(_SETUP_CALIBRATION)
    return raw * calibration.factor(kernels), raw


def run_worker(workload: str, seed: int, started: float, rounds: int, seconds: int,
               trace=False) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--rounds", str(rounds), "--time-limit", str(_TIME_LIMIT_FACTOR * seconds)]
    if trace:
        argv.append("--trace")
    return json.loads(_run_child(argv, started).splitlines()[-1])


def tail(times):
    """(level, value, jobs beyond): the highest listed percentile with at
    least ten jobs beyond it, or the maximum when there are too few jobs."""
    ordered = sorted(times)
    n = len(ordered)
    for level in _TAIL_LEVELS:
        rank = math.ceil(level / 100 * n)
        if n - rank >= _TAIL_MIN_BEYOND:
            return level, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def end_to_end(result: dict, setup):
    """Metrics from scaled times, and a note per metric with raw figures."""
    setup_s, setup_raw = setup
    times, raw = result["scaled_times"], result["times"]
    level, tail_s, beyond = tail(times)
    metrics = {
        "setup_s": setup_s,
        "certified_jobs_per_s": result["certified"] / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    notes = {
        "setup_s": f"median of {_SETUP_PROBES} fresh interpreters; raw {setup_raw:.4g} s",
        "certified_jobs_per_s": f"{result['certified']} certified; raw "
                                f"{result['certified'] / sum(raw):.4g} 1/s",
        "job_p50_s": f"raw {statistics.median(raw):.4g} s",
        "job_tail_s": f"p{level:g} of {len(times)} jobs, {beyond} beyond; "
                      f"raw {tail(raw)[1]:.4g} s",
    }
    fail_frac = result["failed"] / result["attempted"]
    extra = [("fail_frac", fail_frac, "1", f"{result['failed']} of {result['attempted']} jobs")]
    return metrics, notes, extra


def layer_metrics(traced: dict, plain: dict) -> dict:
    trace = traced["trace"]
    stats = trace["stats"]

    def stat(function, field):
        return stats.get(function, {}).get(field, 0)

    values = {}
    for layer in tracer.LAYERS:
        members = [s for key, s in stats.items() if key.split(".", 1)[0] == layer]
        values[f"{layer}.calls"] = sum(s["calls"] for s in members)
        values[f"{layer}.self_s"] = sum(s["self"] for s in members)
        values[f"{layer}.errors"] = sum(s["errors"] for s in members)
    for function, fields in _HOT.items():
        for field in fields:
            if field == "hit_ratio":
                value = trace["b_coeff_hit_ratio"]
            else:
                value = stat(function, "self" if field == "self_s" else field)
            values[f"{function}.{field}"] = value
    values["qoscillator.builds"] = (
        stat("qoscillator.build_position", "calls") + stat("qoscillator.build_momentum", "calls")
    )
    roots = stat("extremal.carrier_roots", "roots")
    values["extremal.roots"] = roots
    evals = stat("extremal.carrier_roots", "evals")
    values["extremal.evals_per_root"] = evals / roots if roots else 0.0
    traced_jobs = sum(traced["scaled_times"])
    plain_jobs = sum(plain["scaled_times"])
    values["trace.overhead_pct"] = 100 * (traced_jobs - plain_jobs) / plain_jobs
    self_total = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS)
    values["trace.coverage_pct"] = 100 * self_total / sum(traced["times"])
    return values


def _print_per_call(trace: dict) -> None:
    print("# per-call times of the calls in the ROADMAP baseline table, from the traced run")
    print("# (inclusive, tracing overhead included; the ROADMAP figures are q = 1/2, 256 bits)")
    for key, label, bits, half, calls, total in trace["sized"]:
        baseline = _ROADMAP_PER_CALL.get((key, label))
        if baseline is None:
            continue
        note = f"  ROADMAP: {baseline}" if bits == 256 and half else ""
        print(f"#   {key}({label}) @{bits} bits, q {'= 1/2' if half else 'varies'}: "
              f"{calls} calls, {1000 * total / calls:.3f} ms/call{note}")
    roots = trace["stats"].get("extremal.carrier_roots")
    if roots and roots.get("evals"):
        print(f"#   carrier_roots time per psi_sequence call under it: "
              f"{1000 * roots['incl'] / roots['evals']:.3f} ms  ROADMAP: 4.5 ms per carrier "
              f"evaluation, which makes 1-4 such calls")


def _write_spans(workload: str, seed: int, spans) -> Path:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-{seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description="qhermite2 benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "qhermite2" / "cli.py").is_file():
        print(f"no qhermite2 sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    print(f"# qhermite2 benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    try:
        if args.trace:
            rounds = workloads.trace_rounds(args.workload, args.seconds)
            plain = run_worker(args.workload, args.seed, started, rounds, args.seconds)
            result = run_worker(args.workload, args.seed, started, rounds, args.seconds, trace=True)
        else:
            setup_s = measure_setup(started)
            rounds = workloads.run_rounds(args.workload, args.seconds)
            result = run_worker(args.workload, args.seed, started, rounds, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = result["environment"]
    print(f"# environment: python={env['python']} mpmath={env['mpmath']} "
          f"backend={env['mpmath_backend']} nproc={env['nproc']} seed={env['seed']}")
    print(f"# jobs: attempted={result['attempted']} certified={result['certified']} "
          f"failed={result['failed']} rounds={result['rounds']} wall={result['wall_s']:.2f} s")
    kernels = result["kernel_s"]
    print(f"# machine speed: calibration kernel mean {1000 * statistics.fmean(kernels):.2f} ms "
          f"over {len(kernels)} samples, reference {1000 * calibration.REFERENCE_S:.2f} ms; "
          f"timings below are scaled to the reference")
    problems = list(result["problems"])
    if args.trace:
        if plain["output_digest"] != result["output_digest"]:
            problems.append("traced CLI output differs from the untraced output")
        metrics = layer_metrics(result, plain)
        units = dict(per_layer_names())
        rows = [(name, metrics[name], units[name], "") for name, _ in per_layer_names()]
        _print_per_call(result["trace"])
        path = _write_spans(args.workload, args.seed, result["trace"]["spans"])
        print(f"# spans: {path.relative_to(ROOT)}")
    else:
        metrics, notes, extra = end_to_end(result, setup_s)
        rows = [(name, metrics[name], END_TO_END_UNITS[name], notes.get(name, ""))
                for name in END_TO_END_UNITS]
        rows += extra
    for name, value, unit, note in rows:
        print(f"{name:40s} {value:>16.6g} {unit:10s} {note}")
    for problem in problems[:20]:
        print(f"output check failed: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, _, unit, _ in rows if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
