"""Seeded job generator for the qhermite2 benchmark.

A job is one ``qhermite2`` command line (an argv list) plus the name of
the job class the output checks key on.  The program receives only the
argv; the seed stays inside the benchmark.

Each workload is a stream of *rounds*.  A round holds the same multiset
of job classes every time; the seed shuffles the order and draws the
parameters inside each class.  A run executes a fixed number of whole
rounds, set by ``--seconds``, so two runs with different seeds do the
same mix of work and their metrics differ by machine noise, not by
which expensive jobs the seed happened to draw.  q and the precision are drawn from a two-dimensional
Kronecker sequence per class with a seeded offset, so every run covers
them evenly instead of by chance; see ``_ShortDraws`` for the q near 1
that would otherwise decide a short-job run.

Why each workload exists:

``extremal``
    Carrier-root search and loadings make up ~90% of the test-suite time
    and each job takes 5-10 s.  q is fixed at 1/2 so the q-keyed caches
    stay warm, and the positive roots can be checked against frozen
    values.  A bound with no root isolates the fixed 1,024-point sign
    scan; a bound with roots adds ~210 bisection steps per root, and the
    precision sets both the bisection depth and the cost of each carrier
    evaluation.  Extremal-root work (seeds plus Newton) must show here.

``operator``
    Dense O(dim^3) ``mat_mul`` is >80% of ``verify --suite commutators``
    at dim 16-48.  A banded operator layer shows here and barely moves
    the other two workloads.  Every job draws a fresh q.

``short_jobs``
    The interactive CLI mix: jobs take ~10 ms at the median, so fixed
    per-job costs dominate (argument parsing, formatting, context
    construction, cold q-keyed caches), plus the series and lattice
    layers.  Each job has a fresh q = a/b with b <= 64 across all of
    (0, 1), so a per-q cache that helps ``extremal`` is pure cost here.
    Extremal and dense-operator work are nearly absent, which makes this
    the bypass workload for those layers.  Two jobs per round repeat an
    earlier argv exactly, exercising the warm path and the byte-identical
    output contract.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "WORKLOADS",
    "Job",
    "rounds",
    "final_jobs",
    "run_rounds",
    "trace_rounds",
    "EXTREMAL_Q",
]

WORKLOADS = ("extremal", "operator", "short_jobs")

EXTREMAL_Q = "1/2"

# Irrational steps of the per-class Kronecker sequences; they are
# linearly independent over Q, so the pairs (u_i, v_i) fill the unit
# square evenly in every prefix.
_STEP_Q = (math.sqrt(5) - 1) / 2
_STEP_PREC = math.sqrt(2) - 1

# Weighted toward 256 bits, the library default.
_SHORT_PRECISIONS = (64, 128, 256, 256, 256, 512)

# (class name, jobs per round).  The cheap classes are a little over
# half of each round, which puts the median job inside them.
_SHORT_MIX = (
    ("poly", 4),
    ("table-spectrum", 1),
    ("table-bn", 1),
    ("table-moments", 1),
    ("cs", 2),
    ("jackson-y", 1),
    ("jackson-x", 1),
    ("jackson-z-radial", 1),
    ("verify-recurrence", 1),
    ("verify-qcalculus", 1),
    ("verify-generating", 1),
    ("verify-qdiff", 2),
    ("verify-moments", 1),
    ("verify-unity", 1),
    ("verify-commutators", 1),
)
_SHORT_REPEATS = 2

# Systematic sampling of q near 1; see _ShortDraws.
_TAIL_U = 1 / 2
_TAIL_EVERY = 2

# Two jobs each at dim 16, 24 and 32 and one at 48: the median then
# falls inside the dim-24 jobs and the p75 inside the dim-32 jobs, not
# on a boundary between two dims.
_OPERATOR_DIMS = (16, 16, 24, 24, 32, 32, 48)
_OPERATOR_PRECISION = 256

# Carrier roots at q = 1/2 sit at 0.879, 5.197, 22.18 and 90.07, so each
# bound range below holds a fixed number of them.  (name, subcommand,
# bound range, precision bits).  One round takes ~28 s on a 2-core
# x86-64 box with the pure-Python mpmath backend.
_EXTREMAL_ROUND = (
    ("extremal-scan", "measure", (Fraction(1, 1000), Fraction(1, 100)), 256),
    ("extremal-one-root", "measure", (Fraction(4), Fraction(5)), 192),
    ("extremal-four-roots", "measure", (Fraction(95), Fraction(100)), 128),
    ("orthonormality", "verify", (Fraction(40), Fraction(60)), 128),
)

# Nominal seconds of one round and of the closing jobs on the reference
# machine (2-core x86-64 VM, pure-Python mpmath), and an allowance for
# set-up probes, worker start and calibration.  They size a run's fixed
# job list from --seconds, so the list depends only on the arguments.
_NOMINAL_ROUND_S = {"extremal": 28.0, "operator": 4.0, "short_jobs": 1.5}
_NOMINAL_FINAL_S = {"short_jobs": 4.0}
_ALLOWANCE_S = 5.0


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the class its output checks key on."""

    kind: str
    argv: Tuple[str, ...]
    repeat: bool = False


# The short-job run ends with its most memory-hungry job (a lattice
# measure at q = 63/64 and 512 bits, ~62 MB peak against ~22 MB for a
# small job).  Run last, on top of everything the run's caches hold, it
# fixes which job sets the peak resident set, which otherwise depended
# on whether the seed drew that corner.
_SHORT_FINAL = (Job(
    "jackson-y",
    ("measure", "--q=63/64", "--precision-bits=512", "--format=csv",
     "--type=jackson", "--variable=y"),
),)

class _Kronecker:
    """2-D Kronecker sequence starting at (u, v)."""

    def __init__(self, u: float, v: float) -> None:
        self._u = u
        self._v = v

    def draw(self) -> Tuple[float, float]:
        u, v = self._u, self._v
        self._u = (u + _STEP_Q) % 1.0
        self._v = (v + _STEP_PREC) % 1.0
        return u, v


class _ShortDraws:
    """(q, precision) draws for one short-job class.

    Series and lattice jobs cost about 1/(1 - q): q = 63/64 at 512 bits
    takes 3-4 s where q = 1/2 takes 20 ms, so the few draws near 1 would
    decide a whole run's time and its slowest jobs.  The upper half of
    the range is therefore sampled systematically: every second job of a
    class takes the next point of a fixed sequence over [1/2, 1) with a
    fixed precision cycle, the same for every seed.  The seed draws the
    other half, q in (0, 1/2) where costs differ by at most 2x, and the
    precision.
    """

    def __init__(self, rng: random.Random, index: int, classes: int) -> None:
        self._body = _Kronecker(rng.random(), rng.random())
        self._phase = index % _TAIL_EVERY
        self._offset = index / classes
        self._count = 0
        self._tail = 0

    def draw(self) -> Tuple[Fraction, int]:
        self._count += 1
        if (self._count + self._phase) % _TAIL_EVERY == 0:
            k = self._tail
            self._tail += 1
            u = _TAIL_U + (1 - _TAIL_U) * ((self._offset + k * _STEP_Q) % 1.0)
            bits = _SHORT_PRECISIONS[k % len(_SHORT_PRECISIONS)]
        else:
            u, v = self._body.draw()
            u *= _TAIL_U
            bits = _SHORT_PRECISIONS[int(v * len(_SHORT_PRECISIONS))]
        return _q_from_unit(u), bits


def _q_from_unit(u: float) -> Fraction:
    """Nearest a/b with b <= 64 to u, kept strictly inside (0, 1)."""
    q = Fraction(u).limit_denominator(64)
    return min(max(q, Fraction(1, 64)), Fraction(63, 64))


def _signed_rational(rng: random.Random, limit: int, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-limit * den, limit * den), den)


def _common(q, bits: int, rng: random.Random) -> List[str]:
    return [f"--q={q}", f"--precision-bits={bits}", f"--format={rng.choice(('csv', 'json'))}"]


def _short_job(kind: str, draws: _ShortDraws, rng: random.Random) -> Job:
    q, bits = draws.draw()
    common = _common(q, bits, rng)
    if kind == "poly":
        x = _signed_rational(rng, 3, 16)
        kind_flag = rng.choice(("h", "psi", "both"))
        argv = ["poly", *common, f"--n={rng.randint(0, 15)}", f"--x={x}", f"--kind={kind_flag}"]
    elif kind.startswith("table-"):
        argv = ["table", *common, f"--what={kind[6:]}", f"--n-max={rng.randint(4, 20)}"]
    elif kind == "cs":
        z_re = _signed_rational(rng, 2, 8)
        z_im = _signed_rational(rng, 2, 8)
        argv = ["cs", *common, f"--z-re={z_re}", f"--z-im={z_im}"]
    elif kind.startswith("jackson-"):
        argv = ["measure", *common, "--type=jackson", f"--variable={kind[8:]}"]
    elif kind == "verify-generating":
        argv = ["verify", *common, "--suite=generating", f"--x={_signed_rational(rng, 2, 8)}"]
    else:
        argv = ["verify", *common, f"--suite={kind[7:]}"]
    return Job(kind, tuple(argv))


def _short_rounds(rng: random.Random) -> Iterator[List[Job]]:
    draws: Dict[str, _ShortDraws] = {
        kind: _ShortDraws(rng, i, len(_SHORT_MIX)) for i, (kind, _) in enumerate(_SHORT_MIX)
    }
    kinds = [kind for kind, count in _SHORT_MIX for _ in range(count)]
    previous: Optional[List[Job]] = None
    index = 0
    while True:
        jobs = [_short_job(kind, draws[kind], rng) for kind in kinds]
        if previous is not None:
            # Rotate through the class list so every class is repeated
            # equally often over a run.
            for _ in range(_SHORT_REPEATS):
                kind = kinds[index % len(kinds)]
                index += 1
                source = next(j for j in previous if j.kind == kind and not j.repeat)
                jobs.append(Job(source.kind, source.argv, repeat=True))
        rng.shuffle(jobs)
        previous = jobs
        yield jobs


def _operator_rounds(rng: random.Random) -> Iterator[List[Job]]:
    # q does not change an operator job's cost, but at every dim a few q
    # fail the 4-ulp gate: with q drawn from the seed, 1 to 11 of 49 jobs
    # failed.  q therefore follows a fixed sequence per dim; the seed
    # shuffles the order and picks the output format.
    seqs = {dim: _Kronecker(dim / 64, 0.0) for dim in set(_OPERATOR_DIMS)}
    while True:
        jobs = []
        for dim in _OPERATOR_DIMS:
            q = _q_from_unit(seqs[dim].draw()[0])
            argv = ["verify", *_common(q, _OPERATOR_PRECISION, rng), "--suite=commutators", f"--dim={dim}"]
            jobs.append(Job("verify-commutators", tuple(argv)))
        rng.shuffle(jobs)
        yield jobs


def _bound_in(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational bound in [lo, hi] on a grid of 1/1000 of the range."""
    return lo + (hi - lo) * Fraction(rng.randint(0, 1000), 1000)


def _extremal_rounds(rng: random.Random) -> Iterator[List[Job]]:
    while True:
        jobs = []
        for kind, command, (lo, hi), bits in _EXTREMAL_ROUND:
            bound = _bound_in(rng, lo, hi)
            common = _common(EXTREMAL_Q, bits, rng)
            if command == "measure":
                argv = ["measure", *common, "--type=extremal", f"--bound={bound}"]
            else:
                argv = ["verify", *common, "--suite=orthonormality", f"--bound={bound}"]
            jobs.append(Job(kind, tuple(argv)))
        rng.shuffle(jobs)
        yield jobs


_FINAL_JOBS = {"short_jobs": _SHORT_FINAL}

_ROUNDS = {
    "extremal": _extremal_rounds,
    "operator": _operator_rounds,
    "short_jobs": _short_rounds,
}


def rounds(workload: str, seed: int) -> Iterator[List[Job]]:
    """Endless stream of rounds for ``workload``; same seed, same jobs."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _ROUNDS[workload](random.Random(f"{workload}:{seed}"))


def final_jobs(workload: str) -> Tuple[Job, ...]:
    """Jobs that close every run of ``workload``."""
    return _FINAL_JOBS.get(workload, ())


def run_rounds(workload: str, seconds: int) -> int:
    """Rounds in a run: as many nominal rounds as fit in ``seconds``."""
    budget = seconds - _ALLOWANCE_S - _NOMINAL_FINAL_S.get(workload, 0.0)
    return max(1, int(budget / _NOMINAL_ROUND_S[workload]))


def trace_rounds(workload: str, seconds: int) -> int:
    """Rounds in a traced run: half of a run, because the traced run
    times its job list twice (untraced, then traced)."""
    return max(1, run_rounds(workload, seconds) // 2)
