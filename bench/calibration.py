"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine the speed of the same single-threaded
Python code drifts by 10-30% over minutes: the same job took 95 ms in
one five-second window and 150 ms in another on the 2-core machine the
benchmark was built on.  Runs are too short to average that out, so the
timings of a run are scaled by the machine's speed during the run,
measured by a fixed pure-Python kernel (big-integer products and
shifts, tuples, Fractions: the operations mpmath's Python backend and
the exact layer spend their time on) sampled once a second from a
timer signal, so samples fall inside long jobs too, and the time the
samples take is left out of every job time.  A scaled time is the wall
time times ``REFERENCE_S`` over a mean kernel time: that of the samples
taken during the job when there are at least three (jobs of several
seconds), else that of the whole run; on a machine where the kernel
takes ``REFERENCE_S`` the two are equal.  Over five-second windows job
times scaled this way varied 6% where the raw ones varied 14%.  Single
samples vary more than that (the machine switches between speeds within
a second), which is why short jobs share the run's factor.

The kernel uses nothing from the package or its dependencies, so no
change to the program can move it, and it runs with the garbage
collector off, so the program's heap cannot slow it down.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

__all__ = ["REFERENCE_S", "kernel_seconds", "samples", "factor", "Sampler"]

# Median kernel time on the machine the benchmark was built on (2-core
# x86-64 VM, Python 3.11.7).
REFERENCE_S = 0.020

_REPEATS = 2


def _kernel() -> int:
    m = (1 << 256) // 7
    acc = 0
    fr = Fraction(1, 3)
    for i in range(1, 12500):
        p = m * (m + i)
        acc ^= p >> (p.bit_length() - 256)
        pair = (acc & 0xFFFF, i)
        if i % 16 == 0:
            fr = (fr * i + Fraction(i, i + 1)) / (i + 1)
    return pair[0] ^ fr.denominator


def kernel_seconds() -> float:
    """Best of two timings of the kernel, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(_REPEATS):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def samples(count: int):
    """``count`` kernel timings."""
    return [kernel_seconds() for _ in range(count)]


def factor(kernel_times) -> float:
    """Multiplier that takes wall times to reference speed."""
    return REFERENCE_S * len(kernel_times) / sum(kernel_times)


class Sampler:
    """Samples the kernel every ``interval`` seconds from SIGALRM.

    ``kernels`` collects the timings; ``paused`` is the wall time the
    samples took, to leave out of anything timed meanwhile.
    """

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.kernels = []
        self.paused = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernels.append(kernel_seconds())
        self.paused += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
