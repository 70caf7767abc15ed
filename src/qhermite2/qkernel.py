"""q-arithmetic primitives and the generalized q-exponential.

This is the numeric substrate of the package: integer powers of q, the
finite q-Pochhammer symbol, the three-term recurrence coefficients b_n,
the generalized ladder factorial, the generalized q-exponential, and the
continuous orthogonality weight W.

Every integer power q^n of the rounded q in the series, calculus and
lattice layers comes from one kernel, :func:`q_power` (raw tuples:
:func:`q_power_raw`): the exact power of ``ctx.qm`` rounded once, to
nearest, ties to even, like every operation of :mod:`qhermite2._pairs`.
The one power kernel, :func:`~qhermite2._pairs._power`, rounds it: a
value 64 bits wider than the precision, from the context's chain of
truncated squarings q, q^2, q^4, ... and a count of its truncations,
decides the rounding where the count allows (Ziv's test), and the exact
power where it does not; a memo of q^n answers the calls after the
first.  ``gen_exponential`` reads 1 - q^(n+1) from one list per context
as well.
Each of these tables is kept per precision, the working precision
``ctx.mp.prec`` of the call, as every rounded table is
(:class:`~qhermite2.context.PrecisionContext`).  Consecutive powers come
from :func:`q_power_run`, which yields the same values as integer
mantissas and exponents from one running product and the same test.

Every adaptive series in the package stops on one rule, kept by
:class:`Decay`: three terms in a row with |t| <= tol max(|S|, tol), tol
the context's ``series_tol`` and S the running scale (the partial sum,
or the larger partial sum of a ratio), compared as integer pairs
(:mod:`qhermite2._pairs`) at the working precision.  The ratio series
:func:`gen_exponential` also waits for a term ratio below 1/2.

:func:`gen_exponential` runs on integer pairs as well: each term ratio,
term, partial sum and magnitude is a real or complex pair value, each
part of each operation the exact result rounded once
(:mod:`~qhermite2._pairs`).  Only the conversions of the argument and of
the result go through mpf/mpc objects.

Scalar results are plain mpf/mpc values bound to the calling context's
precision.  Because mpmath exponents are bignums, partial products like
q^(-n^2) never overflow; the overflow failure mode that a fixed-exponent
backend would need to detect is unreachable here, and no artificial
check is performed.

All functions are pure: identical inputs and context give bitwise
identical outputs (deterministic ascending-k summation, no global
state).
"""

from __future__ import annotations

from itertools import islice

from mpmath.libmp import from_man_exp

from . import _pairs
from ._pairs import (
    _ONE,
    _ZERO,
    _as_pair,
    _larger,
    _less,
    _mp,
    _mpf,
    _over,
    _pair,
    _plus,
    _power,
    _product,
    _rational,
    _raw_pair,
    _root,
    _size,
    _squarings,
    _start,
    _sum,
    _times,
)
from .context import PrecisionContext
from .errors import DomainError, NoConvergenceError
from .exact import _bn_squared_rows

__all__ = [
    "q_pochhammer",
    "b_coeff",
    "rho_factorial",
    "gen_exponential",
    "weight_W",
]

# Number of consecutive sub-tolerance terms required before a series is
# considered converged (see Decay).  q-series can plateau (q^{n^2}
# beats x^n only eventually), so a single small term is not evidence of
# convergence.
_STREAK = 3

# 1/2 as an integer pair: the ratio bound of gen_exponential.
_HALF = (1, -1)

# Bits gen_exponential may lose to cancellation: the slack of series_tol,
# 2^-(bits - 20), over the working precision.
_CANCELLATION_GUARD = 20


class Decay:
    """The monitored-decay stop rule of every adaptive series.

    ``settled(last, scale)`` takes the magnitude of the latest term and
    the running scale as nonnegative integer pairs (man, exp) (a finite
    mpf v as ``abs(v)._mpf_[1:3]``) and is True from the _STREAK-th term
    in a row with last <= tol max(scale, tol), tol the context's
    ``series_tol``, the product rounded to nearest at the working
    precision, as ``mpf_mul`` rounds it; any other term resets the
    streak.
    """

    __slots__ = ("tol", "prec", "streak")

    def __init__(self, ctx: PrecisionContext) -> None:
        self.tol = _as_pair(ctx.mpf(ctx.series_tol))
        self.prec = ctx.mp.prec
        self.streak = 0

    def settled(self, last: tuple, scale: tuple) -> bool:
        """Count ``last`` against ``scale``; True once the streak is full.

        With top(v) the t of 2^(t-1) <= v < 2^t, the bound lies in
        [2^(s-2), 2^s], s = top(tol) + top(max(scale, tol)), since
        rounding is monotone and keeps powers of two; so a last term of
        0 or with top at most s - 2 passes, and one with top at least
        s + 2 fails, without the bound being formed.
        """
        tm, te = tol = self.tol
        lm, le = last
        sm, se = scale
        if not lm:
            return self._count(True)
        top = tm.bit_length() + te
        lead = lm.bit_length() + le - top - (max(sm.bit_length() + se, top) if sm else top)
        if -2 < lead < 2:
            bound = _product(tol, tol if _less(scale, tol) else scale, self.prec)
            return self._count(not _less(bound, last))
        return self._count(lead < 0)

    def _count(self, small: bool) -> bool:
        if small:
            self.streak += 1
            return self.streak >= _STREAK
        self.streak = 0
        return False


class _Largest(Decay):
    """:class:`Decay` that also keeps the largest term magnitude it is
    shown, from a first term of 1 on."""

    largest = _ONE

    def settled(self, last: tuple, scale: tuple) -> bool:
        self.largest = _larger(self.largest, last)
        return super().settled(last, scale)


def q_power_raw(n: int, ctx: PrecisionContext) -> tuple:
    """q^n as a raw mpf tuple: the exact power of ``ctx.qm`` rounded once
    to ``ctx.mp.prec`` bits, to nearest, ties to even.

    The first call for n rounds it with :func:`~qhermite2._pairs._power`
    from the context's chain of squarings (:func:`_chain`); the memo
    ``ctx.tables[("q^n", prec)]`` answers every later call for n.
    """
    prec = ctx.mp.prec
    memo = ctx.tables.get(("q^n", prec))
    if memo is None:
        memo = ctx.tables[("q^n", prec)] = {}
    power = memo.get(n)
    if power is None:
        _, man, exp, _ = ctx.qm._mpf_
        chain = _chain(abs(n).bit_length(), ctx)
        power = memo[n] = from_man_exp(*_power((man, exp), n, prec, chain))
    return power


def q_power(n: int, ctx: PrecisionContext):
    """q^n as an mpf, the exact power rounded once (see :func:`q_power_raw`)."""
    return ctx.mp.make_mpf(q_power_raw(n, ctx))


def q_power_run(start: int, stop: int, ctx: PrecisionContext):
    """Yield q^n for n in range(start, stop) as an integer pair (man, exp),
    man 2^exp the value of ``q_power_raw(n, ctx)``.

    The mantissa has ``ctx.mp.prec`` bits (one more only where rounding
    carries to a power of two), so the caller can round products of it
    on integers.  A running product A = pm 2^pe of W = prec + _GUARD
    bits (``_pairs._GUARD``) follows q^n, one multiply by the mantissa
    of q per step, as q^(n+1) = q^n q for every n.  It starts where
    :func:`~qhermite2._pairs._power` does (``_pairs._start``), and every
    truncation rounds down, so with c the truncations in A (at most
    |start| + 3 in the start value, and one per step) and u = 2^(1-W),

        A (1 - u)^c <= q^n <= A (1 - u)^-c,   |A - q^n| < 4c 2^pe,

    as A < 2^(W + pe) and c u <= 1/2 for any run that fits in memory.
    Where that interval lies strictly between two neighbouring
    boundaries of the rounding to prec bits (a float and a midpoint),
    all of it rounds to one float, which is q^n rounded once (Ziv's
    test); elsewhere (rare: the interval covers under 2^-40 of the
    rounding cell on runs of up to a million steps, but every exactly
    representable power lands there) the value is ``q_power_raw``'s.
    For q a power of two every power is exact.
    """
    prec = ctx.mp.prec
    _, man, exp, _ = ctx.qm._mpf_
    if man == 1:
        top = 1 << (prec - 1)
        for n in range(start, stop):
            yield top, exp * n + 1 - prec
        return
    guard = _pairs._GUARD
    width = prec + guard
    pm, pe = _start(start, _chain(abs(start).bit_length(), ctx), width)
    # The top prec + 1 bits of pm, r = pm >> shift, bracket A between
    # r 2^shift and (r + 1) 2^shift: a float and the midpoint above it
    # (r even) or a midpoint and the float above it (r odd).  An
    # interval A +- error strictly inside rounds to (r + 1) >> 1.
    shift = guard - 1
    block = 1 << shift
    mask = block - 1
    error = 4 * (abs(start) + 3 + stop - start)
    limit = block - error
    for n in range(start, stop):
        if error < pm & mask < limit:
            yield ((pm >> shift) + 1) >> 1, pe + guard
        else:
            yield _pair(q_power_raw(n, ctx), prec)
        pm *= man
        pe += exp
        excess = pm.bit_length() - width
        pm >>= excess
        pe += excess


def _chain(count: int, ctx: PrecisionContext) -> tuple:
    """The context's chain of q at prec + _GUARD bits, at least
    ``count`` entries long, kept per working precision in
    ``ctx.tables[("squarings", prec)]``."""
    key = ("squarings", ctx.mp.prec)
    chain = ctx.tables.get(key, ())
    if len(chain) < count:
        _, man, exp, _ = ctx.qm._mpf_
        chain = ctx.tables[key] = _squarings(man, exp, count, ctx.mp.prec + _pairs._GUARD)
    return chain


def q_pochhammer(a, k: int, ctx: PrecisionContext):
    """Finite shifted q-factorial (a; q)_k = prod_{s<k} (1 - a q^s)."""
    if k < 0:
        raise DomainError(f"q_pochhammer needs k >= 0, got {k}")
    mp = ctx.mp
    a = ctx.mpc(a) if isinstance(a, (complex, mp.mpc)) else ctx.mpf(a)
    q = ctx.qm
    out = mp.mpf(1)
    aqs = a
    for _ in range(k):
        out = out * (1 - aqs)
        aqs = aqs * q
    return out


def b_coeff(n: int, ctx: PrecisionContext):
    """Recurrence coefficient b_n = q^{-(2n+1)/2} sqrt(1 - q^{n+1}).

    b_{-1} = 0 by convention.  For fixed q the sequence is strictly
    increasing in n (the q^{-(2n+1)/2} factor dominates).

    The square b_n^2 is formed over exact rationals and rounded as
    ``ctx.mpf`` rounds it, numerator then quotient (twice when the
    denominator is not a power of two), before the square root, so the
    result is accurate to about one ulp uniformly in n.  Computing
    q^{-(2n+1)} in floating point instead would amplify the
    representation error of q by the exponent (powers of an inexact
    base lose about k/2 ulp at exponent k), which is invisible at
    binary-exact q = 1/2 but dominates everywhere else.  The value is
    the entry of :func:`b_table`, formed once per context.
    """
    if n < -1:
        raise DomainError(f"b_coeff needs n >= -1, got {n}")
    if n == -1:
        return ctx.mp.mpf(0)
    return b_table(n + 1, ctx)[n]


def b_table(count: int, ctx: PrecisionContext) -> tuple:
    """(b_0, b_1, ...) for this context, at least ``count`` entries long.

    Each b_n is sqrt of the exact b_n^2 rounded as :func:`b_coeff`
    says; the b_n^2 come in one pass from the running integer powers of
    :func:`~qhermite2.exact._bn_squared_rows`, and the roundings and the
    root are formed on integer pairs, as ``ctx.mpf`` and ``mp.sqrt``
    round them.  The tuple lives in ``ctx.tables`` under that precision,
    so it goes with its context, and grows to exactly the count asked,
    since each entry costs an exact rational of growing size; streaming
    readers ask for blocks, and others once for all they read: each
    growth starts the b_n^2 from a^n and b^n of q = a/b at its first new n.
    Recurrences index it directly.
    """
    key = ("b", ctx.mp.prec)
    table = ctx.tables.get(key, ())
    if len(table) < count:
        prec = ctx.mp.prec
        rows = islice(_bn_squared_rows(ctx.q, len(table)), count - len(table))
        table += tuple(_mpf(_root(_rational(num, den, prec), prec), ctx) for num, den in rows)
        ctx.tables[key] = table
    return table


def rho_factorial(n: int, ctx: PrecisionContext):
    """Generalized ladder factorial rho_n! = (q/(1-q))^n q^{-n^2} (q; q)_n.

    Equals the running product prod_{k=1..n} (q/(1-q)) b_{k-1}^2 (the
    two paths agree to a couple of ulp; the closed form is used here and
    the product form serves as a cross-check in the test suite).
    """
    if n < 0:
        raise DomainError(f"rho_factorial needs n >= 0, got {n}")
    q = ctx.qm
    poch = q_pochhammer(q, n, ctx)
    return (q / (1 - q)) ** n * q_power(-(n * n), ctx) * poch


def _q_complement(n: int, table: list, ctx: PrecisionContext):
    """1 - q^(n+1): entry n of ``table``, the context's list of these
    values (grown here up to n, each the mpf ``1 - q_power(n + 1, ctx)``
    formed on pairs)."""
    prec = ctx.mp.prec
    while len(table) <= n:
        power = q_power_raw(len(table) + 1, ctx)
        table.append(_mpf(_sum(_ONE, (-power[1], power[2]), prec), ctx))
    return table[n]


def _q_complements(ctx: PrecisionContext) -> list:
    """The context's list of 1 - q^(n+1), n = 0, 1, ..., at the working
    precision, grown by the series that read it."""
    return ctx.tables.setdefault(("1-q^(n+1)", ctx.mp.prec), [])


def gen_exponential(x, ctx: PrecisionContext):
    """Generalized q-exponential gex(x) = sum_n q^{n^2} x^n / (q; q)_n.

    Entire in x (the q^{n^2} decay dominates any power), so the argument
    may be real or complex (a complex or an mpc).  Term update:
    T_0 = 1, T_{n+1} = T_n * q^{2n+1} x / (1 - q^{n+1}).
    Equivalently gex(x) = 0phi1(; 0; q, qx).

    Summed until :class:`Decay` settles on |T_{n+1}| against the partial
    sum through T_n and the term ratio is below 1/2, which certifies a
    geometric tail; NoConvergenceError after max_terms terms.  Terms,
    ratios and sums are real or complex pair values, each operation
    correctly rounded, and the sum is returned as an mpf or mpc.

    For a negative or complex x the terms can dwarf the sum (at
    q = 99/100, gex(-10) = -1.37e21 from terms up to 2.4e113), and the
    sum loses L bits to rounding, L = top(max |T_n|) - top(|S|), within 1
    of log2(max |T_n| / |S|) (top(v) is the t of 2^(t-1) <= v < 2^t).
    There, and only there, the largest term is tracked, and
    NoConvergenceError is raised when L exceeds _CANCELLATION_GUARD = 20
    bits.  Its message names the working precision at which the sum would
    keep the bits asked for; L does not shrink as the precision grows,
    so the kernel refuses such an x at every precision.
    """
    prec = ctx.mp.prec
    if isinstance(x, (complex, ctx.mp.mpc)):
        re, im = ctx.mpc(x)._mpc_
        xv, term = (_raw_pair(re), _raw_pair(im)), (_ONE, _ZERO)
        signed = True
    else:
        xv, term = _as_pair(ctx.mpf(x)), _ONE
        signed = xv[0] < 0
    complements = _q_complements(ctx)
    total, decay = _times(term, _ZERO, prec), _Largest(ctx) if signed else Decay(ctx)
    for n in range(ctx.max_terms):
        total = _plus(total, term, prec)
        power = _raw_pair(q_power_raw(2 * n + 1, ctx))
        ratio = _over(_times(xv, power, prec), _as_pair(_q_complement(n, complements, ctx)), prec)
        term = _times(term, ratio, prec)
        if decay.settled(_size(term, prec), _size(total, prec)) and _less(_size(ratio, prec), _HALF):
            if signed:
                (lm, le), (sm, se) = decay.largest, _size(total, prec)
                lost = lm.bit_length() + le - sm.bit_length() - se if sm else prec
                if lost > _CANCELLATION_GUARD:
                    raise NoConvergenceError(
                        f"gen_exponential: the terms cancel: the largest is about 2^{lost} times the sum, "
                        f"which keeps about {max(prec - lost, 0)} of its {prec} bits (guard: "
                        f"{_CANCELLATION_GUARD} bits lost); a {prec}-bit value needs the sum formed at "
                        f"{prec + lost} bits or more"
                    )
            return _mp(total, ctx)
    raise NoConvergenceError(f"gen_exponential: no convergence within max_terms={ctx.max_terms}")


def weight_W(x, ctx: PrecisionContext):
    """Continuous orthogonality weight W(x) = 1 / prod_{s>=0} (1 + x^2 q^{2s}).

    Computed through the real product (each factor exceeds 1, so W lies
    in (0, 1] for real x and W(x) = W(-x)); the product is
    (ix; q)_inf (-ix; q)_inf, factor by factor.  It stops at the first
    x^2 q^{2s} below series_tol.  No suite or command reads W yet.
    """
    mp = ctx.mp
    xv = ctx.mpf(x)
    q = ctx.qm
    q2 = q * q
    tol = ctx.mpf(ctx.series_tol)
    prod = mp.mpf(1)
    factor = xv * xv
    for _ in range(ctx.max_terms):
        if factor < tol:
            return 1 / prod
        prod = prod * (1 + factor)
        factor = factor * q2
    raise NoConvergenceError(
        f"weight_W: tail factor still {factor} after {ctx.max_terms} terms"
    )
