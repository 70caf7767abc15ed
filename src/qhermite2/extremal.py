"""Extremal-measure machinery: carrier roots and point loadings.

The position operator of the oscillator is symmetric with deficiency
indices (1, 1), so its self-adjoint extensions carry a family of
extremal orthogonality measures.  For the zero-parameter extension the
measure is purely atomic; its carrier is the root set of the even
transcendental function

    D(x) = Psi_0(x) + x sum_{k>=1} (-1)^k sqrt([2k-2]!!/[2k-1]!!) Psi_{2k-1}(x)

written with the bracket scaling [s] = b_{s-1}^2 / b_0^2.  The series
coefficients are the origin values S_{2k-1}(0) (up to sign) of the
companion second-kind family S_n, normalized S_0 = 0, S_1 = 1, which
satisfies the same three-term recurrence as Psi_n.  The loading at a
root is the ratio

    sigma_0(x_k) = Num(x_k) / Den'(x_k),
    Num(x) = x sum_j S_{2j-1}(0) S_{2j-1}(x),      Den(x) = -D(x),

evaluated with monitored truncation.  When b_0 = 1 this reproduces the
reproducing-kernel masses 1 / sum_n Psi_n(x_k)^2 of the extremal
measure; for b_0 != 1 the closed-form coefficient polynomials live in
the rescaled variable x/b_0 (see the discrepancy registry, entries
``second_kind_scaling`` and ``carrier_variable_scaling``), so the
kernel mass is computed alongside every loading as a convention-free
cross-check and the total mass is reported as a diagnostic, never
assumed.

All alpha/beta polynomial coefficients and bracket factorials are exact
rationals; only square roots and series evaluation use working-precision
arithmetic.

Every series here (the carrier D and its derivative D', the loading
ratio and the kernel mass) is summed in one streamed pass over the
package's one Psi_n recurrence, :func:`~qhermite2.qhermite._recurrence`,
which yields Psi_n (with Psi_n' when asked) or S_n from their seeds and
reads the context's b_n table; ``psi_sequence`` reads the same stream.
The sums run on integer pairs (man, exp), value man 2^exp, read from the
raw tuples of the b_n and coefficient tables: each product, sum and
quotient is the exact integer operation rounded once to nearest, ties to
even, at the working precision ``ctx.mp.prec`` (:mod:`qhermite2._pairs`),
and the results go back to mpf unchanged.  Each loop stops at the package's
monitored-decay rule, :class:`~qhermite2.qkernel.Decay`: three terms in
a row with |t| <= series_tol max(S, series_tol), S the running sum (for
the loading ratio the larger of |Num| and |Den'|, with t the larger of
their terms).

Carrier roots are found by a sign scan over a fixed grid (its
``grid_points`` set the bracket lattice) on the positive axis.  D is
even bit for bit, not only in exact arithmetic: round-to-nearest is
symmetric in sign, so each recurrence step gives Psi_n(-x) =
(-1)^n Psi_n(x) exactly, every term x Psi_{2k-1}(x) keeps its value and
the stop rule sees the same numbers.  The negative roots are therefore
the mirrored positive ones; and as Num and Den' are odd and each
Psi_n(x)^2 even, bit for bit, ``loadings`` evaluates sigma_0 and the
kernel mass once per +- pair.  The scan signs each grid point in three
ways:

- at or below 2 r0 (``_root_free_radius``, compared exactly) the proof
  D >= 1/2 gives the sign +1 with no evaluation, and a search bound at
  or below 2 r0 holds no root at all;
- above it a screen sums D in doubles with a running error bound,
  which also covers the terms not yet summed, and stops at the first
  term where the sum clears that bound by a wide margin; it keeps a
  sign only there, and may only exclude a grid cell, as one whose ends
  have the same sign;
- every other cell is certified at working precision: D at each of its
  ends whose sign is not proven (a screened sign that this value
  contradicts raises AlgebraViolation), the sign-change test, then
  safeguarded Newton down to a final bracket of width at most
  10^-(precision_bits/4) across which D changes sign.

So every sign change and every root rests on working-precision values,
the same ones a scan of every grid point would use.  At 64 bits the
final width, 1e-16, lies below the evaluation noise of D (about 2^-44,
the series tolerance), so the last halvings there follow rounding
rather than the function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import Optional, Sequence, Tuple

from mpmath.libmp import (
    from_rational,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_pow,
    round_nearest,
    to_rational,
)

from . import _pairs
from ._pairs import (
    _ONE,
    _ZERO,
    _as_pair,
    _larger,
    _magnitude,
    _mpf,
    _product,
    _quotient,
    _root,
    _sum,
)
from .context import PrecisionContext
from .errors import (
    AlgebraViolation,
    DegenerateRootError,
    DomainError,
    NoConvergenceError,
)
from .exact import _bn_squared_rows, bn_squared_exact, extremal_bracket_exact
from .qhermite import _psi_stream, _recurrence, psi_sequence
from .qkernel import _STREAK, Decay, b_coeff, b_table

__all__ = [
    "bracket_double_factorial",
    "bracket_factorial",
    "alpha_coeff",
    "beta_coeff",
    "first_kind_eval",
    "second_kind_eval",
    "CarrierPoint",
    "carrier_roots",
    "loadings",
    "orthonormality_gram",
]

_RND = round_nearest

# The carrier sign screen (``_screen_sum``): a double operation, and
# float() of an mpf, errs by at most _U relative in the normal range; a
# sign is trusted only when the value exceeds the error bound by
# _SCREEN_MARGIN; grid points at or below _SCREEN_LOW are left to the
# working-precision pass, because terms of order x^2 there would near
# the subnormal range, where that relative bound fails.
_U = 2.0 ** -52
_SCREEN_MARGIN = 2.0 ** 10
_SCREEN_LOW = 2.0 ** -300


def bracket_factorial(n: int, q: Fraction) -> Fraction:
    """Exact scaled factorial [n]! = [1][2]...[n] (empty product = 1)."""
    if n < 0:
        raise DomainError(f"bracket factorial needs n >= 0, got {n}")
    out = Fraction(1)
    for s in range(1, n + 1):
        out *= extremal_bracket_exact(s, q)
    return out


def bracket_double_factorial(n: int, q: Fraction) -> Fraction:
    """Exact [n]!! = [n][n-2][n-4]... down to [1] or [2]; [0]!! = [-1]!! = 1."""
    if n < -1:
        raise DomainError(f"bracket double factorial needs n >= -1, got {n}")
    out = Fraction(1)
    s = n
    while s >= 1:
        out *= extremal_bracket_exact(s, q)
        s -= 2
    return out


def _nested_sum(levels: int, upper: int, start: int, ctx: PrecisionContext) -> Fraction:
    """sum_{k=start-descending windows} [k1][k2]... with k_{j+1} <= k_j - 2.

    ``levels`` factors remain; the current index runs from its floor
    (start - 2*(levels-1) ... kept implicit via ``start``) up to
    ``upper``; each inner window tops out two below its outer index.
    Memoised in ``ctx.tables``.
    """
    if levels == 0:
        return Fraction(1)
    memo = ctx.tables.setdefault("nested_sum", {})
    key = (levels, upper, start)
    if key not in memo:
        total = Fraction(0)
        for k in range(start, upper + 1):
            total += extremal_bracket_exact(k, ctx.q) * _nested_sum(
                levels - 1, k - 2, start - 2, ctx
            )
        memo[key] = total
    return memo[key]


def alpha_coeff(m: int, n: int, ctx: PrecisionContext) -> Fraction:
    """Exact first-kind coefficient alpha_{2m-1, n-1}.

    Nested descending sum sum_{k1=2m-1}^{n-1} [k1] sum_{k2=2m-3}^{k1-2}
    [k2] ... sum_{km=1}^{...} [km]; the m = 0 convention is
    alpha_{-1, .} = 1 and an empty outer window sums to 0.
    """
    if m < 0:
        raise DomainError(f"alpha_coeff needs m >= 0, got {m}")
    if m == 0:
        return Fraction(1)
    return _nested_sum(m, n - 1, 2 * m - 1, ctx)


def beta_coeff(m: int, n: int, ctx: PrecisionContext) -> Fraction:
    """Exact second-kind coefficient beta_{2m, n} (even descending windows).

    beta_{0, n} = 1; otherwise sum_{k1=2m}^{n} [k1] sum_{k2=2m-2}^{k1-2}
    [k2] ... sum_{km=2}^{...} [km], empty windows summing to 0.
    """
    if m < 0:
        raise DomainError(f"beta_coeff needs m >= 0, got {m}")
    if m == 0:
        return Fraction(1)
    return _nested_sum(m, n, 2 * m, ctx)


def first_kind_eval(n: int, x, ctx: PrecisionContext):
    """Closed-form first-kind polynomial P_n via the alpha coefficients.

    P_n(x) = sum_{m=0}^{floor(n/2)} (-1)^m alpha_{2m-1, n-1} x^{n-2m}
    / sqrt([n]!).  In this coefficient normalization the argument is
    the b_0-scaled one: P_n(x) = Psi_n(b_0 x).
    """
    if n < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {n}")
    mp = ctx.mp
    xv = ctx.mpf(x)
    total = mp.mpf(0)
    for m in range(n // 2 + 1):
        total = total + ctx.mpf(alpha_coeff(m, n, ctx)) * (-1) ** m * xv ** (
            n - 2 * m
        )
    return total / mp.sqrt(ctx.mpf(bracket_factorial(n, ctx.q)))


def _odd(stream):
    """Entries 1, 3, 5, ... of a stream."""
    return islice(stream, 1, None, 2)


def _second_kind_value(n: int, x, ctx: PrecisionContext):
    """S_n(x) by the recurrence x S_n = b_n S_{n+1} + b_{n-1} S_{n-1}."""
    stream = _recurrence(_as_pair(ctx.mpf(x)), ctx, (_ZERO, _ONE))
    return _mpf(next(islice(stream, n, None)), ctx)


def second_kind_eval(n: int, x, ctx: PrecisionContext):
    """Second-kind polynomial S_n(x), seeds S_0 = 0, S_1 = 1.

    Evaluated by the three-term recurrence and cross-checked against
    the beta-coefficient closed form at the rescaled argument x/b_0,
    where the two provably agree (AlgebraViolation if they do not
    within working tolerance).  At the same argument the closed form
    differs by the b_0 scaling unless b_0 = 1; that recorded deviation
    is registry entry ``second_kind_scaling``.
    """
    if n < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {n}")
    mp = ctx.mp
    value = _second_kind_value(n, x, ctx)
    if n == 0:
        return value
    t = ctx.mpf(x) / b_coeff(0, ctx)
    total = mp.mpf(0)
    deg = n - 1
    for m in range(deg // 2 + 1):
        total = total + ctx.mpf(beta_coeff(m, deg, ctx)) * (-1) ** m * t ** (
            deg - 2 * m
        )
    closed = total / mp.sqrt(ctx.mpf(bracket_factorial(n, ctx.q)))
    scale = max(abs(value), abs(closed), mp.mpf(1))
    if abs(value - closed) > ctx.mpf(ctx.series_tol) * scale:
        raise AlgebraViolation(
            f"second-kind recurrence and closed form disagree at n={n}, "
            f"x={ctx.nstr(ctx.mpf(x), 8)}"
        )
    return value


def _carrier_coefficients(count: int, ctx: PrecisionContext) -> tuple:
    """S_{2j-1}(0) = (-1)^(j-1) sqrt([2j-2]!!/[2j-1]!!) for j = 1, 2, ...

    At least ``count`` entries, at the working precision.  The table
    lives in ``ctx.tables`` under that precision with the exact ratio of
    its last entry, so growing it extends that ratio instead of
    rebuilding the prefix; step j multiplies it by [2j-2]/[2j-1] =
    b_{2j-3}^2/b_{2j-2}^2, from :func:`~qhermite2.exact._bn_squared_rows`.
    Each entry is sqrt(ctx.mpf(ratio)), formed on integer pairs as
    ``b_table`` forms the b_n; ``ctx.mpf`` rounds the numerator and then
    the quotient, so twice when the denominator is not a power of two.
    """
    key = ("carrier", ctx.mp.prec)
    coeffs, ratio = ctx.tables.get(key, ((), Fraction(1)))
    if len(coeffs) < count:
        prec = ctx.mp.prec
        grown = list(coeffs)
        rows = _bn_squared_rows(ctx.q, max(2 * len(coeffs) - 1, 1))
        for j in range(len(coeffs) + 1, count + 1):
            if j > 1:  # [1] = 1
                (n1, d1), (n2, d2) = next(rows), next(rows)
                ratio *= Fraction(n1 * d2, d1 * n2)
            man, exp = _root(_pairs._rational(ratio.numerator, ratio.denominator, prec), prec)
            grown.append(_mpf((man if j % 2 else -man, exp), ctx))
        coeffs = tuple(grown)
        ctx.tables[key] = (coeffs, ratio)
    return coeffs


def _coefficient_stream(ctx: PrecisionContext):
    """S_1(0), S_3(0), ... as integer pairs, from the table grown 32 at a time."""
    j = 0
    while True:
        block = _carrier_coefficients(j + 32, ctx)
        for c in block[j:]:
            yield _as_pair(c)
        j = len(block)


def _carrier_value(
    x, ctx: PrecisionContext, k_terms: Optional[int], slope: bool = False
):
    """Carrier value with tail metadata: (value, terms_used, last_term, slope).

    One streamed pass over Psi_1, Psi_3, ...; with ``slope`` it also
    sums D'(x) = -sum_k c_k (Psi_{2k+1} + x Psi_{2k+1}') over the same
    terms (else the fourth entry is None).  The value does not depend
    on ``slope``.  ``k_terms`` (>= 1, checked by :func:`carrier_roots`)
    caps the number of terms: the decay rule may still stop earlier, and
    a sum that reaches the cap is returned rather than refused (with
    ``k_terms=None`` that raises NoConvergenceError at ``max_terms``).
    """
    xv = ctx.mpf(x)
    cap = k_terms if k_terms is not None else ctx.max_terms
    prec = ctx.mp.prec
    x = _as_pair(xv)
    terms = zip(_coefficient_stream(ctx), _odd(_psi_stream(x, ctx, slope)))
    total, derivative, decay = _ONE, _ZERO, Decay(ctx)
    for k, ((cm, ce), p) in enumerate(islice(terms, cap), 1):
        c = -cm, ce
        if slope:
            p, _, rise = p  # rise = Psi_{2k-1} + x Psi_{2k-1}'
            derivative = _sum(derivative, _product(c, rise, prec), prec)
        term = _product(_product(c, x, prec), p, prec)
        total = _sum(total, term, prec)
        last = _magnitude(term)
        if decay.settled(last, _magnitude(total)):
            break
    else:
        if k_terms is None:
            raise NoConvergenceError(
                f"carrier series terms failed to decay within {cap} terms at "
                f"x={ctx.nstr(xv, 8)}"
            )
    return (
        _mpf(total, ctx),
        k,
        _mpf(last, ctx),
        _mpf(derivative, ctx) if slope else None,
    )


@dataclass(frozen=True)
class CarrierPoint:
    """One carrier root with its loading and truncation metadata."""

    x: object
    sigma0: Optional[object] = None
    kernel_mass: Optional[object] = None
    carrier_residual: Optional[object] = None
    bracket_width: Optional[object] = None
    terms_used: int = 0
    tail_estimate: Optional[object] = None


def _shrink_bracket(lo, hi, flo, tol_root, ctx: PrecisionContext, k_terms):
    """Close a carrier sign change [lo, hi] to width <= tol_root.

    Safeguarded Newton: each step evaluates D and D' in one pass and
    moves the bracket end whose sign D shares, so D(lo) keeps the sign
    of ``flo`` (D(lo) or just its sign) and D(hi) the other one.  The
    next point is the Newton point when it lies strictly inside the
    bracket, else the midpoint.
    Once the Newton step is below tol_root/2, D is probed a quarter of
    tol_root either side of the Newton point; a sign change across the
    probes is the final bracket, centred on the root and narrow enough
    that rounding its ends cannot push it past tol_root.  When rounding
    hides that sign change, the probes inside the bracket shrink it and
    the loop goes on halving.  Returns the final (lo, hi), which is
    wider than tol_root only when one ulp at the root exceeds tol_root.
    """
    quarter = tol_root / 4
    x = (lo + hi) / 2
    while hi - lo > tol_root:
        if not lo < (lo + hi) / 2 < hi:
            return lo, hi  # adjacent floats: wider than tol_root, but final
        fx, _, _, slope = _carrier_value(x, ctx, k_terms, slope=True)
        if fx == 0:
            return x, x
        if (fx > 0) == (flo > 0):
            lo, flo = x, fx
        else:
            hi = x
        # A flat D sends the Newton point out of the bracket: bisect.
        step = fx / slope if slope else hi - lo
        newton = x - step
        x = (lo + hi) / 2
        if abs(step) >= 2 * quarter:
            if lo < newton < hi:
                x = newton
            continue
        if not lo <= newton <= hi:
            continue
        ends = (newton - quarter, newton + quarter)
        sides = []
        for probe in ends:
            fp = _carrier_value(probe, ctx, k_terms)[0]
            if fp == 0:
                return probe, probe
            sides.append((fp > 0) == (flo > 0))
            if lo < probe < hi:
                if sides[-1]:
                    lo, flo = probe, fp
                else:
                    hi = probe
        if sides == [True, False]:
            return ends
        x = (lo + hi) / 2
    return lo, hi


def _screen_sum(x: float, q: float, log_tol: int, cap: int, forced: bool, bs, cs):
    """(sum, bound): the carrier at x summed in doubles, and a bound on
    its distance from the value ``_carrier_value`` computes.

    Sums the same series as ``_carrier_value`` (same recurrence, b_n and
    coefficients, given as the doubles ``bs`` and ``cs``), with a
    first-order running bound ``err`` on the rounding, counting the
    rounding of x, b_n and c_k to doubles.  The working-precision series
    stops at a monitored-decay streak, tolerance 2^log_tol (or after
    ``cap`` terms when ``forced``), that the doubles cannot place
    exactly, so two allowances cover the terms on which the two sums may
    disagree:

    - once the working-precision stop test could have passed three times
      running (checked loosely: twice its tolerance, less the error of
      the term), every later term summed here goes into ``spare``;
    - past the last term k summed here, with n = 2k - 1, rho = x/b_n + q
      gives |Psi_{m+1}| <= rho max(|Psi_m|, |Psi_{m-1}|) for every
      m >= n (b_n grows and b_{m-1}/b_m < q), and c_{k+1}/c_k < q, so
      when rho < 1 term k + i is at most head r^i, with
      head = x |c_k| max(|Psi_n|, |Psi_{n-1}|) and r = q rho, and the
      unsummed terms add up to at most head r / (1 - r).

    Neither allowance needs k to be the last term: at every k with
    rho < 1, ``tail`` covers the terms the working-precision sum adds
    after k and ``spare`` those it stopped short of, so
    err + spare + tail bounds the distance at every such k.  The loop
    therefore stops at the first such k where either the tail bound
    falls below ``err`` or the sum exceeds _SCREEN_MARGIN times that
    bound, which settles the sign ``_screened_sign`` reads.  The bound
    is first order; the caller's margin covers the rest and the
    working-precision rounding (2^(52 - bits) times the double one).
    It is infinite, and the point undecided, for x at or below
    _SCREEN_LOW, after an overflow, and where ``_carrier_value`` may
    raise: unforced, it raises unless its stop test passes three times
    running within ``cap`` terms, which the head r^i bound must show
    (``_stops_within``).  Unforced, the loop stops only where it shows
    that; where it does not, the first kind of stop leaves the point
    undecided and the second sums on, so every point that the first
    kind of stop alone would sign still gets a sign.  When the loop runs past ``bs`` or ``cs`` the IndexError reaches the
    caller, which grows them and calls again.
    """
    if not _SCREEN_LOW < x:
        return 0.0, math.inf
    # Rounded up into the normal range at high precision: a larger
    # tolerance only loosens the stop test, which must stay loose.
    tol = math.ldexp(1.0, max(log_tol, -1000))
    p0, e0 = 1.0, 0.0
    p1 = x / bs[0]
    e1 = 3 * _U * p1
    total, err, spare = 1.0, 0.0, 0.0
    streak = 0
    n = 1
    for k in range(1, cap + 1):
        if k > 1:
            for _ in range(2):
                n += 1
                b_prev, b = bs[n - 2], bs[n - 1]
                rise, fall = x * p1, b_prev * p0
                p2 = (rise - fall) / b
                e2 = (x * e1 + b_prev * e0 + 3 * _U * (abs(rise) + abs(fall))) / b
                p0, e0, p1, e1 = p1, e1, p2, e2 + 2 * _U * abs(p2)
        c = cs[k - 1]
        a = -c * x
        term = a * p1
        total += term
        term_err = abs(a) * e1 + 4 * _U * abs(term)
        err += term_err + _U * abs(total)
        if not err < math.inf:  # overflowed: no later term can settle it
            return total, math.inf
        if streak >= _STREAK:
            spare += abs(term) + term_err
        elif abs(term) - term_err <= 2 * tol * max(abs(total) + err, tol):
            streak += 1
        else:
            streak = 0
        r = q * (x / bs[n] + q)
        if r < q:
            head = x * abs(c) * max(abs(p1) + e1, abs(p0) + e0)
            tail = head * r / (1 - r)
            bound = err + spare + tail
            if tail <= err or abs(total) > _SCREEN_MARGIN * bound:
                if forced or _stops_within(cap - k, total, bound, head, r, log_tol):
                    return total, bound
                if tail <= err:
                    return total, math.inf
    return total, err + spare if forced else math.inf


def _stops_within(
    room: int, total: float, bound: float, head: float, r: float, log_tol: int
) -> bool:
    """Whether the working-precision stop test of ``_screen_sum`` surely
    passes three times running within ``room`` more terms.

    Later sums stay above |total| - bound, so a term passes the stop
    test once below 2^log_tol max(|total| - bound, 2^log_tol), halved
    for slack; term i past the last one summed is at most head r^i, so
    terms i, i + 1 and i + 2 then pass.
    """
    gap = abs(total) - bound
    floor = log_tol - 1 + (max(math.log2(gap), log_tol) if gap > 0 else log_tol)
    i = 1
    if head > 0 and r > 0:
        i = max(1, math.ceil((floor - math.log2(head)) / math.log2(r)))
    return i + 2 <= room


def _screen(grid, ctx: PrecisionContext, k_terms: Optional[int]):
    """``_screen_sum`` at every grid point: (sum, bound) pairs."""
    cap = k_terms if k_terms is not None else ctx.max_terms
    q = float(ctx.q)
    tol = ctx.series_tol  # a power of two: the bit lengths give its log2
    log_tol = tol.numerator.bit_length() - tol.denominator.bit_length()
    count, bs, cs = 0, [], []
    for g in grid:
        while True:
            try:
                pair = _screen_sum(float(g), q, log_tol, cap, k_terms is not None, bs, cs)
            except IndexError:
                count += 32
                bs += [float(b) for b in b_table(2 * count, ctx)[len(bs):]]
                cs += [float(c) for c in _carrier_coefficients(count, ctx)[len(cs):]]
                continue
            except ZeroDivisionError:  # a b_n below the double range
                pair = 0.0, math.inf
            break
        yield pair


def _screened_sign(total: float, bound: float) -> int:
    """The sign of a screened sum that clears the margin, else 0."""
    # A NaN or an infinity fails both comparisons.
    if total > _SCREEN_MARGIN * bound:
        return 1
    if total < -_SCREEN_MARGIN * bound:
        return -1
    return 0


def _root_free_radius(q: Fraction) -> Fraction:
    """r0 with D(x) >= 1/2 for 0 < x <= 2 r0: no carrier root there.

    From the bounds ``_screen_sum`` states: c_1 = 1 and
    |c_{k+1}/c_k| < q, so |c_k| < q^(k-1); while x/b_0 + q < 1,
    |Psi_{m+1}| <= (x/b_m + q) max(|Psi_m|, |Psi_{m-1}|) keeps every
    |Psi_n(x)| <= max(Psi_0, Psi_1) = max(1, x/b_0) = 1.  Then
    |D(x) - 1| <= x sum_k q^(k-1) = x/(1 - q), which is at most 1/2 for
    x <= (1 - q) min(1, b_0)/2.  min(1, b_0^2) <= min(1, b_0) keeps r0
    rational, and x <= 2 r0 still has x/b_0 + q < 1.
    """
    return (1 - q) * min(1, bn_squared_exact(0, q)) / 4


def _scan_grid(bound, grid_points: int, ctx: PrecisionContext) -> list:
    """Sorted merged grid on (0, bound]: ``grid_points`` geometric points
    from bound/10^4 and ``grid_points`` linear ones.

    Where the root-free radius r0 (``_root_free_radius``) lies below
    bound/10^4, the geometric grid goes on down, at the same ratio, to
    its first point at or below r0, so no cell below the grid can hold
    a root.  Otherwise the grid is unchanged.

    A geometric point is lo_edge * s^t with s = bound/lo_edge and
    t = i/(grid_points - 1).  For a t with a binary exponent below -1,
    ``mpf_pow`` forms s^t as exp(t log s) from log s at 10 guard bits,
    and s is the same for every point, so that logarithm is taken once
    here; the other t stay on ``mpf_pow``.  Every step is the raw
    operation the mpf operators call, so each point is bitwise the one
    ``lo_edge * (bound / lo_edge) ** ctx.mpf(Fraction(i, grid_points - 1))``
    gives.
    """
    prec = ctx.mp.prec
    lo_edge = bound * ctx.mpf(Fraction(1, 10000))
    first = 0
    r0 = ctx.mpf(_root_free_radius(ctx.q))
    if r0 < lo_edge:
        first = -(math.floor((grid_points - 1) * math.log(lo_edge / r0) / math.log(10000)) + 1)
    lo, top = lo_edge._mpf_, bound._mpf_
    span = mpf_div(top, lo, prec, _RND)
    log_span = mpf_log(span, prec + 10, _RND)
    grid = []
    for i in range(first, grid_points):
        t = from_rational(i, grid_points - 1, prec, _RND)
        if t[2] < -1:
            power = mpf_exp(mpf_mul(t, log_span), prec, _RND)
        else:
            power = mpf_pow(span, t, prec, _RND)
        grid.append(mpf_mul(lo, power, prec, _RND))
    for i in range(1, grid_points + 1):
        grid.append(mpf_mul(top, from_rational(i, grid_points, prec, _RND), prec, _RND))
    # Two ascending runs of positive normalized points, which the sort
    # merges by (exp + bc, mantissa at prec bits): the order of values.
    merged = sorted(dict.fromkeys(grid), key=lambda g: (g[2] + g[3], g[1] << (prec - g[3])))
    return list(map(ctx.mp.make_mpf, merged))


def _rational(x) -> Fraction:
    """The mpf x as an exact Fraction."""
    return Fraction(*to_rational(x._mpf_))


def carrier_roots(
    search_bound,
    ctx: PrecisionContext,
    k_terms: Optional[int] = None,
    grid_points: int = 512,
) -> Tuple[CarrierPoint, ...]:
    """All carrier roots in [-search_bound, search_bound].

    Sign-scans a merged geometric + linear grid on (0, search_bound]
    (``grid_points`` of each).  Grid points at or below 2 r0, compared
    exactly, take the sign +1 that ``_root_free_radius`` proves
    (D >= 1/2 there); a bound at or below 2 r0 holds no root and builds
    no grid.  The double-precision screen (``_screen``) signs the other
    grid points it can; the rest are evaluated at working precision.  A
    cell whose two end signs agree holds no sign change and is skipped.
    Every other cell has D evaluated at working precision at each end
    whose sign is not proven, which must agree with any screened sign
    (else AlgebraViolation); when the signs change, safeguarded Newton
    (D and D' from one streamed pass, midpoint steps when Newton leaves
    the bracket) closes the cell to width at most
    10^-(precision_bits/4), with D changing sign across it; the root is
    its midpoint.  At 64 bits that width is below the evaluation noise,
    so the last halvings follow rounding.  D is even bit for bit, since
    round-to-nearest commutes with negating x in every step of
    ``_recurrence`` and ``_carrier_value``, so roots are emitted as
    symmetric +- pairs, sorted ascending.  No root sits at 0 (carrier
    value 1).  ``k_terms``, None or an int >= 1 (else DomainError),
    caps every carrier sum (:func:`_carrier_value`).
    """
    if k_terms is not None and (type(k_terms) is not int or k_terms < 1):
        raise DomainError(f"k_terms must be None or an int >= 1, got {k_terms!r}")
    mp = ctx.mp
    bound = ctx.mpf(search_bound)
    if bound <= 0:
        raise DomainError("search_bound must be > 0")
    if grid_points < 16:
        raise DomainError(f"grid_points must be >= 16, got {grid_points}")
    root_free = 2 * _root_free_radius(ctx.q)
    if _rational(bound) <= root_free:
        return ()

    grid = _scan_grid(bound, grid_points, ctx)
    # The grid ends at or above bound, so some point lies above 2 r0.
    proven = next(i for i, g in enumerate(grid) if _rational(g) > root_free)

    tol_root = mp.mpf(10) ** (-(ctx.precision_bits // 4))
    signs = [1] * proven
    signs += [_screened_sign(*pair) for pair in _screen(grid[proven:], ctx, k_terms)]
    certified = set(range(proven))

    def certify(i):
        """Sign grid[i] by D at working precision, checked against a screened sign."""
        if i not in certified:
            certified.add(i)
            v = _carrier_value(grid[i], ctx, k_terms)[0]
            sign = (v > 0) - (v < 0)
            if signs[i] and sign != signs[i]:
                raise AlgebraViolation(
                    "carrier sign screen contradicts the working-precision "
                    f"value at x={ctx.nstr(grid[i], 8)}"
                )
            signs[i] = sign

    for i, sign in enumerate(signs):
        if not sign:
            certify(i)
    points = []
    for i in range(len(grid) - 1):
        if signs[i] == signs[i + 1]:
            continue
        certify(i)
        certify(i + 1)
        if not signs[i] or signs[i] == signs[i + 1]:
            continue
        lo, hi = _shrink_bracket(grid[i], grid[i + 1], signs[i], tol_root, ctx, k_terms)
        root = (lo + hi) / 2
        residual, used, tail, _ = _carrier_value(root, ctx, k_terms)
        points.append(
            CarrierPoint(
                x=root,
                carrier_residual=abs(residual),
                bracket_width=hi - lo,
                terms_used=used,
                tail_estimate=tail,
            )
        )
    negatives = [replace(p, x=-p.x) for p in points]
    return tuple(sorted(negatives + points, key=lambda p: p.x))


def _kernel_mass(x, ctx: PrecisionContext):
    """1 / sum_n Psi_n(x)^2 with monitored decay of the squared terms."""
    prec = ctx.mp.prec
    cap = ctx.max_terms
    total, decay = _ZERO, Decay(ctx)
    for n, p in enumerate(islice(_psi_stream(_as_pair(ctx.mpf(x)), ctx), cap), 1):
        term = _product(p, p, prec)
        total = _sum(total, term, prec)
        if decay.settled(term, total):
            return _mpf(_quotient(_ONE, total, prec), ctx), n
    raise NoConvergenceError(
        f"kernel series failed to decay within {cap} terms at "
        f"x={ctx.nstr(ctx.mpf(x), 8)}"
    )


def _loading_at(x, ctx: PrecisionContext):
    """(sigma0, terms_used, last_term) via the Num / Den' series ratio."""
    xv = ctx.mpf(x)
    prec = ctx.mp.prec
    cap = ctx.max_terms
    x = _as_pair(xv)
    terms = zip(
        _coefficient_stream(ctx),
        _odd(_psi_stream(x, ctx, slope=True)),
        _odd(_recurrence(x, ctx, (_ZERO, _ONE))),
    )
    num = den = den_scale = _ZERO
    decay = Decay(ctx)
    for j, (s0, (_, _, rise), s) in enumerate(islice(terms, cap), 1):
        num_term = _product(_product(s0, x, prec), s, prec)
        den_term = _product(s0, rise, prec)
        num = _sum(num, num_term, prec)
        den = _sum(den, den_term, prec)
        den_scale = _sum(den_scale, _magnitude(den_term), prec)
        last = _larger(_magnitude(num_term), _magnitude(den_term))
        if decay.settled(last, _larger(_magnitude(num), _magnitude(den))):
            break
    else:
        raise NoConvergenceError(
            f"loading series failed to decay within {cap} terms at "
            f"x={ctx.nstr(xv, 8)}"
        )
    num, den, den_scale = _mpf(num, ctx), _mpf(den, ctx), _mpf(den_scale, ctx)
    if abs(den) <= ctx.eps * den_scale * 64:
        raise DegenerateRootError(
            f"loading denominator vanishes at x={ctx.nstr(xv, 8)}"
        )
    return num / den, j, _mpf(last, ctx)


def loadings(
    roots: Sequence[CarrierPoint], ctx: PrecisionContext
) -> Tuple[CarrierPoint, ...]:
    """Attach loadings sigma_0 and kernel masses to carrier roots.

    sigma_0(x_k) is the ratio of the second-kind double series
    x sum_j S_{2j-1}(0) S_{2j-1}(x) to the x-derivative of the negated
    carrier series at x_k, each truncated with monitored decay; the
    reproducing-kernel mass 1 / sum_n Psi_n(x_k)^2 rides along as a
    convention-free cross-check.  Both are even in x bit for bit (see the
    module docstring), so each +- pair is evaluated once, at its first
    root, and the other root takes the same values.
    """
    seen = {}
    out = []
    for point in roots:
        key = ctx.mpf(point.x)._mpf_[1:]  # |x|
        if key not in seen:
            seen[key] = _loading_at(point.x, ctx), _kernel_mass(point.x, ctx)[0]
        (sigma, used, last), kern = seen[key]
        out.append(
            replace(
                point,
                sigma0=sigma,
                kernel_mass=kern,
                terms_used=max(point.terms_used, used),
                tail_estimate=last,
            )
        )
    return tuple(out)


def orthonormality_gram(
    points: Sequence[CarrierPoint], n_max: int, ctx: PrecisionContext
):
    """Gram matrix sum_k sigma_0(x_k) Psi_m(x_k) Psi_n(x_k), m, n <= n_max.

    Measures how well the truncated atomic measure reproduces
    orthonormality; returns (matrix, max |G - identity| deviation).
    Points must already carry loadings.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    mp = ctx.mp
    for p in points:
        if p.sigma0 is None:
            raise DomainError("points must carry loadings; run loadings() first")
    gram = [[mp.mpf(0) for _ in range(n_max + 1)] for _ in range(n_max + 1)]
    for p in points:
        psis = psi_sequence(n_max, p.x, ctx)
        for mdx in range(n_max + 1):
            for ndx in range(n_max + 1):
                gram[mdx][ndx] = gram[mdx][ndx] + p.sigma0 * psis[mdx] * psis[ndx]
    worst = mp.mpf(0)
    for mdx in range(n_max + 1):
        for ndx in range(n_max + 1):
            target = 1 if mdx == ndx else 0
            worst = max(worst, abs(gram[mdx][ndx] - target))
    return gram, worst
