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
ratio and the kernel mass) is summed in one streamed pass over a single
three-term recurrence, which yields Psi_n (with Psi_n' when asked) or
S_n from their seeds, reads the context's b_n table and stops at the
monitored-decay rule.  It runs on raw mpf values with the calls and the
operation order of the mpf operators, so the values are bitwise those
of the reference ``psi_sequence``.  Carrier roots are found by a sign
scan followed by safeguarded Newton inside each sign-change bracket,
certified by a sign change across a final bracket of width at most
10^-(precision_bits/4).  At 64 bits that width, 1e-16, lies below the
evaluation noise of D (about 2^-44, the series tolerance), so the last
halvings there follow rounding rather than the function.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Optional, Sequence, Tuple

from mpmath.libmp import (
    fone,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_le,
    mpf_mul,
    mpf_neg,
    mpf_sub,
    round_nearest,
)

from .context import PrecisionContext
from .errors import (
    AlgebraViolation,
    DegenerateRootError,
    DomainError,
    NoConvergenceError,
)
from .exact import extremal_bracket_exact
from .qhermite import psi_sequence
from .qkernel import b_coeff, b_table

__all__ = [
    "bracket_double_factorial",
    "bracket_factorial",
    "alpha_coeff",
    "beta_coeff",
    "first_kind_eval",
    "second_kind_eval",
    "carrier_function",
    "CarrierPoint",
    "carrier_roots",
    "loadings",
    "orthonormality_gram",
]

_STREAK = 3
_RND = round_nearest


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


@lru_cache(maxsize=None)
def _nested_sum(levels: int, upper: int, start: int, q: Fraction) -> Fraction:
    """sum_{k=start-descending windows} [k1][k2]... with k_{j+1} <= k_j - 2.

    ``levels`` factors remain; the current index runs from its floor
    (start - 2*(levels-1) ... kept implicit via ``start``) up to
    ``upper``; each inner window tops out two below its outer index.
    """
    if levels == 0:
        return Fraction(1)
    total = Fraction(0)
    for k in range(start, upper + 1):
        total += extremal_bracket_exact(k, q) * _nested_sum(
            levels - 1, k - 2, start - 2, q
        )
    return total


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
    return _nested_sum(m, n - 1, 2 * m - 1, ctx.q)


def beta_coeff(m: int, n: int, ctx: PrecisionContext) -> Fraction:
    """Exact second-kind coefficient beta_{2m, n} (even descending windows).

    beta_{0, n} = 1; otherwise sum_{k1=2m}^{n} [k1] sum_{k2=2m-2}^{k1-2}
    [k2] ... sum_{km=2}^{...} [km], empty windows summing to 0.
    """
    if m < 0:
        raise DomainError(f"beta_coeff needs m >= 0, got {m}")
    if m == 0:
        return Fraction(1)
    return _nested_sum(m, n, 2 * m, ctx.q)


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


def _recurrence(x, ctx: PrecisionContext, seeds, slopes=None):
    """Stream p_0, p_1, ... of x p_n = b_n p_{n+1} + b_{n-1} p_{n-1}.

    Raw mpf tuples in and out; each step is
    p_{n+1} = (x p_n - b_{n-1} p_{n-1}) / b_n at working precision with
    round-to-nearest, the calls and the order the mpf operators of
    ``psi_sequence`` make, so every value is bitwise the reference one.
    ``seeds`` are (p_0, p_1): (1, x/b_0) gives Psi_n, (0, 1) gives S_n.
    With ``slopes`` = (p_0', p_1') it yields pairs (p_n, p_n'), the
    derivative following b_n p_{n+1}' = p_n + x p_n' - b_{n-1} p_{n-1}'.
    """
    prec = ctx.precision_bits
    p0, p1 = seeds
    d0, d1 = slopes if slopes is not None else (None, None)
    yield p0 if slopes is None else (p0, d0)
    yield p1 if slopes is None else (p1, d1)
    bs = b_table(32, ctx)
    b_prev = bs[0]._mpf_
    n = 1
    while True:
        if n == len(bs):
            bs = b_table(n + 1, ctx)
        b = bs[n]._mpf_
        rise = mpf_mul(x, p1, prec, _RND)
        fall = mpf_mul(b_prev, p0, prec, _RND)
        p2 = mpf_div(mpf_sub(rise, fall, prec, _RND), b, prec, _RND)
        if slopes is None:
            yield p2
        else:
            rise = mpf_add(p1, mpf_mul(x, d1, prec, _RND), prec, _RND)
            fall = mpf_mul(b_prev, d0, prec, _RND)
            d2 = mpf_div(mpf_sub(rise, fall, prec, _RND), b, prec, _RND)
            yield p2, d2
            d0, d1 = d1, d2
        p0, p1, b_prev = p1, p2, b
        n += 1


def _psi_stream(x, ctx: PrecisionContext, slope: bool = False):
    """Psi_0(x), Psi_1(x), ... (with Psi_n'(x) when ``slope``), raw x in."""
    b0 = b_table(1, ctx)[0]._mpf_
    seeds = (fone, mpf_div(x, b0, ctx.precision_bits, _RND))
    slopes = (fzero, mpf_div(fone, b0, ctx.precision_bits, _RND)) if slope else None
    return _recurrence(x, ctx, seeds, slopes)


def _odd(stream):
    """Entries 1, 3, 5, ... of a stream."""
    return islice(stream, 1, None, 2)


def _raw_max(a, b):
    """max(a, b) of raw mpf values, picking as the builtin max does."""
    return b if mpf_gt(b, a) else a


def _converged(last, scale, tol, prec: int) -> bool:
    """Monitored-decay test last <= tol * max(scale, tol), on raw mpf."""
    return mpf_le(last, mpf_mul(tol, _raw_max(scale, tol), prec, _RND))


def _second_kind_value(n: int, x, ctx: PrecisionContext):
    """S_n(x) by the recurrence x S_n = b_n S_{n+1} + b_{n-1} S_{n-1}."""
    stream = _recurrence(ctx.mpf(x)._mpf_, ctx, (fzero, fone))
    return ctx.mp.make_mpf(next(islice(stream, n, None)))


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


@lru_cache(maxsize=64)
def _carrier_coefficients(count: int, ctx: PrecisionContext):
    """S_{2j-1}(0) = (-1)^(j-1) sqrt([2j-2]!!/[2j-1]!!) for j = 1..count."""
    mp = ctx.mp
    coeffs = []
    ratio = Fraction(1) / extremal_bracket_exact(1, ctx.q)
    for j in range(1, count + 1):
        if j > 1:
            ratio *= extremal_bracket_exact(2 * j - 2, ctx.q) / (
                extremal_bracket_exact(2 * j - 1, ctx.q)
            )
        sign = 1 if j % 2 == 1 else -1
        coeffs.append(sign * mp.sqrt(ctx.mpf(ratio)))
    return tuple(coeffs)


def _coefficient_stream(ctx: PrecisionContext):
    """S_1(0), S_3(0), ... as raw mpf, from cached blocks of doubling size."""
    count, j = 16, 0
    while True:
        block = _carrier_coefficients(count, ctx)
        for c in block[j:]:
            yield c._mpf_
        j, count = count, 2 * count


def _carrier_value(
    x, ctx: PrecisionContext, k_terms: Optional[int], slope: bool = False
):
    """Carrier value with tail metadata: (value, terms_used, last_term, slope).

    One streamed pass over Psi_1, Psi_3, ...; with ``slope`` it also
    sums D'(x) = -sum_k c_k (Psi_{2k+1} + x Psi_{2k+1}') over the same
    terms (else the fourth entry is None).  The value does not depend
    on ``slope``.
    """
    mp = ctx.mp
    xv = ctx.mpf(x)
    cap = k_terms if k_terms is not None else ctx.max_terms
    if cap < 1:
        raise DomainError(f"k_terms must be >= 1, got {cap}")
    prec = ctx.precision_bits
    tol = ctx.mpf(ctx.series_tol)._mpf_
    x = xv._mpf_
    terms = zip(_coefficient_stream(ctx), _odd(_psi_stream(x, ctx, slope)))
    total, derivative, streak = fone, fzero, 0
    for k, (c, p) in enumerate(islice(terms, cap), 1):
        c = mpf_neg(c)
        if slope:
            p, dp = p
            dterm = mpf_add(p, mpf_mul(x, dp, prec, _RND), prec, _RND)
            derivative = mpf_add(derivative, mpf_mul(c, dterm, prec, _RND), prec, _RND)
        term = mpf_mul(mpf_mul(c, x, prec, _RND), p, prec, _RND)
        total = mpf_add(total, term, prec, _RND)
        last = mpf_abs(term)
        if _converged(last, mpf_abs(total), tol, prec):
            streak += 1
            if streak >= _STREAK:
                break
        else:
            streak = 0
    if streak < _STREAK and k_terms is None:
        raise NoConvergenceError(
            f"carrier series terms failed to decay within {cap} terms at "
            f"x={ctx.nstr(xv, 8)}"
        )
    return (
        mp.make_mpf(total),
        k,
        mp.make_mpf(last),
        mp.make_mpf(derivative) if slope else None,
    )


def carrier_function(x, k_terms: Optional[int], ctx: PrecisionContext):
    """Even transcendental function whose roots carry the extremal measure.

    Psi_0(x) + x sum_{k>=1} (-1)^k sqrt([2k-2]!!/[2k-1]!!) Psi_{2k-1}(x),
    truncated adaptively once terms decay below series_tol (the square
    summability of (Psi_n(x))_n guarantees decay); pass k_terms to force
    a fixed truncation depth instead.
    """
    return _carrier_value(x, ctx, k_terms)[0]


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
    of ``flo`` and D(hi) the other one.  The next point is the Newton
    point when it lies strictly inside the bracket, else the midpoint.
    Once the Newton step is below tol_root/2, D is probed a quarter of
    tol_root either side of the Newton point; a sign change across the
    probes is the final bracket, centred on the root and narrow enough
    that rounding its ends cannot push it past tol_root.  When rounding
    hides that sign change, the probes inside the bracket shrink it and
    the loop goes on halving.  Returns the final (lo, hi).
    """
    quarter = tol_root / 4
    x = (lo + hi) / 2
    while hi - lo > tol_root:
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


def carrier_roots(
    search_bound,
    ctx: PrecisionContext,
    k_terms: Optional[int] = None,
    grid_points: int = 512,
) -> Tuple[CarrierPoint, ...]:
    """All carrier roots in [-search_bound, search_bound].

    Sign-scans a merged geometric + linear grid on (0, search_bound]
    and closes each sign-change bracket with safeguarded Newton (D and
    D' from one streamed pass, midpoint steps when Newton leaves the
    bracket) to width at most 10^-(precision_bits/4), with D changing
    sign across it; the root is its midpoint.  At 64 bits that width
    is below the evaluation noise, so the last halvings follow rounding.
    The function is even (checked on samples), so roots are emitted as
    symmetric +- pairs, sorted ascending.  No root sits at 0 (carrier
    value 1).
    """
    mp = ctx.mp
    bound = ctx.mpf(search_bound)
    if bound <= 0:
        raise DomainError("search_bound must be > 0")
    if grid_points < 16:
        raise DomainError(f"grid_points must be >= 16, got {grid_points}")

    lo_edge = bound * ctx.mpf(Fraction(1, 10000))
    grid = [lo_edge * (bound / lo_edge) ** (ctx.mpf(Fraction(i, grid_points - 1)))
            for i in range(grid_points)]
    grid += [bound * ctx.mpf(Fraction(i, grid_points)) for i in range(1, grid_points + 1)]
    grid = sorted(set(grid))

    for probe in (bound / 3, bound / 7):
        even_gap = abs(
            carrier_function(probe, k_terms, ctx)
            - carrier_function(-probe, k_terms, ctx)
        )
        if even_gap > ctx.mpf(ctx.series_tol) * 100:
            raise AlgebraViolation(
                "carrier function failed the evenness check at "
                f"x={ctx.nstr(probe, 8)}"
            )

    tol_root = mp.mpf(10) ** (-(ctx.precision_bits // 4))
    values = [_carrier_value(g, ctx, k_terms)[0] for g in grid]
    points = []
    for a, b, fa, fb in zip(grid, grid[1:], values, values[1:]):
        if fa == 0 or fa * fb > 0:
            continue
        lo, hi = _shrink_bracket(a, b, fa, tol_root, ctx, k_terms)
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
    prec = ctx.precision_bits
    tol = ctx.mpf(ctx.series_tol)._mpf_
    cap = ctx.max_terms
    total, streak = fzero, 0
    for n, p in enumerate(islice(_psi_stream(ctx.mpf(x)._mpf_, ctx), cap), 1):
        term = mpf_mul(p, p, prec, _RND)
        total = mpf_add(total, term, prec, _RND)
        if _converged(term, total, tol, prec):
            streak += 1
            if streak >= _STREAK:
                return ctx.mp.make_mpf(mpf_div(fone, total, prec, _RND)), n
        else:
            streak = 0
    raise NoConvergenceError(
        f"kernel series failed to decay within {cap} terms at "
        f"x={ctx.nstr(ctx.mpf(x), 8)}"
    )


def _loading_at(x, ctx: PrecisionContext):
    """(sigma0, terms_used, last_term) via the Num / Den' series ratio."""
    mp = ctx.mp
    xv = ctx.mpf(x)
    prec = ctx.precision_bits
    tol = ctx.mpf(ctx.series_tol)._mpf_
    cap = ctx.max_terms
    x = xv._mpf_
    terms = zip(
        _coefficient_stream(ctx),
        _odd(_psi_stream(x, ctx, slope=True)),
        _odd(_recurrence(x, ctx, (fzero, fone))),
    )
    num = den = den_scale = fzero
    streak = 0
    for j, (s0, (p, dp), s) in enumerate(islice(terms, cap), 1):
        num_term = mpf_mul(mpf_mul(s0, x, prec, _RND), s, prec, _RND)
        den_term = mpf_add(p, mpf_mul(x, dp, prec, _RND), prec, _RND)
        den_term = mpf_mul(s0, den_term, prec, _RND)
        num = mpf_add(num, num_term, prec, _RND)
        den = mpf_add(den, den_term, prec, _RND)
        den_scale = mpf_add(den_scale, mpf_abs(den_term), prec, _RND)
        last = _raw_max(mpf_abs(num_term), mpf_abs(den_term))
        if _converged(last, _raw_max(mpf_abs(num), mpf_abs(den)), tol, prec):
            streak += 1
            if streak >= _STREAK:
                break
        else:
            streak = 0
    else:
        raise NoConvergenceError(
            f"loading series failed to decay within {cap} terms at "
            f"x={ctx.nstr(xv, 8)}"
        )
    num, den, den_scale = mp.make_mpf(num), mp.make_mpf(den), mp.make_mpf(den_scale)
    if abs(den) <= ctx.eps * den_scale * 64:
        raise DegenerateRootError(
            f"loading denominator vanishes at x={ctx.nstr(xv, 8)}"
        )
    return num / den, j, mp.make_mpf(last)


def loadings(
    roots: Sequence[CarrierPoint], ctx: PrecisionContext
) -> Tuple[CarrierPoint, ...]:
    """Attach loadings sigma_0 and kernel masses to carrier roots.

    sigma_0(x_k) is the ratio of the second-kind double series
    x sum_j S_{2j-1}(0) S_{2j-1}(x) to the x-derivative of the negated
    carrier series at x_k, each truncated with monitored decay; the
    reproducing-kernel mass 1 / sum_n Psi_n(x_k)^2 rides along as a
    convention-free cross-check.  Each root is evaluated independently
    (no parity shortcut), so sigma_0(x) = sigma_0(-x) is measurable.
    """
    out = []
    for point in roots:
        sigma, used, last = _loading_at(point.x, ctx)
        kern, _ = _kernel_mass(point.x, ctx)
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
