"""Discrete q-Hermite polynomials of type II and their normalized family.

Provides exact monic coefficient sequences (three-term recurrence),
direct terminating-hypergeometric evaluation, the orthonormal family
Psi_n, a generating-function diagnostic that tests a menu of weight
hypotheses order by order in exact arithmetic, and an exact
q-difference-equation residual checker.

The recurrence is the source of truth:

    x htilde_n = htilde_{n+1} + q^{-(2n-1)} (1 - q^n) htilde_{n-1},
    htilde_0 = 1,

so htilde_n is monic with parity (-1)^n and exact rational coefficients
for rational q.  Everything identity-grade here is done over Q(i); the
working-precision context only enters when a value is finally rendered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .context import PrecisionContext, as_fraction
from .errors import DomainError
from .exact import (
    GaussianRational,
    Poly,
    bn_squared_exact,
    qfactorial_exact,
)
from .qkernel import HypergeometricSpec, phi_rs, b_coeff, b_table

__all__ = [
    "hermite2_coeffs",
    "hermite2_eval_direct",
    "psi_eval",
    "psi_sequence",
    "GenFnReport",
    "generating_fn_report",
    "WEIGHT_HYPOTHESES",
    "qdiff_equation_check",
]

# Exact coefficient cache, keyed by q; each entry is the list
# [htilde_0, htilde_1, ...] grown on demand.
_COEFF_CACHE: Dict[Fraction, List[Poly]] = {}


def hermite2_coeffs(n: int, ctx: PrecisionContext) -> Poly:
    """Exact monic coefficient sequence of htilde_n for ctx.q.

    Built by the three-term recurrence with exact rational arithmetic;
    the result is monic and has the parity of n (odd/even powers only).
    Coefficients never overflow: they are Fractions.
    """
    if n < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {n}")
    cache = _COEFF_CACHE.setdefault(ctx.q, [Poly.one(), Poly.x()])
    while len(cache) <= n:
        m = len(cache) - 1  # extend from htilde_m to htilde_{m+1}
        c = bn_squared_exact(m - 1, ctx.q)  # q^{-(2m-1)}(1 - q^m)
        nxt = Poly.x() * cache[m] - cache[m - 1].scale(c)
        cache.append(nxt)
    return cache[n]


def hermite2_eval_direct(n: int, x, ctx: PrecisionContext):
    """Evaluate htilde_n(x) through its terminating hypergeometric form.

    htilde_n(x) = i^{-n} q^{-binom(n,2)} 2phi0(q^{-n}, ix; -; q, -q^n).

    Returns an mpc rounded to working precision; for real x its
    imaginary part is at rounding level.  This is the independent
    cross-check of the recurrence coefficients.

    Near zeros of the polynomial the hypergeometric sum cancels to a
    value exponentially smaller than the q^{-binom(n,2)} prefactor, so
    the sum is accumulated with guard bits covering the prefactor
    magnitude (plus growth from |x|); otherwise the amplified rounding
    of the cancellation would dominate small polynomial values.
    """
    if n < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {n}")
    mp = ctx.mp
    guard = (
        int(math.ceil((n * (n - 1) / 2) * math.log2(1 / float(ctx.q))))
        + int(math.ceil(n * math.log2(2 + abs(complex(x)))))
        + 64
    )
    # ctx.qm is used throughout (also inside phi_rs term ratios): the
    # sum cancels identically in whatever q-value is used, provided it
    # is the same value everywhere, so the base-precision rounding of q
    # never gets amplified by the cancellation.
    with mp.workprec(ctx.precision_bits + guard):
        q = ctx.qm
        xv = ctx.mpc(x)
        spec = HypergeometricSpec(
            upper=(q ** (-n), mp.mpc(0, 1) * xv),
            lower=(),
            z=-(q**n),
            terminating_at=n,
        )
        value = phi_rs(spec, ctx)
        prefactor = mp.mpc(0, 1) ** (-n) * q ** (-(n * (n - 1)) // 2)
        out = prefactor * mp.mpc(value)
    return mp.mpc(out)


def psi_sequence(nmax: int, x, ctx: PrecisionContext) -> list:
    """Values [Psi_0(x), ..., Psi_nmax(x)] by the normalized recurrence.

    Psi_0 = 1 and x Psi_n = b_n Psi_{n+1} + b_{n-1} Psi_{n-1}, so
    Psi_{n+1} = (x Psi_n - b_{n-1} Psi_{n-1}) / b_n.  One forward pass;
    O(nmax) work, no coefficient blow-up.
    """
    if nmax < 0:
        raise DomainError(f"sequence length must be >= 0, got {nmax}")
    mp = ctx.mp
    xv = ctx.mpc(x) if isinstance(x, (complex, mp.mpc)) else ctx.mpf(x)
    values = [1 + xv * 0]
    if nmax == 0:
        return values
    bs = b_table(nmax, ctx)
    values.append(xv * values[0] / bs[0])
    for n in range(1, nmax):
        values.append((xv * values[n] - bs[n - 1] * values[n - 1]) / bs[n])
    return values


def psi_eval(n: int, x, ctx: PrecisionContext):
    """Orthonormal polynomial Psi_n(x) = q^{n^2/2} htilde_n(x) / sqrt((q;q)_n)."""
    return psi_sequence(n, x, ctx)[n]


# --------------------------------------------------------------------------
# Generating-function diagnostic
# --------------------------------------------------------------------------

# Candidate weights w_n multiplying htilde_n(x) tau^n on the polynomial
# side.  The menu is ordered from the naive reading to progressively
# q-corrected ones; the report states which (if any) matches the closed
# form order by order.
WEIGHT_HYPOTHESES: Tuple[str, ...] = (
    "as-printed",
    "divided-by-qpochhammer",
    "divided-with-qpower",
    "divided-with-qpower-squared",
)


def _hypothesis_weight(tag: str, n: int, q: Fraction) -> Fraction:
    poch = qfactorial_exact(n, q)
    if tag == "as-printed":
        return Fraction(1)
    if tag == "divided-by-qpochhammer":
        return 1 / poch
    if tag == "divided-with-qpower":
        return q ** (n * (n - 1) // 2) / poch
    if tag == "divided-with-qpower-squared":
        return q ** (n * (n - 1)) / poch
    raise DomainError(f"unknown weight hypothesis {tag!r}")


def _ps_mul(a: List[GaussianRational], b: List[GaussianRational], L: int):
    out = [GaussianRational.ZERO] * L
    for i, ai in enumerate(a):
        if ai.is_zero() or i >= L:
            continue
        for j, bj in enumerate(b):
            if i + j >= L:
                break
            out[i + j] = out[i + j] + ai * bj
    return out


def _closed_form_tau_coeffs(x: Fraction, q: Fraction, order: int):
    """Exact tau-Taylor coefficients of (i tau; q)_inf 1phi1(ix; i tau; q, -i tau).

    Both factors are expanded over Q(i): the infinite product by Euler's
    q-exponential sum, each 1phi1 term by geometric expansion of its
    1/(i tau; q)_k denominators.  Truncation at tau^order is exact
    (higher terms cannot feed back down).
    """
    L = order + 1
    I = GaussianRational.I
    one = GaussianRational.ONE

    # (i tau; q)_inf = sum_m (-i)^m q^{m(m-1)/2} tau^m / (q;q)_m
    euler = [
        ((-I) ** m) * (q ** (m * (m - 1) // 2) / qfactorial_exact(m, q))
        for m in range(L)
    ]

    # 1phi1(ix; i tau; q, -i tau): term_k = q^{binom(k,2)} (ix;q)_k /(q;q)_k
    #   * (i tau)^k * prod_{j<k} 1/(1 - i tau q^j)
    total = [GaussianRational.ZERO] * L
    running = [GaussianRational.ZERO] * L  # prod_{j<k} geometric factors
    running[0] = one
    ix = I * x
    poch_ix = one  # (ix; q)_k
    ik = one  # i^k
    for k in range(L):
        ck = poch_ix * (q ** (k * (k - 1) // 2) / qfactorial_exact(k, q))
        scaled = [ck * ik * c for c in running]
        for m in range(L - k):
            total[m + k] = total[m + k] + scaled[m]
        if k + 1 < L:
            base = I * (q**k)
            geo = [one]
            for _ in range(L - 1):
                geo.append(geo[-1] * base)
            running = _ps_mul(running, geo, L)
            poch_ix = poch_ix * (one - ix * (q**k))
            ik = ik * I
    return _ps_mul(euler, total, L)


@dataclass(frozen=True)
class GenFnReport:
    """Order-by-order comparison of weight hypotheses for the tau series.

    Attributes
    ----------
    x, q : Fraction
        Exact evaluation point and deformation parameter.
    order : int
        Highest tau power compared.
    closed_coeffs : tuple of GaussianRational
        Exact tau-Taylor coefficients of the closed form.
    residuals : dict tag -> tuple of GaussianRational
        Exact per-order residual (hypothesis coefficient minus closed
        form coefficient).
    ratios : dict tag -> tuple of (Fraction | None)
        Exact ratio hypothesis/closed per order when both sides are
        nonzero real multiples (None otherwise); ratio 1 means match.
    matched_hypothesis : str or None
        Tag whose residuals vanish identically at every order, if any.
    """

    x: Fraction
    q: Fraction
    order: int
    closed_coeffs: Tuple[GaussianRational, ...]
    residuals: Dict[str, Tuple[GaussianRational, ...]]
    ratios: Dict[str, Tuple[Optional[Fraction], ...]]
    matched_hypothesis: Optional[str]

    def max_abs_residual(self, tag: str, ctx: PrecisionContext):
        """Largest |residual| over all orders for one hypothesis."""
        mp = ctx.mp
        worst = mp.mpf(0)
        for r in self.residuals[tag]:
            val = abs(mp.mpc(ctx.mpf(r.re), ctx.mpf(r.im)))
            worst = max(worst, val)
        return worst


def generating_fn_report(x, tau_bound, order: int, ctx: PrecisionContext) -> GenFnReport:
    """Compare sum_n w_n htilde_n(x) tau^n against the closed form.

    The comparison is per tau-order and exact (rational x, rational q),
    so no tolerance enters the verdict; ``tau_bound`` only documents the
    disc |tau| < tau_bound <= 1 on which the closed form converges and
    the order-by-order comparison is meaningful.
    """
    if order < 0 or order > 20:
        raise DomainError(f"order must be in 0..20, got {order}")
    if not (0 < abs(tau_bound) < 1):
        raise DomainError("tau bound must satisfy 0 < |tau| < 1")
    xf = as_fraction(x)
    q = ctx.q
    closed = _closed_form_tau_coeffs(xf, q, order)

    residuals: Dict[str, Tuple[GaussianRational, ...]] = {}
    ratios: Dict[str, Tuple[Optional[Fraction], ...]] = {}
    matched = None
    for tag in WEIGHT_HYPOTHESES:
        res: List[GaussianRational] = []
        rat: List[Optional[Fraction]] = []
        for n in range(order + 1):
            hn = hermite2_coeffs(n, ctx)(xf)
            side = hn * _hypothesis_weight(tag, n, q)
            diff = side - closed[n]
            res.append(diff)
            c = closed[n]
            if (
                not c.is_zero()
                and c.im == 0
                and side.im == 0
                and c.re != 0
            ):
                rat.append(side.re / c.re)
            else:
                rat.append(None)
        residuals[tag] = tuple(res)
        ratios[tag] = tuple(rat)
        if matched is None and all(r.is_zero() for r in res):
            matched = tag
    return GenFnReport(
        x=xf,
        q=q,
        order=order,
        closed_coeffs=tuple(closed),
        residuals=residuals,
        ratios=ratios,
        matched_hypothesis=matched,
    )


# --------------------------------------------------------------------------
# q-difference equation residual
# --------------------------------------------------------------------------


def qdiff_equation_check(n: int, ctx: PrecisionContext) -> Poly:
    """Exact residual of the imaginary-shift difference equation.

    Forms RHS - LHS of

        -(1 - q^n) x^2 htilde_n(x)
            = q htilde_n(x - i) - (1 + q + x^2) htilde_n(x)
              + (1 + x^2) htilde_n(x + i)

    by exact Q(i) polynomial arithmetic (shifts x -> x +/- i are exact
    compositions).  The zero polynomial certifies the identity for this
    n; a nonzero residual is returned as-is, never rounded away.  In
    particular the n=0 residual is exactly zero while n=1 yields
    i(1 - q + x^2) + (1 - q) x^3.
    """
    if n < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {n}")
    q = ctx.q
    h = hermite2_coeffs(n, ctx)
    x2 = Poly.monomial(2)
    one_plus_x2 = Poly.one() + x2
    I = GaussianRational.I
    lhs = (x2 * h).scale(-(1 - q**n))
    rhs = (
        h.shift(-I).scale(q)
        - (Poly((GaussianRational.coerce(1 + q),)) + x2) * h
        + one_plus_x2 * h.shift(I)
    )
    return rhs - lhs
