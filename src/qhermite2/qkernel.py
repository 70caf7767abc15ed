"""q-arithmetic primitives and basic hypergeometric series.

This is the numeric substrate of the package: q-numbers, q-Pochhammer
symbols (finite and infinite), the three-term recurrence coefficients
b_n, the generalized ladder factorial, a generic terminating/convergent
rphi_s evaluator, the generalized q-exponential, and the continuous
orthogonality weight W.

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

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

from .context import PrecisionContext, default_context
from .errors import (
    DomainError,
    FormalSeriesError,
    NoConvergenceError,
)
from .exact import bn_squared_exact

__all__ = [
    "HypergeometricSpec",
    "q_number",
    "q_pochhammer",
    "q_pochhammer_inf",
    "b_coeff",
    "rho_factorial",
    "phi_rs",
    "gen_exponential",
    "weight_W",
]

# Number of consecutive sub-tolerance terms required before a series is
# considered converged.  q-series can plateau (q^{n^2} beats x^n only
# eventually), so a single small term is not evidence of convergence.
_STREAK = 3


@dataclass(frozen=True)
class HypergeometricSpec:
    """Parameters of a basic hypergeometric series rphi_s.

    Attributes
    ----------
    upper : tuple of complex
        Numerator parameters a_1..a_r.
    lower : tuple of complex
        Denominator parameters b_1..b_s.
    z : complex
        Series argument.
    terminating_at : int or None
        When some upper parameter equals q**-n (n >= 0), the series
        terminates after the z**n term; set this to n to request the
        exact finite sum.
    """

    upper: Tuple[complex, ...]
    lower: Tuple[complex, ...]
    z: complex
    terminating_at: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", tuple(self.upper))
        object.__setattr__(self, "lower", tuple(self.lower))
        if self.terminating_at is not None and self.terminating_at < 0:
            raise DomainError("terminating_at must be a nonnegative integer")


def q_number(n: int, ctx: PrecisionContext):
    """q-number [n]_q = (1 - q^n)/(1 - q).

    Examples: [0] = 0, [1] = 1, [2] = 1 + q.
    """
    if n < 0:
        raise DomainError(f"q_number needs n >= 0, got {n}")
    q = ctx.qm
    return (1 - q**n) / (1 - q)


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


def q_pochhammer_inf(a, ctx: PrecisionContext):
    """Infinite shifted q-factorial (a; q)_inf = prod_{s>=0} (1 - a q^s).

    The product is truncated at the first s with |a| q^s < series_tol;
    the neglected factors multiply to exp(O(|a| q^s / (1-q))), so the
    relative truncation error is below series_tol/(1-q), far inside the
    working precision for the default tolerance.
    """
    mp = ctx.mp
    a = ctx.mpc(a) if isinstance(a, (complex, mp.mpc)) else ctx.mpf(a)
    q = ctx.qm
    tol = ctx.mpf(ctx.series_tol)
    out = mp.mpf(1)
    aqs = a
    for _ in range(ctx.max_terms):
        if abs(aqs) < tol:
            return out
        out = out * (1 - aqs)
        aqs = aqs * q
    raise NoConvergenceError(
        f"q_pochhammer_inf: tail still {abs(aqs)} after {ctx.max_terms} factors"
    )


@lru_cache(maxsize=8192)
def b_coeff(n: int, ctx: PrecisionContext):
    """Recurrence coefficient b_n = q^{-(2n+1)/2} sqrt(1 - q^{n+1}).

    b_{-1} = 0 by convention.  For fixed q the sequence is strictly
    increasing in n (the q^{-(2n+1)/2} factor dominates).

    The square b_n^2 is formed over exact rationals and rounded once
    before the square root, so the result is accurate to about one ulp
    uniformly in n.  Computing q^{-(2n+1)} in floating point instead
    would amplify the representation error of q by the exponent (powers
    of an inexact base lose about k/2 ulp at exponent k), which is
    invisible at binary-exact q = 1/2 but dominates everywhere else.
    """
    if n < -1:
        raise DomainError(f"b_coeff needs n >= -1, got {n}")
    mp = ctx.mp
    if n == -1:
        return mp.mpf(0)
    return mp.sqrt(ctx.mpf(bn_squared_exact(n, ctx.q)))


def b_table(count: int, ctx: PrecisionContext) -> tuple:
    """(b_0, b_1, ...) for this context, at least ``count`` entries long.

    Built only through :func:`b_coeff`, so every b_n is the same
    once-rounded value, and grown by doubling.  Recurrences index this
    tuple instead of calling the cached ``b_coeff``, which hashes the
    context on every call.
    """
    table = ctx.tables.get("b", ())
    if len(table) < count:
        stop = max(count, 2 * len(table))
        table += tuple(b_coeff(n, ctx) for n in range(len(table), stop))
        ctx.tables["b"] = table
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
    return (q / (1 - q)) ** n * q ** (-(n * n)) * poch


def _term_ratio(spec: HypergeometricSpec, k: int, ctx: PrecisionContext):
    """T_{k+1}/T_k for the basic hypergeometric series."""
    mp = ctx.mp
    q = ctx.qm
    e = 1 + len(spec.lower) - len(spec.upper)
    qk = q**k
    num = mp.mpf(1) if not any(
        isinstance(a, (complex, mp.mpc)) for a in spec.upper
    ) else mp.mpc(1)
    for a in spec.upper:
        av = ctx.mpc(a) if isinstance(a, (complex, mp.mpc)) else ctx.mpf(a)
        num = num * (1 - av * qk)
    den = mp.mpf(1)
    for b in spec.lower:
        bv = ctx.mpc(b) if isinstance(b, (complex, mp.mpc)) else ctx.mpf(b)
        factor = 1 - bv * qk
        if factor == 0:
            raise DomainError(
                "phi_rs: lower parameter hits q^{-m}; series must terminate "
                "before the zero denominator (set terminating_at)"
            )
        den = den * factor
    den = den * (1 - q ** (k + 1))
    z = ctx.mpc(spec.z) if isinstance(spec.z, (complex, mp.mpc)) else ctx.mpf(spec.z)
    ratio = num / den * z * q ** (e * k)
    if e % 2 == 1:
        ratio = -ratio
    return ratio


def phi_rs(spec: HypergeometricSpec, ctx: PrecisionContext):
    """Basic hypergeometric series rphi_s(a_1..a_r; b_1..b_s; q, z).

    term_k = (-1)^{k e} q^{e binom(k,2)} (a_1;q)_k ... (a_r;q)_k
             / [(b_1;q)_k ... (b_s;q)_k] * z^k / (q;q)_k,   e = 1+s-r.

    Terminating series (``terminating_at=n``) are summed exactly through
    the z^n term.  Convergent series (e > 0 always; e = 0 for |z| < 1)
    stop once three consecutive terms fall below series_tol times the
    partial sum and the term ratio certifies a geometric tail.  A
    divergent non-terminating request raises FormalSeriesError.
    """
    mp = ctx.mp
    e = 1 + len(spec.lower) - len(spec.upper)
    zabs = abs(ctx.mpc(spec.z))
    if spec.terminating_at is None:
        if e < 0:
            raise FormalSeriesError(
                "phi_rs: series with 1+s-r < 0 has zero radius of "
                "convergence; pass terminating_at or use the lattice "
                "measure treatment"
            )
        if e == 0 and zabs >= 1:
            raise FormalSeriesError(
                "phi_rs: 1+s-r = 0 series diverges for |z| >= 1"
            )

    total = mp.mpc(0) if _is_complexy(spec, ctx) else mp.mpf(0)
    term = mp.mpf(1) + total * 0  # one, in the right (real/complex) type
    tol = ctx.mpf(ctx.series_tol)
    streak = 0
    for k in range(ctx.max_terms):
        total = total + term
        if spec.terminating_at is not None and k == spec.terminating_at:
            return total
        ratio = _term_ratio(spec, k, ctx)
        term = term * ratio
        if spec.terminating_at is None:
            if abs(term) <= tol * abs(total):
                streak += 1
                if streak >= _STREAK and abs(ratio) < 0.5:
                    return total
            else:
                streak = 0
    raise NoConvergenceError(
        f"phi_rs: no convergence within max_terms={ctx.max_terms}"
    )


def _is_complexy(spec: HypergeometricSpec, ctx: PrecisionContext) -> bool:
    mp = ctx.mp
    vals = list(spec.upper) + list(spec.lower) + [spec.z]
    return any(isinstance(v, (complex, mp.mpc)) for v in vals)


def gen_exponential(x, ctx: PrecisionContext):
    """Generalized q-exponential gex(x) = sum_n q^{n^2} x^n / (q; q)_n.

    Entire in x (the q^{n^2} decay dominates any power), so the argument
    may be real or complex.  Term update:
    T_0 = 1, T_{n+1} = T_n * q^{2n+1} x / (1 - q^{n+1}).
    Equivalently gex(x) = 0phi1(; 0; q, qx).
    """
    mp = ctx.mp
    xv = ctx.mpc(x) if isinstance(x, (complex, mp.mpc)) else ctx.mpf(x)
    q = ctx.qm
    tol = ctx.mpf(ctx.series_tol)
    total = xv * 0
    term = 1 + xv * 0
    streak = 0
    for n in range(ctx.max_terms):
        total = total + term
        ratio = q ** (2 * n + 1) * xv / (1 - q ** (n + 1))
        term = term * ratio
        if abs(term) <= tol * abs(total):
            streak += 1
            if streak >= _STREAK and abs(ratio) < 0.5:
                return total
        else:
            streak = 0
    raise NoConvergenceError(
        f"gen_exponential: no convergence within max_terms={ctx.max_terms}"
    )


def weight_W(x, ctx: PrecisionContext):
    """Continuous orthogonality weight W(x) = 1 / prod_{s>=0} (1 + x^2 q^{2s}).

    Computed through the real product (each factor exceeds 1, so W lies
    in (0, 1] for real x and W(x) = W(-x)).  The complex-product
    identity W(x) * (ix; q)_inf * (-ix; q)_inf = 1 is exercised in the
    test suite as a cross-check of this shortcut.
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
