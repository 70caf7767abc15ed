"""The deformed calculus of the lattice {q^j}: exact q-derivatives,
Jackson-type integrals, the hat integral, and the identities the
``qcalculus`` suite proves.

The identities are proved over the rationals: on polynomials, on
rational functions (the infinite integration by parts), and term by
term on the coefficients of the generalized exponential.  The one
numeric part is the hat-lattice sum :func:`_hat_sum` of
:func:`hat_q_integral` and the lattice moments of
:mod:`qhermite2.qmeasure`: correctly rounded pair operations
(:mod:`qhermite2._pairs`) with a monitored growing branch.

Integral conventions on the base-1 doubly infinite lattice
{q^j : j in Z}:

* plain Jackson: integral_0^x f = x(1-q) sum_{n>=0} q^n f(q^n x),
  evaluated exactly on polynomials by :func:`jackson_integral_poly`.
* hat integral (the lattice dual of the deformed derivative):
  integral-hat_0^inf f = q^{-1} sum_j q^j f(q^j), enumerated with the
  two-branch index split j = -(k-1) and j = k+2, k >= 0.  The q^{-1}
  prefactor is forced by the fundamental theorem (see the discrepancy
  registry entry ``hat_integral_prefactor``).
* finite hat integral: integral-hat_0^a f = q^{-1} a sum_{j>=0} q^j f(a q^j),
  which for a polynomial is q^{-1} sum_k c_k a^{k+1} / (1 - q^{k+1}),
  formed exactly by the ip1/ip2 residuals of :func:`ibp_residual_poly`.

The deformed derivative is
(dhat f)(x) = (f(q^{-2}x) - f(q^{-1}x)) / (q^{-1}x), which sends x^n to
b_{n-1}^2 x^{n-1} (:func:`deformed_derivative_poly`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Callable, List, Union

from ._pairs import (
    _ZERO,
    _as_pair,
    _larger,
    _less,
    _mp,
    _mpf,
    _operand,
    _over,
    _plus,
    _product,
    _raw_pair,
    _size,
    _times,
)
from .context import PrecisionContext, as_fraction
from .errors import DomainError, NoConvergenceError
from .exact import (
    GaussianRational,
    Poly,
    Ratio,
    _over_x,
    jackson_monomial_exact,
)
from .qkernel import q_power_raw

__all__ = [
    "hat_q_integral",
    "q_derivative_poly",
    "deformed_derivative_poly",
    "gex_eigen_residuals",
    "jackson_integral_poly",
    "leibniz_residual",
    "ibp_residual_poly",
    "ibp_ratio_residual",
]


# Default depth K of the hat lattice (exponents 1 - K .. K + 2) for
# every hat sum, lattice moment and measure that is not given one.
HAT_DEPTH = 60


def _hat_sum(term: Callable[[int], tuple], K: int, ctx: PrecisionContext, what: str):
    """sum_j term(j) over the hat lattice at depth K: for k = 0..K the
    growing-abscissa term j = 1 - k, then the shrinking one j = k + 2.
    The caller forms each whole term, such as q^j g(q^j), as a pair
    value, and names itself in ``what``, which opens the error message.
    :func:`hat_q_integral`, ``qmeasure.moment_In`` and
    ``DiscreteMeasure.moment`` sum their lattices here.

    Returns (total, max |growing term|, max |shrinking term|) as pair
    values.  Raises NoConvergenceError if the last growing term is not
    negligible and not below both terms before it: weights obeying
    g_m ~ g_{m+2}/q^{m+1} decay on the growing side as two interleaved
    parity subsequences, so adjacent terms may zigzag while the envelope
    falls.
    """
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    prec = ctx.mp.prec
    total = max_grow = max_shrink = _ZERO
    recent = []  # growing-branch magnitudes of the last three steps
    for k in range(K + 1):
        t_grow = term(1 - k)
        t_shrink = term(k + 2)
        total = _plus(_plus(total, t_grow, prec), t_shrink, prec)
        grow = _size(t_grow, prec)
        max_grow = _larger(max_grow, grow)
        max_shrink = _larger(max_shrink, _size(t_shrink, prec))
        recent = recent[-2:] + [grow]
    tol = _as_pair(ctx.mpf(ctx.series_tol))
    *before, last = recent  # K >= 1, so one or two terms come before
    bound = _product(tol, _larger(_size(total, prec), tol), prec)
    if _less(bound, last) and not _less(last, reduce(_larger, before)):
        raise NoConvergenceError(
            f"{what}: growing-abscissa branch not decaying "
            f"at K={K} (last term {ctx.mp.nstr(_mp(last, ctx), 8)})"
        )
    return total, max_grow, max_shrink


def hat_q_integral(
    f: Union[Callable, Poly],
    ctx: PrecisionContext,
    K: int = HAT_DEPTH,
    return_diagnostics: bool = False,
):
    """Hat q-integral over (0, inf): q^{-1} sum over the lattice {q^j}.

    Sums the lattice by :func:`_hat_sum` at depth K (exponents
    1 - K .. K + 2), which raises NoConvergenceError when the
    growing-abscissa branch has not decayed.  A :class:`Poly` runs
    Horner on pairs (:meth:`Poly.pair_evaluator`); any other callable
    is called at the mpf of each lattice point q^j, and its result, of
    whatever type, converted once as the mpf operators convert an
    operand (:func:`~qhermite2._pairs._operand`) before it is multiplied
    by q^j.

    With ``return_diagnostics=True`` returns
    (value, max_term_growing_branch, max_term_shrinking_branch).
    """
    value = f.pair_evaluator(ctx) if isinstance(f, Poly) else lambda t: _operand(f(_mpf(t, ctx)), ctx)
    prec = ctx.mp.prec

    def term(j: int):
        qj = _raw_pair(q_power_raw(j, ctx))
        return _times(qj, value(qj), prec)

    total, max_grow, max_shrink = _hat_sum(term, K, ctx, "hat_q_integral")
    value = _mp(_over(total, _as_pair(ctx.qm), prec), ctx)
    if return_diagnostics:
        return value, _mp(max_grow, ctx), _mp(max_shrink, ctx)
    return value


# --------------------------------------------------------------------------
# Exact regime
# --------------------------------------------------------------------------


def q_derivative_poly(p: Poly, q: Fraction) -> Poly:
    """Exact q-derivative of a polynomial: x^k -> [k]_q x^{k-1}, formed
    as (p(qx) - p(x)) / ((q - 1) x)."""
    if p.degree < 1:
        return Poly.zero()
    q = as_fraction(q)
    return _over_x(p.scale_argument(q) - p).scale(1 / (q - 1))


def deformed_derivative_poly(p: Poly, q: Fraction) -> Poly:
    """Exact deformed derivative: x^k -> b_{k-1}^2 x^{k-1}, formed as
    q (p(q^{-2} x) - p(q^{-1} x)) / x, since b_{k-1}^2 = q^{1-2k} - q^{1-k}."""
    if p.degree < 1:
        return Poly.zero()
    q = as_fraction(q)
    return _over_x(p.scale_argument(1 / (q * q)) - p.scale_argument(1 / q)).scale(q)


def _gex_term_ratios(q: Fraction):
    """The term ratios c_n / c_{n-1} = q^{2n-1} / (1 - q^n), n = 1, 2, ...,
    of the generalized exponential, c_n = q^{n^2} / (q; q)_n (the
    update of :func:`~qhermite2.qkernel.gen_exponential`), as integer
    pairs a^{2n-1} b^n / (b^{2n-1} (b^n - a^n)) for q = a/b, from the
    running a^n and b^n."""
    a, b = q.numerator, q.denominator
    an = bn = 1
    while True:
        odd_a, odd_b = an * a * an, bn * bn * b  # a^{2n-1}, b^{2n-1}
        an, bn = an * a, bn * b
        yield odd_a * bn, odd_b * (bn - an)


def gex_eigen_residuals(q: Fraction, bits: int) -> List[Fraction]:
    """r_n d_n - 1 for n = 1..N, each zero exactly when the deformed
    derivative D sends the term c_n x^n of the generalized exponential,
    c_n = q^{n^2} / (q; q)_n, to c_{n-1} x^{n-1}: the eigen-equation
    D gex = gex term by term, down to N, the first n with c_n < 2^-bits.

    D sends x^n to d_n x^{n-1}, d_n = q (q^{-2n} - q^{-n}) (the operator
    of :func:`deformed_derivative_poly`), which for q = a/b is
    a b^n (b^n - a^n) / (b a^{2n}) on the running a^n and b^n; r_n is the
    series' term ratio c_n / c_{n-1} (:func:`_gex_term_ratios`).  log2
    c_n, the sum of the ratios' logarithms, is summed in double
    precision to find N.
    """
    q = as_fraction(q)
    a, b = q.numerator, q.denominator
    an = bn = 1
    log_c, residuals = 0.0, []
    for rn, rd in _gex_term_ratios(q):
        an, bn = an * a, bn * b
        dn, dd = a * bn * (bn - an), b * an * an
        residuals.append(Fraction(rn * dn - rd * dd, rd * dd))
        log_c += math.log2(rn) - math.log2(rd)
        if log_c < -bits:
            return residuals


def jackson_integral_poly(p: Poly, x: Fraction, q: Fraction) -> GaussianRational:
    """Exact Jackson integral of a polynomial from 0 to rational x.

    Per-monomial: integral_0^x t^k = x^{k+1} / [k+1]_q, so together with
    :func:`q_derivative_poly` the Newton-Leibniz round trip
    F(x) - F(0) is recovered exactly.
    """
    x = as_fraction(x)
    total = GaussianRational.ZERO
    for k in range(p.degree + 1):
        c = p.coefficient(k)
        if not c.is_zero():
            total = total + c * jackson_monomial_exact(k, x, q)
    return total


def leibniz_residual(u: Poly, v: Poly, variant: str, q: Fraction) -> Poly:
    """Exact residual polynomial of the deformed product rule.

    variant="first":  dhat(uv) - [u(q^{-2}x) dhat v + v(q^{-1}x) dhat u]
    variant="second": dhat(uv) - [v(q^{-2}x) dhat u + u(q^{-1}x) dhat v]

    Both vanish identically; the zero polynomial is the certificate.
    """
    q = as_fraction(q)
    qi = 1 / q
    du = deformed_derivative_poly(u, q)
    dv = deformed_derivative_poly(v, q)
    left = deformed_derivative_poly(u * v, q)
    if variant == "first":
        right = u.scale_argument(qi * qi) * dv + v.scale_argument(qi) * du
    elif variant == "second":
        right = v.scale_argument(qi * qi) * du + u.scale_argument(qi) * dv
    else:
        raise DomainError(f"unknown Leibniz variant {variant!r}")
    return left - right


def _hat_integral_poly(p: Poly, a: Fraction, q: Fraction) -> GaussianRational:
    """Exact finite hat integral of a polynomial from 0 to a > 0:
    q^{-1} a sum_{j>=0} q^j p(a q^j) = q^{-1} sum_k c_k a^{k+1} / (1 - q^{k+1})."""
    total = GaussianRational.ZERO
    for k, c in enumerate(p.coeffs):
        if not c.is_zero():
            total = total + c * (a ** (k + 1) / (1 - q ** (k + 1)))
    return total / q


def ibp_residual_poly(u: Poly, v: Poly, variant: str, a: Fraction, q: Fraction) -> GaussianRational:
    """Exact LHS - RHS of integration by parts for the finite hat integral.

    variant="ip1":
        LHS = int-hat_0^a u(q^{-1}x) (dhat v)(x)
        RHS = (uv)(q^{-2}a) - (uv)(0) - int-hat_0^a v(q^{-2}x) (dhat u)(x)
    variant="ip2": the partner form with the u/v argument shifts
        exchanged and the same boundary bracket.

    The lattice telescopes to the boundary points q^{-2}a and 0 (see
    discrepancy registry entry ``ibp_boundary_points``).  Both vanish
    for every rational a > 0; zero is the certificate.
    """
    a, q = as_fraction(a), as_fraction(q)
    if a <= 0:
        raise DomainError(f"upper limit must be positive, got {a}")
    if variant not in ("ip1", "ip2"):
        raise DomainError(f"unknown integration-by-parts variant {variant!r}")
    qi = 1 / q
    near, far = (qi, qi * qi) if variant == "ip1" else (qi * qi, qi)
    left = u.scale_argument(near) * deformed_derivative_poly(v, q)
    right = v.scale_argument(far) * deformed_derivative_poly(u, q)
    top = a * qi * qi
    boundary = u(top) * v(top) - u(0) * v(0)
    return _hat_integral_poly(left, a, q) - (boundary - _hat_integral_poly(right, a, q))


def _order_at_zero(p: Poly) -> int:
    """The index of the first nonzero coefficient of p."""
    return next(k for k in range(p.degree + 1) if not p.coefficient(k).is_zero())


def ibp_ratio_residual(u: Ratio, v: Ratio, q: Fraction, jacobian: Fraction, shift: Fraction) -> Poly:
    """Exact residual of integration by parts for the hat integral over
    (0, inf) on rational functions u and v, with the Jacobian
    J = ``jacobian`` and the shift s = ``shift``:

        LHS = J int-hat_0^inf u(x) (dhat v)(qx)
        RHS = [uv]_0^inf - int-hat_0^inf v(s x) (dhat u)(x)

    At t = q^m the left sum's step is J q^-1 u(t) (v(t/q) - v(t)), the
    right sum's step at q^{m+1} is v(sqt) (u(t/q) - u(t)), and the
    bracket telescopes into the steps (uv)(t/q) - (uv)(t), so LHS - RHS
    sums P(t) = J/q u(t) (v(t/q) - v(t)) + v(sqt) (u(t/q) - u(t))
    - (uv)(t/q) + (uv)(t) over the lattice.  Returns P times its five
    denominators u(t), u(t/q), v(t), v(t/q), v(sqt): the zero
    polynomial for J = q and s = q^-2 (summation by parts; registry
    entry ``ibp_infinite_jacobian``).  The ends come from degrees:
    DomainError unless uv vanishes at 0 and at inf, so the bracket is 0
    and both sums converge.
    """
    q = as_fraction(q)
    uv_num, uv_den = u.num * v.num, u.den * v.den
    if not uv_num.is_zero() and (uv_num.degree >= uv_den.degree or _order_at_zero(uv_num) <= _order_at_zero(uv_den)):
        raise DomainError("integration by parts over (0, inf) needs u v to vanish at 0 and at inf")
    un, ud, vn, vd = u.num, u.den, v.num, v.den
    uqn, uqd, vqn, vqd = (p.scale_argument(1 / q) for p in (un, ud, vn, vd))
    vsn, vsd = v.num.scale_argument(shift * q), v.den.scale_argument(shift * q)
    left = (un * (vqn * vd - vn * vqd) * uqd * vsd).scale(jacobian / q)
    right = vsn * (uqn * ud - un * uqd) * vd * vqd
    rim = (un * vn * uqd * vqd - uqn * vqn * ud * vd) * vsd
    return left + right + rim
