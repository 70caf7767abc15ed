"""q-derivatives, the deformed lattice derivative, Jackson-type
integrals, and integration-by-parts validators.

Two evaluation regimes coexist:

* numeric: callables evaluated on geometric lattices at working
  precision with monitored tails (never assumed convergent);
* exact: polynomial identities (Leibniz rule, derivative/antiderivative
  round trips) proved over the rationals via :class:`~qhermite2.exact.Poly`.

Integral conventions on the base-1 doubly infinite lattice
{q^j : j in Z}:

* plain Jackson: integral_0^x f = x(1-q) sum_{n>=0} q^n f(q^n x);
  the doubly infinite forms add the downward branch and the mirrored
  negative lattice.
* hat integral (the lattice dual of the deformed derivative):
  integral-hat_0^inf f = q^{-1} sum_j q^j f(q^j), enumerated with the
  two-branch index split j = -(k-1) and j = k+2, k >= 0.  The q^{-1}
  prefactor is forced by the fundamental theorem (see the discrepancy
  registry entry ``hat_integral_prefactor``).
* finite hat integral: integral-hat_0^a f = q^{-1} a sum_{j>=0} q^j f(a q^j).

The deformed derivative is
(dhat f)(x) = (f(q^{-2}x) - f(q^{-1}x)) / (q^{-1}x), which sends x^n to
b_{n-1}^2 x^{n-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Dict, Union

from .context import PrecisionContext, as_fraction
from .errors import DomainError, NoConvergenceError
from .exact import (
    GaussianRational,
    Poly,
    bn_squared_exact,
    jackson_monomial_exact,
    qbracket,
)
from .qkernel import Decay, q_power

__all__ = [
    "LatticeFunction",
    "q_derivative",
    "deformed_derivative",
    "jackson_integral",
    "hat_q_integral",
    "hat_q_integral_finite",
    "ibp_residual",
    "q_derivative_poly",
    "deformed_derivative_poly",
    "jackson_integral_poly",
    "leibniz_residual",
]


@dataclass(frozen=True)
class LatticeFunction:
    """Function known only on a geometric lattice {q^m * x0}.

    ``values[m]`` holds f(q^m x0) for every integer m in
    [m_min, m_max]; construction rejects gaps.  Instances are callable
    through :meth:`at_exponent`; there is deliberately no off-lattice
    interpolation.
    """

    x0: Fraction
    values: Dict[int, object]
    m_min: int
    m_max: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0", as_fraction(self.x0))
        if self.x0 <= 0:
            raise DomainError(f"lattice base must be positive, got {self.x0}")
        if self.m_min > self.m_max:
            raise DomainError("empty lattice range")
        missing = [
            m for m in range(self.m_min, self.m_max + 1) if m not in self.values
        ]
        if missing:
            raise DomainError(f"lattice exponents missing values: {missing[:5]}...")

    def at_exponent(self, m: int):
        if m < self.m_min or m > self.m_max:
            raise DomainError(
                f"lattice exponent {m} outside [{self.m_min}, {self.m_max}]"
            )
        return self.values[m]

    def covers(self, m_lo: int, m_hi: int) -> bool:
        return self.m_min <= m_lo and self.m_max >= m_hi


Evaluatable = Union[Callable, Poly]


def _as_callable(f: Evaluatable, ctx: PrecisionContext) -> Callable:
    if isinstance(f, Poly):
        return f.mp_evaluator(ctx)
    return f


def q_derivative(f: Evaluatable, x, ctx: PrecisionContext):
    """Plain q-derivative (F(x) - F(qx)) / (x (1 - q)); x must be nonzero."""
    xv = ctx.mpf(x)
    if xv == 0:
        raise DomainError("q_derivative is undefined at x = 0")
    func = _as_callable(f, ctx)
    q = ctx.qm
    return (func(xv) - func(q * xv)) / (xv * (1 - q))


def deformed_derivative(f: Evaluatable, x, ctx: PrecisionContext):
    """Deformed derivative (f(q^{-2}x) - f(q^{-1}x)) / (q^{-1}x).

    Sends x^n to b_{n-1}^2 x^{n-1} (and constants to 0); fixed point of
    the generalized exponential.
    """
    xv = ctx.mpf(x)
    if xv == 0:
        raise DomainError("deformed_derivative is undefined at x = 0")
    return _dhat_callable(_as_callable(f, ctx), ctx)(xv)


def _monitored_sum(terms, ctx: PrecisionContext, what: str):
    """Ascending-k summation with a monitored stopping rule.

    Stops where :class:`~qhermite2.qkernel.Decay` settles on the term
    magnitudes against the running sum, counting only terms that are
    not growing (a growing term resets the streak), so geometric
    q-lattice tails contribute at most a small multiple of the
    tolerance.  Raises NoConvergenceError at the term budget.
    """
    total = ctx.mp.mpf(0)
    decay = Decay(ctx)
    prev = None
    for term in islice(terms, ctx.max_terms):
        total = total + term
        mag = abs(term)
        if prev is not None and mag > prev:
            decay.streak = 0
        # A NaN term reads as a zero pair; mag == mag keeps it unsettled.
        elif decay.settled(mag._mpf_[1:3], abs(total)._mpf_[1:3]) and mag == mag:
            return total
        prev = mag
    raise NoConvergenceError(
        f"{what}: lattice terms still {mag} after {ctx.max_terms} terms"
    )


def _walk(value, x, first, step):
    """Yield q^j value(q^j x) along a lattice, q^j running from ``first``
    through step(q^j)."""
    qj = first
    while True:
        yield qj * value(qj * x)
        qj = step(qj)


def jackson_integral(f: Evaluatable, kind: str, x, ctx: PrecisionContext):
    """Jackson q-integral on a geometric lattice.

    kind = "zero_to_x":        x(1-q) sum_{n>=0} q^n f(q^n x)
    kind = "zero_to_inf":      (1-q) sum_{j in Z} q^j x f(q^j x)
    kind = "minus_inf_to_inf": the zero_to_inf sum with f(t) + f(-t)

    For the infinite kinds ``x`` is the lattice base point (the
    customary choice is 1).  Upward-lattice decay of the integrand is
    monitored; NoConvergenceError if the large-abscissa terms fail to
    fall below tolerance within the term budget.
    """
    xv = ctx.mpf(x)
    if xv <= 0:
        raise DomainError(f"base point must be positive, got {x}")
    func = _as_callable(f, ctx)
    q = ctx.qm

    if kind == "zero_to_x":
        small_terms = _walk(func, xv, ctx.mp.mpf(1), lambda qj: qj * q)
        return xv * (1 - q) * _monitored_sum(small_terms, ctx, "jackson")

    if kind not in ("zero_to_inf", "minus_inf_to_inf"):
        raise DomainError(f"unknown jackson integral kind {kind!r}")

    mirrored = kind == "minus_inf_to_inf"

    def value_at(t):
        v = func(t)
        if mirrored:
            v = v + func(-t)
        return v

    # j = 0, 1, 2, ... (abscissa shrinks) and j = -1, -2, ... (it grows)
    upward_terms = _walk(value_at, xv, ctx.mp.mpf(1), lambda qj: qj * q)
    downward_terms = _walk(value_at, xv, 1 / q, lambda qj: qj / q)
    up = _monitored_sum(upward_terms, ctx, "jackson upward branch")
    down = _monitored_sum(downward_terms, ctx, "jackson downward branch")
    return (1 - q) * xv * (up + down)


# Default depth K of the hat lattice (exponents 1 - K .. K + 2) for
# every hat sum, lattice moment and measure that is not given one.
HAT_DEPTH = 60


def _hat_sum(term: Callable[[int], object], K: int, ctx: PrecisionContext, what: str):
    """sum_j term(j) over the hat lattice at depth K: for k = 0..K the
    growing-abscissa term j = 1 - k, then the shrinking one j = k + 2.
    The caller forms each whole term, such as q^j g(q^j), and names
    itself in ``what``, which opens the error message.

    Returns (total, max |growing term|, max |shrinking term|).  Raises
    NoConvergenceError if the last growing term is not negligible and
    not below both terms before it: weights obeying g_m ~ g_{m+2}/q^{m+1}
    decay on the growing side as two interleaved parity subsequences, so
    adjacent terms may zigzag while the envelope falls.
    """
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    mp = ctx.mp
    tol = ctx.mpf(ctx.series_tol)
    total = mp.mpf(0)
    max_grow = mp.mpf(0)
    max_shrink = mp.mpf(0)
    recent = []  # growing-branch magnitudes of the last three steps
    for k in range(K + 1):
        t_grow = term(1 - k)
        t_shrink = term(k + 2)
        total = total + t_grow + t_shrink
        max_grow = max(max_grow, abs(t_grow))
        max_shrink = max(max_shrink, abs(t_shrink))
        recent = recent[-2:] + [abs(t_grow)]
    *before, last = recent  # K >= 1, so one or two terms come before
    if last > tol * max(abs(total), tol) and last >= max(before):
        raise NoConvergenceError(
            f"{what}: growing-abscissa branch not decaying "
            f"at K={K} (last term {mp.nstr(last, 8)})"
        )
    return total, max_grow, max_shrink


def hat_q_integral(
    f: Union[Evaluatable, LatticeFunction],
    ctx: PrecisionContext,
    K: int = HAT_DEPTH,
    return_diagnostics: bool = False,
):
    """Hat q-integral over (0, inf): q^{-1} sum over the lattice {q^j}.

    Sums the lattice by :func:`_hat_sum` at depth K (exponents
    1 - K .. K + 2), which raises NoConvergenceError when the
    growing-abscissa branch has not decayed.  Every lattice moment and
    the ip3 residual of :func:`ibp_residual` share that sum and check.

    With ``return_diagnostics=True`` returns
    (value, max_term_growing_branch, max_term_shrinking_branch).
    """
    if isinstance(f, LatticeFunction):
        if f.x0 != 1:
            raise DomainError("hat_q_integral expects a base-1 lattice")
        if not f.covers(1 - K, K + 2):
            raise DomainError(
                f"lattice range [{f.m_min}, {f.m_max}] does not cover "
                f"exponents [{1 - K}, {K + 2}] needed at K={K}"
            )
        sample = f.at_exponent
    else:
        func = _as_callable(f, ctx)
        def sample(m: int):
            return func(q_power(m, ctx))

    total, max_grow, max_shrink = _hat_sum(
        lambda j: q_power(j, ctx) * sample(j), K, ctx, "hat_q_integral"
    )
    value = total / ctx.qm
    if return_diagnostics:
        return value, max_grow, max_shrink
    return value


def hat_q_integral_finite(f: Evaluatable, a, ctx: PrecisionContext):
    """Finite hat q-integral: q^{-1} a sum_{j>=0} q^j f(a q^j)."""
    av = ctx.mpf(a)
    if av <= 0:
        raise DomainError(f"upper limit must be positive, got {a}")
    func = _as_callable(f, ctx)
    q = ctx.qm
    terms = _walk(func, av, ctx.mp.mpf(1), lambda qj: qj * q)
    return av / q * _monitored_sum(terms, ctx, "hat_q_integral_finite")


def _dhat_callable(f: Callable, ctx: PrecisionContext) -> Callable:
    qi = 1 / ctx.qm
    qi2 = qi * qi

    def dhat(t):
        qit = qi * t
        return (f(qi2 * t) - f(qit)) / qit

    return dhat


def ibp_residual(
    u: Evaluatable,
    v: Union[Evaluatable, LatticeFunction],
    variant: str,
    a,
    ctx: PrecisionContext,
    K: int = HAT_DEPTH,
):
    """|LHS - RHS| of an integration-by-parts identity for the hat integral.

    variant="ip1" (finite a):
        LHS = int-hat_0^a u(q^{-1}x) (dhat v)(x)
        RHS = (uv)(q^{-2}a) - (uv)(0) - int-hat_0^a v(q^{-2}x) (dhat u)(x)
    variant="ip2" (finite a): the partner form with the u/v argument
        shifts exchanged and the same boundary bracket.
    variant="ip3" (a = inf, pass a=None):
        LHS = q * int-hat_0^inf u(x) (dhat v)(qx)
        RHS = [uv]_0^inf - int-hat_0^inf v(q^{-2}x) (dhat u)(x)

    The boundary bracket of ip1/ip2 is evaluated at q^{-2}a and 0 (the
    lattice telescoping lands there; see discrepancy registry entry
    ``ibp_boundary_points``).  ip3 carries the Jacobian factor q on the
    left (registry entry ``ibp_infinite_jacobian``).  For ip3 the 0-end
    boundary value uses u(0) times the shrinking-end lattice limit of v,
    and the inf-end uses the deepest retained lattice point (negligible
    for decaying integrands).  Both ip3 sums carry the growing-branch
    certificate of :func:`hat_q_integral` (NoConvergenceError; K >= 1).
    """
    mp = ctx.mp
    q = ctx.qm
    uf = _as_callable(u, ctx)

    if variant in ("ip1", "ip2"):
        if a is None:
            raise DomainError(f"{variant} needs a finite upper limit")
        if not callable(v) and not isinstance(v, Poly):
            raise DomainError(f"{variant} needs an evaluatable v")
        vf = _as_callable(v, ctx)
        av = ctx.mpf(a)
        du = _dhat_callable(uf, ctx)
        dv = _dhat_callable(vf, ctx)
        q2 = q**2
        boundary = uf(av / q2) * vf(av / q2) - uf(mp.mpf(0)) * vf(mp.mpf(0))
        if variant == "ip1":
            lhs = hat_q_integral_finite(lambda t: uf(t / q) * dv(t), av, ctx)
            rhs = boundary - hat_q_integral_finite(
                lambda t: vf(t / q2) * du(t), av, ctx
            )
        else:
            lhs = hat_q_integral_finite(lambda t: uf(t / q2) * dv(t), av, ctx)
            rhs = boundary - hat_q_integral_finite(
                lambda t: vf(t / q) * du(t), av, ctx
            )
        return abs(lhs - rhs)

    if variant != "ip3":
        raise DomainError(f"unknown integration-by-parts variant {variant!r}")

    # ip3 on the doubly infinite base-1 lattice, v sampled at q^m.
    if isinstance(v, LatticeFunction):
        if v.x0 != 1:
            raise DomainError("ip3 expects a base-1 lattice for v")
        needed_lo, needed_hi = -K - 1, K + 4
        if not v.covers(needed_lo, needed_hi):
            raise DomainError(
                f"lattice range [{v.m_min}, {v.m_max}] does not cover "
                f"[{needed_lo}, {needed_hi}] needed at K={K}"
            )
        v_at = v.at_exponent
    else:
        vf = _as_callable(v, ctx)
        v_values = {}  # each lattice index is read up to three times

        def v_at(m: int):
            if m not in v_values:
                v_values[m] = vf(q_power(m, ctx))
            return v_values[m]

    def dv_at(m: int):
        # (dhat v)(q^m) = q^{1-m} (v(q^{m-2}) - v(q^{m-1}))
        return q_power(1 - m, ctx) * (v_at(m - 2) - v_at(m - 1))

    du = _dhat_callable(uf, ctx)

    def lhs_term(m: int):
        # q^m u(q^m) (dhat v)(q * q^m) on the hat lattice
        return q_power(m, ctx) * (uf(q_power(m, ctx)) * dv_at(m + 1))

    def rhs_term(m: int):
        return q_power(m, ctx) * (v_at(m - 2) * du(q_power(m, ctx)))

    # the Jacobian q cancels the measure's q^{-1} prefactor
    lhs = _hat_sum(lhs_term, K, ctx, "ibp_residual ip3")[0]
    # boundary [uv]_0^inf: deep end ~ 0 for decaying v, 0-end -> u(0) v(0+)
    deep = uf(q_power(-K, ctx)) * v_at(-K)
    zero_end = uf(mp.mpf(0)) * v_at(K + 4)
    rhs = (deep - zero_end) - _hat_sum(rhs_term, K, ctx, "ibp_residual ip3")[0] / q
    return abs(lhs - rhs)


# --------------------------------------------------------------------------
# Exact polynomial regime
# --------------------------------------------------------------------------


def q_derivative_poly(p: Poly, q: Fraction) -> Poly:
    """Exact q-derivative of a polynomial: x^k -> [k]_q x^{k-1}."""
    out = [
        p.coefficient(k) * qbracket(k, q)
        for k in range(1, p.degree + 1)
    ]
    return Poly(out)


def deformed_derivative_poly(p: Poly, q: Fraction) -> Poly:
    """Exact deformed derivative: x^k -> b_{k-1}^2 x^{k-1}."""
    out = [
        p.coefficient(k) * bn_squared_exact(k - 1, q)
        for k in range(1, p.degree + 1)
    ]
    return Poly(out)


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
