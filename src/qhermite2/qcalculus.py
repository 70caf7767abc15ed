"""The deformed lattice derivative, exact q-derivatives, Jackson-type
integrals, and integration-by-parts validators.

Two evaluation regimes coexist:

* numeric: callables evaluated on geometric lattices at working
  precision with monitored tails (never assumed convergent).  The
  lattice runs on integer pairs (:mod:`qhermite2._pairs`): every
  lattice point, derivative quotient, product, term and sum is a
  correctly rounded pair operation, a polynomial is
  evaluated by Horner on pairs, a :class:`~qhermite2.exact.Ratio` is
  its exact value rounded once, and any other callable is called at an
  mpf point with its result converted once;
* exact: polynomial identities (Leibniz rule, derivative/antiderivative
  round trips, finite integration by parts) proved over the rationals
  via :class:`~qhermite2.exact.Poly`.

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
b_{n-1}^2 x^{n-1}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Callable, Union

from ._pairs import (
    _ONE,
    _ZERO,
    _as_pair,
    _larger,
    _less,
    _mp,
    _mpf,
    _negative,
    _operand,
    _over,
    _plus,
    _product,
    _quotient,
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
from .qkernel import q_power_raw, q_power_run

__all__ = [
    "deformed_derivative",
    "hat_q_integral",
    "ibp_residual",
    "q_derivative_poly",
    "deformed_derivative_poly",
    "jackson_integral_poly",
    "leibniz_residual",
    "ibp_residual_poly",
]


Evaluatable = Union[Callable, Poly, Ratio]

# A lattice value is a real or complex pair value (:mod:`qhermite2._pairs`),
# or a callable's result that is not an mpf or mpc (an int, float, Fraction
# or complex), kept raw: two raw values combine by their own operators (an
# int difference stays exact), and a raw value meets a pair converted as the
# mpf operators convert it (:func:`~qhermite2._pairs._operand`).  Lattice
# points are real pairs, each the product, quotient or sum the mpf
# operators form, at the precision of the call.


def _lattice_value(x, ctx: PrecisionContext):
    """The callable result x as a lattice value."""
    return _operand(x, ctx) if hasattr(x, "_mpf_") or hasattr(x, "_mpc_") else x


def _mul(a, b, ctx: PrecisionContext, prec: int):
    """a b of two lattice values."""
    if type(a) is tuple and type(b) is tuple:
        return _times(a, b, prec)
    if type(a) is not tuple and type(b) is not tuple:
        return a * b
    return _times(_operand(a, ctx), _operand(b, ctx), prec)


def _sub(a, b, ctx: PrecisionContext, prec: int):
    """a - b of two lattice values."""
    if type(a) is tuple and type(b) is tuple:
        return _plus(a, _negative(b), prec)
    if type(a) is not tuple and type(b) is not tuple:
        return a - b
    return _plus(_operand(a, ctx), _negative(_operand(b, ctx)), prec)


def _q_pair(m: int, ctx: PrecisionContext) -> tuple:
    """q^m as a pair, the exact power rounded once (``q_power_raw``)."""
    return _raw_pair(q_power_raw(m, ctx))


def _on_pairs(f: Evaluatable, ctx: PrecisionContext) -> Callable:
    """f on the lattice: a function of a real pair point returning a
    lattice value.  A :class:`Poly` runs Horner on pairs
    (:meth:`Poly.pair_evaluator`), a :class:`Ratio` rounds its exact
    value once (:meth:`Ratio.pair_evaluator`); any other callable is
    called at the mpf of the point, and its result converted once
    (:func:`_lattice_value`)."""
    if isinstance(f, (Poly, Ratio)):
        return f.pair_evaluator(ctx)

    def value(t: tuple):
        return _lattice_value(f(_mpf(t, ctx)), ctx)

    return value


def deformed_derivative(f: Evaluatable, x, ctx: PrecisionContext):
    """Deformed derivative (f(q^{-2}x) - f(q^{-1}x)) / (q^{-1}x).

    Sends x^n to b_{n-1}^2 x^{n-1} (and constants to 0); fixed point of
    the generalized exponential.
    """
    xv = ctx.mpf(x)
    if xv == 0:
        raise DomainError("deformed_derivative is undefined at x = 0")
    return _mp(_dhat(_on_pairs(f, ctx), ctx)(_as_pair(xv)), ctx)


# Values :func:`_recent` keeps per integrand: a step of the ip3 sum reads
# u at no more than six points (q^m and the two points of (d-hat u)(q^m)
# on each of its two branches), and a shifted point repeats a point of
# its own step or of the two before it.
_WINDOW = 18


def _recent(value):
    """The lattice function ``value``, called once per distinct point
    value among the last :data:`_WINDOW` points it was called at: a
    point that equals one of those as a value, whatever its pair
    representation (``q_power_run`` mantissas keep trailing zero bits),
    gets the value already formed.  The oldest point is dropped first."""
    memo = {}

    def at(t: tuple):
        man, exp = t
        low = (man & -man).bit_length() - 1 if man else 0
        key = man >> low, exp + low
        found = memo.get(key)
        if found is None:
            found = memo[key] = value(t)
            if len(memo) > _WINDOW:
                del memo[next(iter(memo))]
        return found

    return at


# Default depth K of the hat lattice (exponents 1 - K .. K + 2) for
# every hat sum, lattice moment and measure that is not given one.
HAT_DEPTH = 60


def _hat_sum(term: Callable[[int], tuple], K: int, ctx: PrecisionContext, what: str):
    """sum_j term(j) over the hat lattice at depth K: for k = 0..K the
    growing-abscissa term j = 1 - k, then the shrinking one j = k + 2.
    The caller forms each whole term, such as q^j g(q^j), as a pair
    value, and names itself in ``what``, which opens the error message.

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
    _hat_check(total, recent, K, ctx, what)
    return total, max_grow, max_shrink


def _hat_check(total: tuple, recent: list, K: int, ctx: PrecisionContext, what: str) -> None:
    """The growing-branch check of :func:`_hat_sum` on a hat sum's total
    and the sizes of its last two or three growing terms."""
    prec = ctx.mp.prec
    tol = _as_pair(ctx.mpf(ctx.series_tol))
    *before, last = recent  # K >= 1, so one or two terms come before
    bound = _product(tol, _larger(_size(total, prec), tol), prec)
    if _less(bound, last) and not _less(last, reduce(_larger, before)):
        raise NoConvergenceError(
            f"{what}: growing-abscissa branch not decaying "
            f"at K={K} (last term {ctx.mp.nstr(_mp(last, ctx), 8)})"
        )


def hat_q_integral(
    f: Evaluatable,
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
    value = _on_pairs(f, ctx)
    prec = ctx.mp.prec

    def term(j: int):
        qj = _q_pair(j, ctx)
        return _mul(qj, value(qj), ctx, prec)

    total, max_grow, max_shrink = _hat_sum(term, K, ctx, "hat_q_integral")
    value = _mp(_over(total, _as_pair(ctx.qm), prec), ctx)
    if return_diagnostics:
        return value, _mp(max_grow, ctx), _mp(max_shrink, ctx)
    return value


def _dhat(value, ctx: PrecisionContext):
    """d-hat of the lattice function ``value``: the lattice function
    t -> (value(q^{-2} t) - value(q^{-1} t)) / (q^{-1} t)."""
    prec = ctx.mp.prec
    qi = _quotient(_ONE, _as_pair(ctx.qm), prec)
    qi2 = _product(qi, qi, prec)

    def dhat(t: tuple) -> tuple:
        return _slope(value, _product(qi2, t, prec), _product(qi, t, prec), ctx)

    return dhat


def _slope(value, t2: tuple, qit: tuple, ctx: PrecisionContext) -> tuple:
    """(value(t2) - value(qit)) / qit, d-hat at t from its points
    t2 = q^{-2} t and qit = q^{-1} t; a real difference goes straight
    to ``_quotient``."""
    prec = ctx.mp.prec
    rise = _sub(value(t2), value(qit), ctx, prec)
    if type(rise) is tuple and type(rise[0]) is int:
        return _quotient(rise, qit, prec)
    return _over(_operand(rise, ctx), qit, prec)


def ibp_residual(u: Evaluatable, v: Evaluatable, ctx: PrecisionContext, K: int = HAT_DEPTH):
    """|LHS - RHS| of integration by parts for the hat integral over (0, inf):

        LHS = q * int-hat_0^inf u(x) (dhat v)(qx)
        RHS = [uv]_0^inf - int-hat_0^inf v(q^{-2}x) (dhat u)(x)

    The left side carries the Jacobian factor q (registry entry
    ``ibp_infinite_jacobian``).  The 0-end boundary value uses u(0)
    times the shrinking-end lattice limit of v, and the inf-end uses the
    deepest retained lattice point (negligible for decaying integrands).
    Both sums carry the growing-branch certificate of
    :func:`hat_q_integral` (NoConvergenceError; K >= 1).  Every lattice
    sum, derivative and product runs on pairs.  The finite identities
    ip1 and ip2 are exact for polynomials: :func:`ibp_residual_poly`.

    The right side is summed in the pass over the left one.  Each
    integrand is called once per distinct point value in a call, the
    value reused wherever a shifted point equals a recent one: u and v
    must be pure functions.  Errors come in the order of a left sum
    finished before its right one: an error the right side meets (an
    integrand that raises, a value that is not finite) is raised only
    once the left sum has passed its check, and the left side's own
    error, NoConvergenceError included, comes first.
    """
    prec = ctx.mp.prec
    q = _as_pair(ctx.qm)
    uf = _recent(_on_pairs(u, ctx))
    powers = list(q_power_run(-K - 2, K + 5, ctx))

    def q_at(m: int) -> tuple:
        return powers[m + K + 2]

    # ip3 on the doubly infinite base-1 lattice, v sampled at q^m.
    vf = _on_pairs(v, ctx)
    v_values = {}  # each lattice index is read up to three times

    def v_at(m: int):
        if m not in v_values:
            v_values[m] = vf(q_at(m))
        return v_values[m]

    du = _dhat(uf, ctx)
    right, grows, failed = _ZERO, [], None  # the right side's hat sum, beside the left one

    def lhs_term(m: int):
        # q^m u(q^m) (dhat v)(q * q^m), (dhat v)(q^m) = q^{1-m} (v(q^{m-2}) - v(q^{m-1}));
        # the right side's q^m v(q^{m-2}) (dhat u)(q^m) joins its sum in the same order
        nonlocal right, grows, failed
        qm = q_at(m)
        value = uf(qm)
        dv = _mul(q_at(-m), _sub(v_at(m - 1), v_at(m), ctx, prec), ctx, prec)
        term = _mul(qm, _mul(value, dv, ctx, prec), ctx, prec)
        if failed is None:
            try:
                other = _mul(qm, _mul(v_at(m - 2), du(qm), ctx, prec), ctx, prec)
            except Exception as exc:  # raised after the left side and the boundary
                failed = exc
            else:
                right = _plus(right, other, prec)
                if m <= 1:
                    grows = grows[-2:] + [_size(other, prec)]
        return term

    # the Jacobian q cancels the measure's q^{-1} prefactor
    lhs = _hat_sum(lhs_term, K, ctx, "ibp_residual ip3")[0]
    # boundary [uv]_0^inf: deep end ~ 0 for decaying v, 0-end -> u(0) v(0+)
    deep = _mul(uf(q_at(-K)), v_at(-K), ctx, prec)
    zero_end = _mul(uf(_ZERO), v_at(K + 4), ctx, prec)
    if failed is not None:
        raise failed
    _hat_check(right, grows, K, ctx, "ibp_residual ip3")
    rim = _sub(deep, zero_end, ctx, prec)
    rhs = _sub(rim, _over(right, q, prec), ctx, prec)
    return _mp(_size(_sub(lhs, rhs, ctx, prec), prec), ctx)


# --------------------------------------------------------------------------
# Exact polynomial regime
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
