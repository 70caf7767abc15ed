"""Discrete q-Hermite polynomials of type II and their normalized family.

Provides exact monic coefficient sequences (three-term recurrence),
direct evaluation through the exact expansion of the terminating 2phi0
form, the orthonormal family Psi_n, a generating-function diagnostic
that tests a menu of weight hypotheses order by order in exact
arithmetic, and an exact q-difference-equation residual checker.

The recurrence is the source of truth:

    x htilde_n = htilde_{n+1} + q^{-(2n-1)} (1 - q^n) htilde_{n-1},
    htilde_0 = 1,

so htilde_n is monic with parity (-1)^n and exact rational coefficients
for rational q.  Everything identity-grade here is done over Q(i); the
working-precision context only enters when a value is finally rendered.

Every floating Psi_n comes from one stream, :func:`_recurrence`, on
integer pairs: ``psi_sequence`` and the extremal series read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Dict, List, Optional, Tuple

from ._pairs import _ONE, _ZERO, _as_pair, _finish_step, _mp, _mpf, _product, _quotient, _sum
from .context import PrecisionContext, as_fraction
from .errors import DomainError
from .exact import (
    GaussianRational,
    Poly,
    _poly,
    bn_squared_exact,
)
from .qkernel import b_table

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

def hermite2_coeffs(n: int, ctx: PrecisionContext) -> Poly:
    """Exact monic coefficient sequence of htilde_n for ctx.q.

    Built by the three-term recurrence in :class:`Poly` arithmetic on
    integers: x htilde_m minus htilde_{m-1} scaled by b_{m-1}^2.  The
    result is monic and has the parity of n (odd/even powers only).  The
    list [htilde_0, ...] lives in ``ctx.tables["htilde"]``, grown on demand.
    """
    if n < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {n}")
    cache = ctx.tables.setdefault("htilde", [Poly.one(), Poly.x()])
    while len(cache) <= n:
        m = len(cache) - 1  # extend from htilde_m to htilde_{m+1}
        c = bn_squared_exact(m - 1, ctx.q)  # q^{-(2m-1)}(1 - q^m)
        nxt = Poly.x() * cache[m] - cache[m - 1].scale(c)
        cache.append(nxt)
    return cache[n]


def _two_phi_zero(n: int, ctx: PrecisionContext) -> Poly:
    """i^{-n} q^{-binom(n,2)} 2phi0(q^{-n}, ix; -; q, -q^n), expanded
    exactly in x: a Poly over Q(i), equal to htilde_n when the closed
    form holds.

    Term k of the 2phi0 is (q^{-n}; q)_k (ix; q)_k q^{nk - binom(k,2)}
    / (q; q)_k = (-1)^k [n choose k]_q (ix; q)_k.  For q = a/b, the
    Gaussian-integer polynomial R_k = b^binom(k,2) (ix; q)_k is the
    product of b^j - i a^j x, j < k, and G_k = b^(k(n-k)) [n choose k]_q
    the integer prod_{j<k} (b^(n-j) - a^(n-j)) / (b^(j+1) - a^(j+1)),
    each quotient exact.  So

        htilde_n = i^{-n} a^{-binom(n,2)} sum_k (-1)^k G_k b^binom(n-k,2) R_k,

    summed on integers and reduced once.  The R_k, shared by every n,
    are the rows of ``ctx.tables["(ix;q)_k"]``, grown on demand; the
    expansions are kept in ``ctx.tables["2phi0"]`` by n.
    """
    cache = ctx.tables.setdefault("2phi0", {})
    poly = cache.get(n)
    if poly is not None:
        return poly
    a, b = ctx.q.numerator, ctx.q.denominator
    rows = ctx.tables.setdefault("(ix;q)_k", [((1, 0),)])
    while len(rows) <= n:  # R_(k+1) = R_k (b^k - i a^k x)
        k, last = len(rows) - 1, rows[-1]
        ak, bk = a**k, b**k
        low, row = (0, 0), []
        for re, im in last + ((0, 0),):
            row.append((bk * re + ak * low[1], bk * im - ak * low[0]))
            low = (re, im)
        rows.append(tuple(row))
    re, im = [0] * (n + 1), [0] * (n + 1)
    g = 1  # G_k
    for k in range(n + 1):
        c = (-g if k & 1 else g) * b ** ((n - k) * (n - k - 1) // 2)
        for j, (u, v) in enumerate(rows[k]):
            re[j] += c * u
            im[j] += c * v
        g = g * (b ** (n - k) - a ** (n - k)) // (b ** (k + 1) - a ** (k + 1))
    # times i^{-n}: 1, -i, -1, i
    num = [((u, v), (v, -u), (-u, -v), (-v, u))[n % 4] for u, v in zip(re, im)]
    poly = cache[n] = _poly(num, a ** (n * (n - 1) // 2))
    return poly


def _exact_point(x):
    """x as an exact scalar: a GaussianRational as it is, a complex or
    mpc value as the GaussianRational of its parts, anything else as
    :func:`~qhermite2.context.as_fraction` reads it (an mpf or float at
    its exact binary value); DomainError for a NaN or an infinity."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, complex) or hasattr(x, "_mpc_"):
        return GaussianRational(as_fraction(x.real), as_fraction(x.imag))
    return as_fraction(x)


def hermite2_eval_direct(n: int, x, ctx: PrecisionContext):
    """Evaluate htilde_n(x) through its terminating hypergeometric form.

    htilde_n(x) = i^{-n} q^{-binom(n,2)} 2phi0(q^{-n}, ix; -; q, -q^n).

    The 2phi0 is expanded exactly in x (:func:`_two_phi_zero`) and
    evaluated exactly at x: an int, Fraction or GaussianRational as it
    is, an mpf, mpc, float or complex at its exact binary value, a
    string as ``as_fraction`` parses it.  Each
    part of the exact value is rounded once, to nearest at the working
    precision ``ctx.mp.prec``, and returned as an mpc; the expansion
    has real coefficients, so for a real x the imaginary part is 0.
    This is the independent cross-check of the recurrence coefficients.
    A NaN or infinite x raises DomainError, before any table is read.
    """
    if n < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {n}")
    point = _exact_point(x)
    value = _two_phi_zero(n, ctx)(point)
    prec = ctx.mp.prec
    parts = [_quotient((p.numerator, 0), (p.denominator, 0), prec) for p in (value.re, value.im)]
    return _mp(tuple(parts), ctx)


def _recurrence(x: tuple, ctx: PrecisionContext, seeds, slopes=None):
    """Stream p_0, p_1, ... of x p_n = b_n p_{n+1} + b_{n-1} p_{n-1}.

    Integer pairs in and out (:mod:`qhermite2._pairs`).  Each step
    p_{n+1} = (x p_n - b_{n-1} p_{n-1}) / b_n is ``_finish_step`` on the
    exact x p_n, at ``ctx.mp.prec``: the product, the sum and the
    quotient each rounded once, to nearest, ties to even.
    ``seeds`` are (p_0, p_1): (1, x/b_0) gives Psi_n, (0, 1) gives S_n.
    With ``slopes`` = (p_0', p_1') it yields triples (p_n, p_n', r_n),
    r_n = p_n + x p_n' (``_sum(p_n, _product(x, p_n'))``), following
    b_n p_{n+1}' = r_n - b_{n-1} p_{n-1}'.  The b_n table is read as it
    stands and grown by 32 only past its end.
    """
    prec = ctx.mp.prec
    p0, p1 = seeds
    if slopes is None:
        yield p0
        yield p1
    else:
        d0, d1 = slopes
        yield p0, d0, _sum(p0, _product(x, d0, prec), prec)
        rise = _sum(p1, _product(x, d1, prec), prec)
        yield p1, d1, rise
    xm, xe = x
    bs = b_table(1, ctx)
    b = bs[0]._mpf_[1:3]  # b_0 > 0
    n = 1
    while True:
        # Rounding to nearest is odd, so the product by -b_{n-1} is minus
        # the rounded b_{n-1} p_{n-1}, and adding it is the difference.
        drop = -b[0], b[1]
        if n == len(bs):
            bs = b_table(n + 32, ctx)
        b = bs[n]._mpf_[1:3]
        p2 = _finish_step((xm * p1[0], xe + p1[1]), drop, p0, b, prec)
        if slopes is None:
            yield p2
        else:
            d2 = _finish_step(rise, drop, d0, b, prec)
            rise = _sum(p2, _product(x, d2, prec), prec)
            yield p2, d2, rise
            d0, d1 = d1, d2
        p0, p1 = p1, p2
        n += 1


def _psi_stream(x: tuple, ctx: PrecisionContext, slope: bool = False):
    """Psi_0(x), Psi_1(x), ..., pair x in; with ``slope``, the triples of
    :func:`_recurrence` (Psi_n, Psi_n', Psi_n + x Psi_n')."""
    prec = ctx.mp.prec
    b0 = _as_pair(b_table(1, ctx)[0])
    seeds = (_ONE, _quotient(x, b0, prec))
    slopes = (_ZERO, _quotient(_ONE, b0, prec)) if slope else None
    return _recurrence(x, ctx, seeds, slopes)


def psi_sequence(nmax: int, x, ctx: PrecisionContext) -> list:
    """Values [Psi_0(x), ..., Psi_nmax(x)] at a real x, as mpf.

    Psi_0 = 1 and x Psi_n = b_n Psi_{n+1} + b_{n-1} Psi_{n-1}: the
    first values of :func:`_psi_stream`, building only the b_n they read.
    """
    if nmax < 0:
        raise DomainError(f"sequence length must be >= 0, got {nmax}")
    if isinstance(x, (complex, ctx.mp.mpc)):
        raise DomainError("psi_sequence takes a real x")
    b_table(nmax, ctx)  # the b_n read; the stream grows the table no further
    stream = _psi_stream(_as_pair(ctx.mpf(x)), ctx)
    return [_mpf(p, ctx) for p in islice(stream, nmax + 1)]


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


def _hypothesis_weight(tag: str, n: int, q: Fraction, poch: Fraction) -> Fraction:
    """w_n of hypothesis ``tag``, given poch = (q;q)_n."""
    if tag == "as-printed":
        return Fraction(1)
    if tag == "divided-by-qpochhammer":
        return 1 / poch
    if tag == "divided-with-qpower":
        return q ** (n * (n - 1) // 2) / poch
    if tag == "divided-with-qpower-squared":
        return q ** (n * (n - 1)) / poch
    raise DomainError(f"unknown weight hypothesis {tag!r}")


def _closed_form_tau_coeffs(x: Fraction, q: Fraction, order: int):
    """Exact tau-Taylor coefficients of (i tau; q)_inf 1phi1(ix; i tau; q, -i tau).

    Both factors are expanded over Q(i) in one pass: the infinite
    product by Euler's q-exponential sum, the 1phi1 sum term by term.
    Term k carries 1/(i tau; q)_k, and each of its factors
    1/(1 - c tau), c = i q^j, divides a series a by the running sum
    s_m = a_m + c s_{m-1}.  The two series meet in one ``Poly``
    product.  Truncation at tau^order is exact (higher terms cannot
    feed back down).
    """
    L = order + 1
    I = GaussianRational.I
    one = GaussianRational.ONE
    zero = GaussianRational.ZERO

    # base[k] = q^{binom(k,2)} / (q;q)_k, the running product of (q;q)_k
    base = []
    poch = Fraction(1)
    for k in range(L):
        base.append(q ** (k * (k - 1) // 2) / poch)
        poch *= 1 - q ** (k + 1)

    # (i tau; q)_inf = sum_m (-i)^m q^{binom(m,2)} tau^m / (q;q)_m
    euler = Poly([((-I) ** m) * base[m] for m in range(L)])

    # 1phi1(ix; i tau; q, -i tau): term_k = q^{binom(k,2)} (ix;q)_k /(q;q)_k
    #   * (i tau)^k / (i tau; q)_k
    total = [zero] * L
    running = [one] + [zero] * (L - 1)  # 1/(i tau; q)_k, first L - k terms
    ix = I * x
    poch_ix = one  # (ix; q)_k
    ik = one  # i^k
    for k in range(L):
        ck = poch_ix * base[k] * ik
        for m in range(L - k):
            total[m + k] = total[m + k] + ck * running[m]
        c = I * q**k
        s = zero
        for m in range(L - k - 1):
            s = running[m] = running[m] + c * s
        poch_ix = poch_ix * (one - ix * q**k)
        ik = ik * I
    product = euler * Poly(total)
    return [product.coefficient(m) for m in range(L)]


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


def generating_fn_report(x, order: int, ctx: PrecisionContext) -> GenFnReport:
    """Compare sum_n w_n htilde_n(x) tau^n against the closed form.

    The comparison is per tau-order and exact (rational x, rational q),
    so no tolerance enters the verdict.
    """
    if order < 0 or order > 20:
        raise DomainError(f"order must be in 0..20, got {order}")
    xf = as_fraction(x)
    q = ctx.q
    closed = _closed_form_tau_coeffs(xf, q, order)

    values = []  # (htilde_n(x), (q;q)_n) per order
    poch = Fraction(1)
    for n in range(order + 1):
        values.append((hermite2_coeffs(n, ctx)(xf), poch))
        poch *= 1 - q ** (n + 1)

    residuals: Dict[str, Tuple[GaussianRational, ...]] = {}
    ratios: Dict[str, Tuple[Optional[Fraction], ...]] = {}
    matched = None
    for tag in WEIGHT_HYPOTHESES:
        res: List[GaussianRational] = []
        rat: List[Optional[Fraction]] = []
        for n, (hn, poch) in enumerate(values):
            side = hn * _hypothesis_weight(tag, n, q, poch)
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
