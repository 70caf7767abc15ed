"""Lattice weight function, moments, and resolution-of-unity measures.

The weight f solves the lattice functional equation

    f(q y) - f(q^2 y) = -q y f(y)      (y = q^m, m in Z)

with normalization f(0+) = 1.  Written on lattice values g_m = f(q^m)
this is the three-term recursion g_{m+2} = g_{m+1} + q^{m+1} g_m, whose
decaying (large-abscissa) solution is minimal.  The stable way to pin a
minimal solution is to seed deep on the decaying side and recurse
toward the dominant side, normalizing at the top where f -> 1; naive
recursion from the f -> 1 end amplifies the seed error by q^{-m} per
step and collapses in two steps (see discrepancy registry entry
``lattice_weight_scheme``).  The seed contamination of the deep end
decays like q^{buffer/2}, so the buffer is sized to push it
below working precision.  ``lattice_weight`` makes one streamed sweep
from the deep seeds toward twice the tail depth and retains only the
requested window and the two tail values it normalizes and checks
against (the standard one-pass evaluation of a minimal solution;
W. Gautschi, SIAM Rev. 9 (1967) 24-82).  The sweep runs on integer
mantissas and exponents: the powers q^(m+1), each the exact power
rounded once, come from one certified running product
(``q_power_run``), and each step rounds the exact integer product and
sum once, to nearest, ties to even.  The sweep stops once three values
in a row are equal: past that point it provably changes no bit (see
``_sweep``).  ``lattice_weight`` normalizes and checks the
swept pairs with the operations of :mod:`qhermite2._pairs`.

Moments of the weight against the hat integral reproduce
I_n = q^{-n^2} (q; q)_n.  As rho_n! = c^n I_n (c = q/(1-q)), the Gram
diagonal of the coherent resolution of unity is I_n(lattice)/I_n.  All
lattice moments, of the weight or of a point-mass measure, go through
the one certified hat sum ``qcalculus._hat_sum``.  The measures' scale
constants are re-derived from the moment conditions and recorded in
the discrepancy registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from mpmath.libmp import from_man_exp

from ._pairs import (
    _ZERO,
    _as_pair,
    _larger,
    _less,
    _magnitude,
    _mpf,
    _power,
    _product,
    _quotient,
    _raw_pair,
    _round_even,
    _sum,
)
from .context import PrecisionContext
from .errors import DomainError, InstabilityError
from .exact import moment_In_exact
from .qcalculus import HAT_DEPTH, _hat_sum
from .qkernel import (
    _q_complement,
    _q_complements,
    gen_exponential,
    q_power,
    q_power_raw,
    q_power_run,
)

__all__ = [
    "LatticeWeight",
    "lattice_weight",
    "FormalSeriesPartial",
    "formal_series_partial",
    "MomentResult",
    "moment_In",
    "DiscreteMeasure",
    "build_measure",
    "GramReport",
    "unity_check",
    "MEASURE_TARGETS",
]

MEASURE_TARGETS = ("y-variable", "x-variable", "z-plane-radial")


@dataclass(frozen=True)
class LatticeWeight:
    """Weight values g_m ~ f(q^m) on the exponent range [m_min, m_max].

    ``tail_init_index`` is the exponent where the tail normalization
    f -> 1 was imposed; ``residual_max`` the largest relative
    difference-equation residual over the retained interior;
    ``negative_count`` the number of retained negative values (the sign
    pattern is reported, never assumed).
    """

    q: Fraction
    m_min: int
    m_max: int
    values: Dict[int, object]
    tail_init_index: int
    residual_max: object
    negative_count: int

    def value(self, m: int):
        if m < self.m_min or m > self.m_max:
            raise DomainError(
                f"exponent {m} outside retained range [{self.m_min}, {self.m_max}]"
            )
        return self.values[m]


def _default_buffer(ctx: PrecisionContext) -> int:
    ln_inv_q = -math.log(float(ctx.q))
    return max(32, math.ceil(2 * ctx.precision_bits * math.log(2) / ln_inv_q)) + 16


def _sweep(K: int, M: int, ctx: PrecisionContext, buffer: int):
    """One streamed upward sweep of g_{m+2} = g_{m+1} + q^{m+1} g_m.

    Seeds g = 0, 1 at exponents lo = -K - buffer - 2 and lo + 1 (so
    g_{lo+2} = 1 exactly) and runs toward the check index 2 m_top on
    integer pairs (man, exp), man of prec bits.  Each step takes
    p_{m+1} = q^(m+1) from ``q_power_run`` and forms
    round(g_{m+1} + round(p_{m+1} g_m)) with the exact integer product
    and sum, each rounded to nearest, ties to even, at the working
    precision, so a pair is equal to another exactly when their values
    are.  Only the window [-K, M] is kept, and the powers on it go into
    the ``q^n`` memo of the precision (see
    :func:`~qhermite2.qkernel.q_power_raw`).  Returns
    (window, (m_top, g_{m_top}), (m_check, g_{m_check})) as pairs: the
    tail normalization index, where 1 - f < 2^-precision, and the check
    index at twice its depth.

    The sweep stops at the first step with g_m == g_{m+1} == g_{m+2} = G,
    and every later value is G: each p_n is the exact q^n rounded once,
    so p_{n+1} <= p_n, rounding being monotone; all g are >= 0, so
    G <= round(G + round(p_{n+1} G)) <= round(G + round(p_n G)) = G, and
    the pair (G, G) repeats with the next power.  So the values the full
    sweep would reach at m_top (when the stop comes first), at 2 m_top
    and in the rest of the window are G, bit for bit.
    """
    prec = ctx.mp.prec
    m_top = max(M + 2, math.ceil(prec * math.log(2) / -math.log(float(ctx.q))) + 4)
    m_check = 2 * m_top
    lo = -K - buffer - 2
    window, powers, g_top = [], [], None
    g0 = g1 = (1 << (prec - 1), 1 - prec)
    for m, (pm, pe) in zip(range(lo + 1, m_check - 1), q_power_run(lo + 2, m_check, ctx)):
        # The step written out on integers, not as _sum(g1, _product(...)):
        # that call made the q = 63/64, 512-bit jackson measure 7-11%
        # slower (faster in 5 of 24 interleaved runs), and 18% slower
        # (3 of 12) once the pair operations had their own module.
        (am, ae), (bm, be) = g0, g1
        tm, shift = _round_even(pm * am, prec)
        te = pe + ae + shift
        gap = be - te
        # An addend below half an ulp of the other leaves it unrounded.
        if gap > prec:
            g2 = g1
        elif gap < -prec:
            g2 = tm, te
        else:
            low = min(be, te)
            cm, shift = _round_even((bm << (be - low)) + (tm << (te - low)), prec)
            g2 = cm, low + shift
        if -K <= m + 2 <= M:
            window.append(g2)
            powers.append((m + 1, pm, pe))
        elif m + 2 == m_top:
            g_top = g2
        if g0 == g1 == g2:
            break
        g0, g1 = g1, g2
    window += [g2] * (K + M + 1 - len(window))
    memo = ctx.tables.setdefault(("q^n", prec), {})
    for n, pm, pe in powers:
        memo.setdefault(n, from_man_exp(pm, pe))
    return window, (m_top, g2 if g_top is None else g_top), (m_check, g2)


def lattice_weight(K: int, M: int, ctx: PrecisionContext) -> LatticeWeight:
    """Weight values f(q^m) for m in [-K, M], tail-normalized to f(0+)=1.

    One stable deep-seeded sweep (``_sweep``) keeps the window [-K, M]
    and the values at two tail indices: m_top, where 1 - f <
    2^-precision and the weight is normalized, and the check index
    2 m_top.  If any retained value, normalized at the check index
    instead, moves by more than series_tol in relative terms the
    evaluation is declared unstable (InstabilityError).  The
    all-positive recursion has no cancellation, so interior residuals
    sit at rounding level.
    """
    if K < 4 or M < 4:
        raise DomainError(f"K and M must be >= 4, got K={K}, M={M}")
    mp = ctx.mp
    window, (m_top, g_top), (m_check, g_check) = _sweep(K, M, ctx, _default_buffer(ctx))
    prec = mp.prec
    values = [_quotient(g, g_top, prec) for g in window]

    tol = _as_pair(ctx.mpf(ctx.series_tol))
    # Equal normalizers move no value: the check can only pass.
    if g_check != g_top:
        for m, g, v in zip(range(-K, M + 1), window, values):
            if not v[0]:
                continue
            other = _quotient(g, g_check, prec)
            moved = _magnitude(_sum(v, (-other[0], other[1]), prec))
            if _less(tol, _quotient(moved, _magnitude(v), prec)):
                raise InstabilityError(
                    f"lattice weight value at m={m} moved by more than "
                    f"series_tol between the tail normalizations at "
                    f"m={m_top} and m={m_check}"
                )

    residual_max = _ZERO
    for m, v0, v1, v2 in zip(range(-K, M - 1), values, values[1:], values[2:]):
        step = _product(q_power_raw(m + 1, ctx)[1:3], v0, prec)
        res = _magnitude(_sum(_sum(v1, (-v2[0], v2[1]), prec), step, prec))
        scale = _larger(_larger(_magnitude(v2), _magnitude(step)), tol)
        residual_max = _larger(residual_max, _quotient(res, scale, prec))
    negative_count = sum(v[0] < 0 for v in values)
    values = {m: _mpf(v, ctx) for m, v in zip(range(-K, M + 1), values)}
    return LatticeWeight(
        q=ctx.q,
        m_min=-K,
        m_max=M,
        values=values,
        tail_init_index=m_top,
        residual_max=_mpf(residual_max, ctx),
        negative_count=negative_count,
    )


@dataclass(frozen=True)
class FormalSeriesPartial:
    """Optimally truncated partial sum of the divergent weight series.

    The power-series solution sum_n q^{-binom(n,2)} (-y)^n / (q;q)_n has
    zero radius of convergence (term ratio ~ -y q^{-n}); the best it can
    do is the asymptotic partial sum up to its smallest term, whose
    magnitude doubles as the error estimate.
    """

    value: object
    optimal_index: int
    error_estimate: object
    diverging: bool


def formal_series_partial(
    y, n_terms: int, ctx: PrecisionContext
) -> FormalSeriesPartial:
    """Partial sums of the formal series with optimal truncation.

    Sums terms while their magnitude decreases; stops at the smallest
    term (index j*), returning sum_{n < j*} with error estimate |T_j*|.
    Diagnostic only; never raises on divergence.
    """
    if n_terms < 1 or n_terms > ctx.max_terms:
        raise DomainError(
            f"n_terms must be in 1..max_terms, got {n_terms}"
        )
    mp = ctx.mp
    yv = ctx.mpf(y)
    if yv < 0:
        raise DomainError(f"lattice variable must be >= 0, got {y}")
    if yv == 0:
        return FormalSeriesPartial(
            value=mp.mpf(1), optimal_index=1, error_estimate=mp.mpf(0),
            diverging=False,
        )
    complements = _q_complements(ctx)
    total = mp.mpf(0)
    term = mp.mpf(1)
    n = 0
    while n < n_terms:
        nxt = term * (-yv) * q_power(-n, ctx) / _q_complement(n, complements, ctx)
        if abs(nxt) >= abs(term):
            break
        total = total + term
        term = nxt
        n += 1
    return FormalSeriesPartial(
        value=total,
        optimal_index=n,
        error_estimate=abs(term),
        diverging=True,
    )


@dataclass(frozen=True)
class MomentResult:
    """Lattice moment vs closed form q^{-n^2} (q;q)_n."""

    n: int
    lattice_value: object
    closed_form: object
    rel_deviation: object


# Default tail index M of the weight behind a hat sum (M >= K + 2).
TAIL_INDEX = 120


def _hat_weight(
    K: int, M: int, ctx: PrecisionContext, weight: Optional[LatticeWeight] = None
) -> LatticeWeight:
    """The weight on [-(K+1), K], the window that a depth-K hat sum of
    f(q^{j-2}) reads: built with tail index M >= K + 2, or a prebuilt
    ``weight`` that covers it.  K >= 3, so the window's lower depth
    K + 1 meets the floor of :func:`lattice_weight`."""
    if K < 3:
        raise DomainError(f"K must be >= 3, got K={K}")
    if M < K + 2:
        raise DomainError(f"tail depth M={M} too small for K={K}")
    if weight is None:
        return lattice_weight(K + 1, M, ctx)
    if weight.m_min > -(K + 1) or weight.m_max < K:
        raise DomainError(
            f"prebuilt weight range [{weight.m_min}, {weight.m_max}] "
            f"does not cover [{-(K + 1)}, {K}]"
        )
    return weight


def moment_In(
    n: int,
    ctx: PrecisionContext,
    K: int = HAT_DEPTH,
    M: int = TAIL_INDEX,
    weight: Optional[LatticeWeight] = None,
) -> MomentResult:
    """n-th weight moment via the hat integral on the lattice.

    Evaluates integral-hat_0^inf x^n f(q^{-2} x) d-hat x by sampling
    the integrand on {q^j} and comparing against the closed form.  A
    prebuilt ``weight`` covering [-(K+1), K] may be passed to amortize
    construction over several moments.
    """
    if n < 0:
        raise DomainError(f"moment order must be >= 0, got {n}")
    weight = _hat_weight(K, M, ctx, weight)

    prec = ctx.mp.prec

    def term(j: int) -> tuple:
        weighted = _product(_raw_pair(q_power_raw(j * n, ctx)), _as_pair(weight.value(j - 2)), prec)
        return _product(_raw_pair(q_power_raw(j, ctx)), weighted, prec)

    value = _mpf(_quotient(_hat_sum(term, K, ctx, "moment_In")[0], _as_pair(ctx.qm), prec), ctx)
    closed = ctx.mpf(moment_In_exact(n, ctx.q))
    rel = abs(value - closed) / abs(closed)
    return MomentResult(
        n=n, lattice_value=value, closed_form=closed, rel_deviation=rel
    )


@dataclass(frozen=True)
class DiscreteMeasure:
    """Point-mass measure on a geometric lattice.

    ``support``/``weights`` are ordered as the growing-abscissa branch
    (exponents 1, 0, -1, ..., 1-K) followed by the shrinking branch
    (exponents 2, 3, ..., K+2); ``exponents`` records the lattice
    exponent of each point and ``branch_split`` the index where the
    shrinking branch starts.  ``constants`` documents every scale
    factor that went into the masses.
    """

    variable: str
    support: Tuple[object, ...]
    weights: Tuple[object, ...]
    exponents: Tuple[int, ...]
    branch_split: int
    constants: Dict[str, str]
    total_mass: object

    def moment(self, n: int, ctx: PrecisionContext):
        """sum_k support_k^n * weight_k by the certified hat sum ``_hat_sum``,
        each term on pairs: the exact power, then the product, each
        rounded once (a negative n too, as one quotient)."""
        prec = ctx.mp.prec
        terms = {
            m: _product(_power(_as_pair(s), n, prec), _as_pair(w), prec)
            for m, s, w in zip(self.exponents, self.support, self.weights)
        }
        total = _hat_sum(terms.__getitem__, self.branch_split - 1, ctx, "DiscreteMeasure.moment")[0]
        return _mpf(total, ctx)


def _ring_normalizers(K: int, ctx: PrecisionContext) -> list:
    """N^2(x_m) for the ring exponents m = K + 2, K + 1, ..., 1 - K, as
    pairs, in that order.

    At x_m = (q/(1-q)) q^m the coherent-state normalizer N^2(x) =
    gex((1-q)/q x) (registry entry ``normalizer_base``) is E_m = E(q^m),
    E = :func:`~qhermite2.qkernel.gen_exponential`, which obeys the
    q-difference equation E(y) = E(qy) + qy E(q^2 y) (G. Gasper and
    M. Rahman, Basic Hypergeometric Series, 2nd ed., 2004, ch. 1):
    E_m = E_{m+1} + q^{m+1} E_{m+2}, with q the rounded ``ctx.qm``
    throughout.  The two deepest rings are seeded by ``gen_exponential``
    at ``q_power(m)``; every other ring is that step on pairs, the
    product of q^{m+1} (``q_power_raw``) and E_{m+2} and then the sum
    each rounded once, two roundings a ring instead of a series.

    Every term is positive, so nothing cancels.  With u = 2^-prec, s
    the larger relative error of the two seeds and e_m that of E_m,
    each rounding adds at most u: e_m <= max(e_{m+1}, e_{m+2} + 2u) + u
    to first order, so the ring j steps above the seeds (j = K + 1 - m)
    is within s + (3j + 3) u / 2 <= s + 2 (j + 1) u of E(q^m) at the
    exact power of ``ctx.qm``.
    """
    prec = ctx.mp.prec
    norms = [_as_pair(gen_exponential(q_power(m, ctx), ctx)) for m in (K + 2, K + 1)]
    for m in range(K, -K, -1):
        step = _product(_raw_pair(q_power_raw(m + 1, ctx)), norms[-2], prec)
        norms.append(_sum(norms[-1], step, prec))
    return norms


def build_measure(
    target: str,
    ctx: PrecisionContext,
    K: int = HAT_DEPTH,
    M: int = TAIL_INDEX,
    weight: Optional[LatticeWeight] = None,
) -> DiscreteMeasure:
    """Point-mass measure solving the moment conditions.

    target="y-variable": masses q^{m-1} f(q^{m-2}) at y = q^m (these
        reproduce I_n; the prefactor is the hat-integral one, see
        registry entry ``measure_prefactor``).
    target="x-variable": change of variable x = (q/(1-q)) y rescales
        support; masses divide by pi so that the n-th moment times
        pi / rho_n! tends to 1.
    target="z-plane-radial": ring masses pi N^2(x_m) nu_m on |z|^2 = x_m,
        absorbing the coherent-state normalizer so that the Fock-basis
        Gram matrix of the resolution of unity is the identity; N^2 at
        the exact ring points comes from :func:`_ring_normalizers`.

    Support points are enumerated by the two-branch index split
    (exponents 1-k and k+2, k = 0..K); the branches are separately
    monotone in abscissa and disjoint.  M must be >= K + 2.
    """
    if target not in MEASURE_TARGETS:
        raise DomainError(
            f"unknown measure target {target!r}; expected one of {MEASURE_TARGETS}"
        )
    mp = ctx.mp
    q = ctx.qm
    weight = _hat_weight(K, M, ctx, weight)
    exponents = [1 - k for k in range(K + 1)] + [k + 2 for k in range(K + 1)]
    branch_split = K + 1

    y_masses = [q_power(m - 1, ctx) * weight.value(m - 2) for m in exponents]

    if target == "y-variable":
        support = [q_power(m, ctx) for m in exponents]
        masses = y_masses
        constants = {
            "mass_formula": "q^(m-1) * f(q^(m-2)) at y = q^m",
            "prefactor": "1/q (hat-integral normalization)",
        }
    else:
        c = q / (1 - q)
        support = [c * q_power(m, ctx) for m in exponents]
        nu = [w / mp.pi for w in y_masses]
        if target == "x-variable":
            masses = nu
            constants = {
                "mass_formula": "q^(m-1) * f(q^(m-2)) / pi at x = (q/(1-q)) q^m",
                "variable_scale": "x = q/(1-q) * y",
                "angular_factor": "1/pi",
            }
        else:
            norms = _ring_normalizers(K, ctx)
            masses = [mp.pi * _mpf(norms[K + 2 - m], ctx) * v for m, v in zip(exponents, nu)]
            constants = {
                "mass_formula": "pi * N^2(x_m) * nu_m on rings |z|^2 = x_m",
                "variable_scale": "|z|^2 = q/(1-q) * y",
                "normalizer": "N^2 from the coherent-state norm",
            }

    total = mp.mpf(0)
    for wv in masses:
        total = total + wv
    return DiscreteMeasure(
        variable=target,
        support=tuple(support),
        weights=tuple(masses),
        exponents=tuple(exponents),
        branch_split=branch_split,
        constants=constants,
        total_mass=total,
    )


@dataclass(frozen=True)
class GramReport:
    """Diagonal Gram entries of the resolution-of-unity check.

    G_nn = (pi/rho_n!) (n-th x-measure moment) = I_n(lattice)/I_n, as
    rho_n! = c^n I_n (c = q/(1-q)); off-diagonal entries vanish by the
    angular symmetry of the ring measure (z^m conj(z)^n integrates to 0
    over a ring for m != n), so they are asserted, never computed.
    """

    n_max: int
    diagonal: Tuple[object, ...]
    max_abs_deviation: object
    off_diagonal: str


def unity_check(
    n_max: int,
    ctx: PrecisionContext,
    K: int = HAT_DEPTH,
    M: int = TAIL_INDEX,
) -> GramReport:
    """Fock-basis Gram diagnostics of the coherent resolution of unity.

    The angular integral collapses the double sum to the diagonal, and
    rho_n! = c^n I_n (c = q/(1-q)) makes G_nn = I_n(lattice)/I_n:
    ``moment_In``'s lattice value over its closed form, on one weight
    (NoConvergenceError on an undecayed lattice).  The report is the
    numeric distance of each diagonal entry from 1.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    weight = _hat_weight(K, M, ctx)
    moments = [moment_In(n, ctx, K=K, M=M, weight=weight) for n in range(n_max + 1)]
    diag = tuple(m.lattice_value / m.closed_form for m in moments)
    return GramReport(
        n_max=n_max,
        diagonal=diag,
        max_abs_deviation=max(abs(g - 1) for g in diag),
        off_diagonal="exact zero by angular symmetry (never computed)",
    )
