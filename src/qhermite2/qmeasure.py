"""Lattice weight function, moments, and resolution-of-unity measures.

The weight f solves the lattice functional equation

    f(q y) - f(q^2 y) = -q y f(y)      (y = q^m, m in Z)

with normalization f(0+) = 1.  Written on lattice values g_m = f(q^m)
this is the three-term recursion g_{m+2} = g_{m+1} + q^{m+1} g_m.  No
solution of it is minimal: its even and odd sublattices both decay, and
the solutions with f(0+) = 1 form a one-parameter family.  The package
takes the member

    f(q^n) = (q; q)_inf / theta_3 sum_{i >= ceil(-n/2)} q^(i^2) / (q; q)_(n+2i),

theta_3 = sum_{i in Z} q^(i^2), whose masses q^(m-1) f(q^(m-2)) at
y = q^m are the law of T L for independent T on {q^j}, with mass
q^j (q^(j+1); q)_inf, and L on {q^(-2k)}, with mass q^(k^2) / theta_3
(Euler's identities and the Jacobi triple product; G. Gasper and
M. Rahman, Basic Hypergeometric Series, 2nd ed., 2004, ch. 1).
``lattice_weight`` evaluates it at the two lowest points of its window
and runs the recursion up from there on enclosures: every term is
positive, so nothing cancels, and each value is the member at the
rounded q, rounded once.

Moments of the weight against the hat integral reproduce
I_n = q^{-n^2} (q; q)_n.  As rho_n! = c^n I_n (c = q/(1-q)), the Gram
diagonal of the coherent resolution of unity is I_n(lattice)/I_n.  All
lattice moments, of the weight or of a point-mass measure, go through
the one certified hat sum ``qcalculus._hat_sum``.  The measures' scale
constants are re-derived from the moment conditions and recorded in
the discrepancy registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Dict, Optional, Tuple

from mpmath.libmp import from_man_exp

from . import _pairs
from ._pairs import (
    _as_pair,
    _exact,
    _less,
    _mpf,
    _power,
    _product,
    _quotient,
    _raw_pair,
    _round_even,
    _sum,
)
from .context import PrecisionContext, _refuse_unit_q
from .errors import DomainError, NoConvergenceError
from .exact import moment_In_exact
from .qcalculus import HAT_DEPTH, _hat_sum
from .qkernel import (
    _q_complement,
    _q_complements,
    gen_exponential,
    q_power,
    q_power_raw,
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
    """Weight values g_m = f(q^m) of :func:`lattice_weight`, keyed by m
    on the exponent range [m_min, m_max]."""

    q: Fraction
    m_min: int
    m_max: int
    values: Dict[int, object]

    def value(self, m: int):
        if m < self.m_min or m > self.m_max:
            raise DomainError(
                f"exponent {m} outside retained range [{self.m_min}, {self.m_max}]"
            )
        return self.values[m]


# An enclosure is a pair (lo, hi) of positive integer pairs, lo <= x <= hi.
# Its operations form each end exactly and cut it to ``width`` bits, the
# low end down and the high end up; a quotient takes the divisor's other end.
def _cut(x: tuple, width: int, up: bool) -> tuple:
    man, exp = x
    shift = man.bit_length() - width
    if shift <= 0:
        return x
    return (-(-man >> shift) if up else man >> shift), exp + shift


def _mul(a: tuple, b: tuple, width: int) -> tuple:
    (al, ah), (bl, bh) = a, b
    return _cut((al[0] * bl[0], al[1] + bl[1]), width, 0), _cut((ah[0] * bh[0], ah[1] + bh[1]), width, 1)


def _add(a: tuple, b: tuple, width: int) -> tuple:
    return _cut(_exact(a[0], b[0]), width, 0), _cut(_exact(a[1], b[1]), width, 1)


def _div(a: tuple, b: tuple, width: int) -> tuple:
    out = []
    for (am, ae), (bm, be), up in ((a[0], b[1], 0), (a[1], b[0], 1)):
        shift = width + 1 + bm.bit_length() - am.bit_length()
        quot = -(-(am << shift) // bm) if up else (am << shift) // bm
        out.append(_cut((quot, ae - be - shift), width, up))
    return tuple(out)


def _series(terms, width: int) -> tuple:
    """The sum of a positive series whose ratio t_(k+1)/t_k decreases, from
    its terms' enclosures, up to the first term at most half the one before
    and 2^-width of the sum: the rest is at most twice that term."""
    total = prev = None
    for term in terms:
        tm, te = term[1]
        if prev and _less((tm, te + 1), prev[0]) and _less((tm, te + width), total[0]):
            return total[0], _cut(_exact(total[1], (tm, te + 1)), width, 1)
        total = _add(total, term, width) if total else term
        prev = term


def _enclosures(K: int, M: int, ctx: PrecisionContext, width: int) -> list:
    """Enclosures of f(q^n), n in [-K, M], at ``width`` bits, q the exact
    ``ctx.qm``.  The two seeds n = -K, 1 - K are the closed form (module
    docstring), with (q; q)_inf = 1/D, D = sum_k q^(k^2) / (q; q)_k^2
    (Durfee's identity), each sum a positive series on the tables
    q^(k^2) and 1/(q; q)_k; then g_(n+2) = g_(n+1) + q^(n+1) g_n runs up
    the window.  Every quantity is positive and every operation monotone,
    so each end stays on its side."""
    man, exp = _as_pair(ctx.qm)
    q, q2 = ((man, exp),) * 2, ((man * man, 2 * exp),) * 2
    squares, odds, recips, powers = [((1, 0),) * 2], [q], [((1, 0),) * 2], [q]

    def square(k: int) -> tuple:  # q^(k^2); odds[k] = q^(2k+1)
        while len(squares) <= k:
            squares.append(_mul(squares[-1], odds[-1], width))
            odds.append(_mul(odds[-1], q2, width))
        return squares[k]

    def recip(k: int) -> tuple:  # 1/(q; q)_k; powers[k] = q^(k+1)
        while len(recips) <= k:
            (lm, le), (hm, he) = powers[-1]
            complement = _cut(((1 << -he) - hm, he), width, 0), _cut(((1 << -le) - lm, le), width, 1)
            recips.append(_div(recips[-1], complement, width))
            powers.append(_mul(powers[-1], q, width))
        return recips[k]

    # theta_3 as the terms q^(k^2) + q^((k+1)^2), k >= 0, whose ratio falls.
    theta = _series((_add(square(k), square(k + 1), width) for k in count()), width)
    durfee = _series((_mul(square(k), _mul(recip(k), recip(k), width), width) for k in count()), width)
    norm = _mul(theta, durfee, width)
    window = [
        _div(_series((_mul(square(i), recip(n + 2 * i), width) for i in count(-(n // 2))), width), norm, width)
        for n in (-K, 1 - K)
    ]
    pm, pe = _power((man, exp), 1 - K, width)  # within half a unit of 2^pe
    power = (pm - 1, pe), (pm + 1, pe)
    for _ in range(K + M - 1):
        window.append(_add(window[-1], _mul(power, window[-2], width), width))
        power = _mul(power, q, width)
    return window


def _decided(ends: tuple, prec: int):
    """The pair both ends of an enclosure round to at prec bits, to
    nearest, ties to even, or None if they round apart."""
    (lm, ls), (hm, hs) = _round_even(ends[0][0], prec), _round_even(ends[1][0], prec)
    lo, hi = from_man_exp(lm, ends[0][1] + ls), from_man_exp(hm, ends[1][1] + hs)
    return _raw_pair(lo) if lo == hi else None


def lattice_weight(K: int, M: int, ctx: PrecisionContext) -> LatticeWeight:
    """Weight values f(q^m) for m in [-K, M]: the theta_3 member of the
    family with f(0+) = 1 (module docstring) at the exact ``ctx.qm``,
    each rounded once to the working precision, to nearest, ties to even,
    so no value depends on K or M.  Both ends of a value's enclosure at
    prec + 64 bits (:func:`_enclosures`) round to it (Ziv's test); if one
    value is not decided, every enclosure is formed again at 2 prec + 64
    bits (NoConvergenceError if still not).  DomainError for a q that
    rounds to 1.
    """
    if K < 4 or M < 4:
        raise DomainError(f"K and M must be >= 4, got K={K}, M={M}")
    _refuse_unit_q(ctx)
    prec = ctx.mp.prec
    for guard in (_pairs._GUARD, prec + _pairs._GUARD):
        values = [_decided(ends, prec) for ends in _enclosures(K, M, ctx, prec + guard)]
        if None not in values:
            break
    else:
        raise NoConvergenceError(f"lattice weight on [{-K}, {M}] not decided at {prec + guard} bits")
    return LatticeWeight(ctx.q, -K, M, {m: _mpf(v, ctx) for m, v in zip(range(-K, M + 1), values)})


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


def _hat_weight(
    K: int, ctx: PrecisionContext, weight: Optional[LatticeWeight] = None
) -> LatticeWeight:
    """The weight on [-(K+1), K], the window that a depth-K hat sum of
    f(q^{j-2}) reads: ``lattice_weight(K + 1, K + 2)``, or a prebuilt
    ``weight`` that covers it.  K >= 3, so the window's lower depth
    K + 1 meets the floor of :func:`lattice_weight`."""
    if K < 3:
        raise DomainError(f"K must be >= 3, got K={K}")
    if weight is None:
        return lattice_weight(K + 1, K + 2, ctx)
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
    weight = _hat_weight(K, ctx, weight)

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
    monotone in abscissa and disjoint.
    """
    if target not in MEASURE_TARGETS:
        raise DomainError(
            f"unknown measure target {target!r}; expected one of {MEASURE_TARGETS}"
        )
    mp = ctx.mp
    q = ctx.qm
    weight = _hat_weight(K, ctx, weight)
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
    weight = _hat_weight(K, ctx)
    moments = [moment_In(n, ctx, K=K, weight=weight) for n in range(n_max + 1)]
    diag = tuple(m.lattice_value / m.closed_form for m in moments)
    return GramReport(
        n_max=n_max,
        diagonal=diag,
        max_abs_deviation=max(abs(g - 1) for g in diag),
        off_diagonal="exact zero by angular symmetry (never computed)",
    )
