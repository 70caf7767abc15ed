"""Barut-Girardello coherent states for the deformed ladder algebra.

The canonical representation of |z> is the truncated coefficient vector

    c_n = N^{-1}(|z|^2) z^n / sqrt(rho_n!),    n = 0..trunc,

built by the ratio law c_{n+1} = c_n z / (sqrt(q/(1-q)) b_n).  The
``cs`` command gates |z> by the eigen-residual of this vector; no closed
form of |z> is evaluated.

Eigen-residual evaluation: for the ratio-law vector the components of
a^- v - z v vanish identically for n < trunc (the ratio law is exactly
the eigenvector condition entry by entry), leaving the single boundary
component -z c_trunc.  The default evaluation therefore returns
|z| |c_trunc| in cancellation-free form.  A literal matrix-apply path
is kept for diagnostics; it cannot see below the rounding floor
~2^-precision of the working arithmetic, which sits many orders of
magnitude above the true boundary residual at useful truncations (see
discrepancy registry entry ``eigen_residual_rounding_floor``).

The coefficients, their tail certificate and the eigen-residual's
scalars run on integer pairs (:mod:`qhermite2._pairs`), each step
correctly rounded (see :func:`cs_coeffs`); the normalizer's argument
and the matrix diagnostic still use mpf/mpc operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ._pairs import (
    _ONE, _ZERO, _as_pair, _complex_product, _hypot, _less, _mp, _mpf,
    _negative, _operand, _over, _power, _product, _quotient, _raw_pair, _root, _sum,
)
from .context import PrecisionContext, _refuse_unit_q
from .errors import DomainError, TruncationError
from .qkernel import b_coeff, b_table, gen_exponential, q_power_raw
from .qoscillator import build_ladder

__all__ = [
    "CoherentStateVector",
    "cs_norm_sq",
    "cs_coeffs",
    "EigenResidual",
    "cs_eigen_residual",
]

# Default truncation index of the coherent vector for the ``cs`` command.
CS_TRUNC = 60


def cs_norm_sq(t, ctx: PrecisionContext):
    """Squared normalizer N^2(t) = sum_n ((1-q)/q * t)^n q^{n^2} / (q;q)_n.

    Equals gen_exponential((1-q)/q * t); always >= 1 for t >= 0 and
    entire in t.  Summed directly in ascending order.
    """
    tv = ctx.mpf(t)
    if tv < 0:
        raise DomainError(f"cs_norm_sq needs t >= 0, got {t}")
    q = ctx.qm
    return gen_exponential((1 - q) / q * tv, ctx)


@dataclass(frozen=True)
class CoherentStateVector:
    """Truncated Fock-basis coefficients of |z> with tail metadata.

    ``tail_bound`` bounds the missing probability mass
    sum_{n > trunc} |c_n|^2, so sum_{n <= trunc} |c_n|^2 lies in
    [1 - tail_bound, 1].
    """

    z: object
    trunc: int
    coeffs: Tuple[object, ...]
    tail_bound: object
    norm_sq: object


def cs_coeffs(z, trunc: int, ctx: PrecisionContext) -> CoherentStateVector:
    """Normalized coherent-state coefficients up to ``trunc``.

    Raises TruncationError when the geometric tail certificate cannot
    push the missing mass below series_tol (choose a larger trunc),
    ValueError for a z that is not finite, and DomainError for a q that
    rounds to 1.

    Each step on integer pairs is the exact result rounded once, each
    part: |z| (``_hypot``, the root of the exact |z|^2), |z|^2, 1 - q,
    q/(1-q) and the roots; c_n z (``_complex_product``) and its division
    by the real sqrt(q/(1-q)) b_n (``_over``), |z|^(2 trunc + 2)
    (``_power``) and q^n (``q_power_raw``).  The b_n are one
    read of ``b_table``; q/(1-q) and its root are formed once.
    """
    if trunc < 1:
        raise DomainError(f"trunc must be >= 1, got {trunc}")
    _refuse_unit_q(ctx)
    prec = ctx.mp.prec
    zv = ctx.mpc(z)
    zp = _operand(zv, ctx)
    size = _hypot(zp, prec)
    zabs2 = _product(size, size, prec)
    norm_sq = cs_norm_sq(_mpf(zabs2, ctx), ctx)
    q = _as_pair(ctx.qm)
    one_less_q = _sum(_ONE, _negative(q), prec)
    ratio = _quotient(q, one_less_q, prec)
    root_c = _root(ratio, prec)
    bs = [_as_pair(b) for b in b_table(trunc + 1, ctx)[: trunc + 1]]

    c = (_quotient(_ONE, _root(_as_pair(norm_sq), prec), prec), _ZERO)  # 1/N + mpc(0)
    coeffs = [c]
    for b in bs[:trunc]:
        c = _over(_complex_product(c, zp, prec), _product(root_c, b, prec), prec)
        coeffs.append(c)

    # Geometric tail certificate on t_n = |z|^{2n} / rho_n!:
    # t_{n+1}/t_n = |z|^2 (1-q) q^{2n} / (1 - q^{n+1}), decreasing in n.
    t = _power(zabs2, trunc + 1, prec)
    for b in bs:
        t = _quotient(t, _product(ratio, _product(b, b, prec), prec), prec)
    r = _product(zabs2, one_less_q, prec)
    r = _product(r, _raw_pair(q_power_raw(2 * trunc + 2, ctx)), prec)
    r = _quotient(r, _sum(_ONE, _negative(_raw_pair(q_power_raw(trunc + 2, ctx))), prec), prec)
    if not _less(r, _ONE):
        raise TruncationError(
            f"tail ratio {ctx.mp.nstr(_mpf(r, ctx), 6)} >= 1 at trunc={trunc}; "
            "increase trunc for this |z|"
        )
    raw_tail = _quotient(t, _sum(_ONE, _negative(r), prec), prec)
    tail_bound = _mpf(_quotient(raw_tail, _as_pair(norm_sq), prec), ctx)
    if tail_bound >= ctx.mpf(ctx.series_tol):
        raise TruncationError(
            f"tail bound {ctx.mp.nstr(tail_bound, 6)} exceeds series_tol at "
            f"trunc={trunc}; increase trunc"
        )
    return CoherentStateVector(
        z=zv,
        trunc=trunc,
        coeffs=tuple(_mp(c, ctx) for c in coeffs),
        tail_bound=tail_bound,
        norm_sq=norm_sq,
    )


@dataclass(frozen=True)
class EigenResidual:
    """Result of the lowering-eigenvector check.

    ``residual`` is ||a^- v - z v|| for the truncated state;
    ``bound`` is the computable truncation bound
    |c_trunc| sqrt(q/(1-q)) b_{trunc-1} + tail_bound |z|;
    ``noise_floor`` estimates the smallest residual the literal
    matrix-apply evaluation could resolve at this precision;
    ``state`` is the coherent vector checked, with its ``norm_sq`` and
    ``tail_bound``.
    """

    z: object
    trunc: int
    method: str
    residual: object
    bound: object
    noise_floor: object
    state: CoherentStateVector


def cs_eigen_residual(
    z, trunc: int, ctx: PrecisionContext, method: str = "analytic"
) -> EigenResidual:
    """||a^- v - z v|| for the truncated coherent vector v.

    method="analytic" (default): the components below the boundary
    cancel identically by the ratio law, so the norm is |z| |c_trunc|,
    evaluated without subtractions.  method="matrix": literal
    matrix-vector arithmetic with the (trunc+1)-dimensional lowering
    section; useful as a structural cross-check, accurate only down to
    the rounding floor.
    """
    if trunc < 4:
        raise DomainError(f"trunc must be >= 4, got {trunc}")
    mp = ctx.mp
    prec = mp.prec
    state = cs_coeffs(z, trunc, ctx)
    zv = state.z
    # On pairs, each step correctly rounded (cs_coeffs).
    q = _as_pair(ctx.qm)
    root_c = _root(_quotient(q, _sum(_ONE, _negative(q), prec), prec), prec)
    size = _hypot(_operand(zv, ctx), prec)
    c_last = _hypot(_operand(state.coeffs[trunc], ctx), prec)
    step = _product(_product(c_last, root_c, prec), _as_pair(b_coeff(trunc - 1, ctx)), prec)
    bound = _mpf(_sum(step, _product(_as_pair(state.tail_bound), size, prec), prec), ctx)
    noise_floor = _product(_as_pair(ctx.eps), _sum(_ONE, size, prec), prec)
    noise_floor = _mpf(_product(noise_floor, _root((trunc + 1, 0), prec), prec), ctx)

    if method == "analytic":
        residual = _mpf(_product(size, c_last, prec), ctx)
    elif method == "matrix":
        lowering, _ = build_ladder(trunc + 1, ctx)
        image = lowering.apply(list(state.coeffs))
        acc = mp.mpf(0)
        for n in range(trunc + 1):
            diff = image[n] - zv * state.coeffs[n]
            acc = acc + abs(diff) ** 2
        residual = mp.sqrt(acc)
    else:
        raise DomainError(f"unknown method {method!r}")
    return EigenResidual(
        z=zv,
        trunc=trunc,
        method=method,
        residual=residual,
        bound=bound,
        noise_floor=noise_floor,
        state=state,
    )
