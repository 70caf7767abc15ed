"""Finite Fock-basis sections of the deformed oscillator operators.

Builds truncated sections of position X, momentum P, the ladder pair
a-/a+, and the Hamiltonian, together with the exact spectrum table and
an algebraic-identity verifier.  Every section is tridiagonal or a
product of two, so each is stored by its structurally nonzero
diagonals and all operator arithmetic costs O(dim * bandwidth^2); the
results are bitwise those of dense ascending-index sums.

The diagonals hold integer pairs (:mod:`qhermite2._pairs`): complex
pairs for P, whose entries are purely imaginary, and real pairs for X,
a-/a+ and every product or sum whose imaginary part comes out exactly 0.
Each entry is formed by pair operations, each part of each result the
exact value rounded once; real operands go straight to ``_product`` and
``_sum``.  Entries leave as mpc values only at the
boundary: :meth:`TruncatedOperator.entry`, ``row`` and ``apply``.  The exact
diagonals of the identities and the spectrum come from one pass over
the running integer powers of q (:func:`~qhermite2.exact._oscillator_rows`).

Finite sections of infinite Jacobi matrices satisfy the operator
identities exactly only away from the truncation boundary, so every
check runs on the top-left ``valid_block = dim - 1`` block (products of
two tridiagonal operators corrupt exactly the last row/column).
Increasing dim leaves previously valid blocks bitwise unchanged (fixed
summation order, no normalization by dim anywhere).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import islice, repeat
from typing import Dict, Tuple

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
    _plus,
    _product,
    _rational,
    _size,
    _sum,
    _times,
)
from .context import PrecisionContext
from .errors import AlgebraViolation, DomainError
from .exact import _oscillator_rows
from .qkernel import b_table

__all__ = [
    "TruncatedOperator",
    "SpectrumTable",
    "build_position",
    "build_momentum",
    "build_ladder",
    "build_hamiltonian",
    "spectrum",
    "verify_algebra",
    "mat_mul",
    "mat_sub",
    "mat_scale",
    "AlgebraReport",
]

# Default entrywise budget of verify_algebra, in units in the last place
# of each identity's comparison scale.
ULP_BUDGET = 4

# The imaginary unit as a complex pair value.
_I = (_ZERO, _ONE)


@dataclass(frozen=True)
class TruncatedOperator:
    """dim x dim complex section stored by diagonals, with its context.

    ``bands`` maps an offset d to the diagonal (i, i + d) as a tuple
    indexed by min(i, i + d) of real pairs (man, exp) of
    :mod:`qhermite2._pairs`, or complex pairs (re, im) where the
    imaginary part is not exactly 0.  Only structurally nonzero offsets
    are stored; every entry off them is an exact zero.  :meth:`entry`,
    :meth:`row` and :meth:`apply` give mpc values of ``ctx``, and the
    arithmetic runs at its working precision.
    Identity checks look only at the top-left dim - 1 block, the one
    the finite section leaves intact (see :func:`verify_algebra`).
    """

    dim: int
    bands: Dict[int, Tuple[tuple, ...]]
    ctx: PrecisionContext

    def entry(self, i: int, j: int):
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"entry ({i},{j}) outside dim {self.dim}")
        band = self.bands.get(j - i)
        return _mpc(_ZERO if band is None else band[min(i, j)], self.ctx)

    def row(self, i: int):
        """Stored entries (j, value) of row i, in ascending j."""
        for d in sorted(self.bands):
            if 0 <= i + d < self.dim:
                yield i + d, _mpc(self.bands[d][min(i, i + d)], self.ctx)

    def apply(self, vector):
        """Matrix-vector product, each row summed over ascending j; the
        vector's entries are taken as the mpc operator ``*`` takes them."""
        if len(vector) != self.dim:
            raise DomainError(f"vector length {len(vector)} != operator dim {self.dim}")
        ctx, dim, prec = self.ctx, self.dim, self.ctx.mp.prec
        xs = [_operand(x, ctx) for x in vector]
        out = [None] * dim
        for d in sorted(self.bands):  # row i meets xs[i + d], from row max(0, -d) on
            terms = zip(self.bands[d], xs[max(0, d) : dim + min(0, d)])
            _fold(out, max(0, -d), (_times(x, y, prec) for x, y in terms), prec)
        return [_mpc(_ZERO if v is None else v, ctx) for v in out]


@dataclass(frozen=True)
class SpectrumTable:
    """Eigenvalue table [(n, lambda_n)]; strictly increasing in n."""

    levels: Tuple[Tuple[int, object], ...]

    def value(self, n: int):
        return self.levels[n][1]


def _mpc(a: tuple, ctx):
    """The real or complex value a as an mpc of ``ctx``."""
    return _mp(a if type(a[0]) is tuple else (a, _ZERO), ctx)


def _real(a: tuple) -> tuple:
    """a as a real value if its imaginary part is exactly 0."""
    return a[0] if type(a[0]) is tuple and not a[1][0] else a


def _is_real(op: TruncatedOperator) -> bool:
    """Whether every stored entry of op is a real pair."""
    return all(type(v[0]) is int for band in op.bands.values() for v in band)


def _fold(out: list, start: int, terms, prec: int, add=_plus) -> None:
    """Add (``add``) the ``terms`` in order to out[start], out[start + 1],
    ..., an entry still None taking its first term as it is.

    The terms left out of a banded sum are exact zeros, and adding an
    exact zero to a value already rounded at the working precision is a
    no-op under round-to-nearest, so this is bitwise the dense sum.
    """
    for k, term in enumerate(terms, start):
        acc = out[k]
        out[k] = term if acc is None else add(acc, term, prec)


def _difference(a: tuple, b: tuple, prec: int) -> tuple:
    """a - b of real or complex values: ``mpc_sub``."""
    return _plus(a, _negative(b), prec)


def _check_dim(dim: int, minimum: int) -> None:
    if not isinstance(dim, int) or dim < minimum:
        raise DomainError(f"dim must be an integer >= {minimum}, got {dim!r}")


def build_position(dim: int, ctx: PrecisionContext) -> TruncatedOperator:
    """Position operator section: column n gets b_n at row n+1 and
    b_{n-1} at row n-1 (symmetric tridiagonal, zero diagonal)."""
    _check_dim(dim, 2)
    b = tuple(_as_pair(x) for x in b_table(dim - 1, ctx)[: dim - 1])
    return TruncatedOperator(dim, {-1: b, 1: b}, ctx)


def build_momentum(dim: int, ctx: PrecisionContext) -> TruncatedOperator:
    """Momentum operator section: column n gets +i b_n at row n+1 and
    -i b_{n-1} at row n-1 (Hermitian, purely imaginary entries)."""
    _check_dim(dim, 2)
    prec = ctx.mp.prec
    b = [_as_pair(x) for x in b_table(dim - 1, ctx)[: dim - 1]]
    bands = {
        -1: tuple(_times(_I, x, prec) for x in b),
        1: tuple(_times(_negative(_I), x, prec) for x in b),
    }
    return TruncatedOperator(dim, bands, ctx)


def build_ladder(
    dim: int, ctx: PrecisionContext
) -> Tuple[TruncatedOperator, TruncatedOperator]:
    """(lowering, raising) = (a-, a+) with a+- = (1/2) sqrt(q/(1-q)) (X -+ iP).

    Raising carries sqrt(q/(1-q)) b_n on the subdiagonal; lowering is
    its conjugate transpose and annihilates the first basis vector.
    """
    return _ladder(build_position(dim, ctx), build_momentum(dim, ctx), ctx)


def _ladder(X: TruncatedOperator, P: TruncatedOperator, ctx: PrecisionContext):
    """(a-, a+) built literally from the defining combination of X and P.

    On the other diagonal the X and iP contributions cancel exactly
    (b - b = 0, not to rounding), so lowering stores only the
    superdiagonal and raising only the subdiagonal, as real pairs.
    """
    prec = ctx.mp.prec
    half_root = _as_pair(ctx.mp.sqrt(ctx.mpf(ctx.q / (1 - ctx.q))) / 2)
    lowering = tuple(
        _times(half_root, _real(_plus(x, _times(_I, p, prec), prec)), prec)
        for x, p in zip(X.bands[1], P.bands[1])
    )
    raising = tuple(
        _times(half_root, _real(_difference(x, _times(_I, p, prec), prec)), prec)
        for x, p in zip(X.bands[-1], P.bands[-1])
    )
    return (
        TruncatedOperator(X.dim, {1: lowering}, ctx),
        TruncatedOperator(X.dim, {-1: raising}, ctx),
    )


def mat_mul(a: TruncatedOperator, b: TruncatedOperator, ctx: PrecisionContext) -> TruncatedOperator:
    """Product with fixed (i, j, ascending-k) summation order.

    Each band d of the product folds in (``_fold``) the overlap of a's
    band da with b's band d - da, in ascending da (ascending k = i + da),
    in O(dim * bandwidth^2); of real sections, by ``_product`` and ``_sum``.
    """
    if a.dim != b.dim:
        raise DomainError("operator dimensions differ")
    dim, prec = a.dim, ctx.mp.prec
    times, add = (_product, _sum) if _is_real(a) and _is_real(b) else (_times, _plus)
    bands = {}
    for d in sorted({da + db for da in a.bands for db in b.bands}):
        band = [None] * (dim - abs(d))
        for da in sorted(a.bands):
            # rows i with i, k = i + da and j = i + d inside the section
            lo, hi = max(0, -d, -da), dim - max(0, d, da)
            if d - da in b.bands and lo < hi:
                x = a.bands[da][lo + min(0, da) : hi + min(0, da)]
                y = b.bands[d - da][lo + min(da, d) : hi + min(da, d)]
                _fold(band, lo + min(0, d), map(times, x, y, repeat(prec)), prec, add)
        bands[d] = tuple(_ZERO if v is None else _real(v) for v in band)
    return TruncatedOperator(dim, bands, ctx)


def _combine(a: TruncatedOperator, b: TruncatedOperator, op) -> TruncatedOperator:
    """Entrywise ``op(a, b, prec)``, op _plus or _difference, over both offset sets."""
    if a.dim != b.dim:
        raise DomainError("operator dimensions differ")
    prec = a.ctx.mp.prec
    bands = {}
    for d in sorted(set(a.bands) | set(b.bands)):
        absent = (_ZERO,) * (a.dim - abs(d))
        x, y = a.bands.get(d, absent), b.bands.get(d, absent)
        if op is _difference:
            y = map(_negative, y)
        bands[d] = tuple(
            _sum(u, v, prec) if type(u[0]) is int and type(v[0]) is int else _real(_plus(u, v, prec))
            for u, v in zip(x, y)
        )
    return TruncatedOperator(a.dim, bands, a.ctx)


def mat_sub(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    return _combine(a, b, _difference)


def mat_scale(a: TruncatedOperator, s) -> TruncatedOperator:
    """s a, s taken as the mpc operator ``*`` takes it (an mpf scales
    each part: ``mpc_mul_mpf``)."""
    prec = a.ctx.mp.prec
    s = _real(_operand(s, a.ctx))
    bands = {d: tuple(_times(s, x, prec) for x in band) for d, band in a.bands.items()}
    return TruncatedOperator(a.dim, bands, a.ctx)


def build_hamiltonian(dim: int, ctx: PrecisionContext) -> TruncatedOperator:
    """H = a+ a- + a- a+ (diagonal with entries lambda_n on the valid block)."""
    lowering, raising = build_ladder(dim, ctx)
    return _combine(mat_mul(raising, lowering, ctx), mat_mul(lowering, raising, ctx), _plus)


def spectrum(n_max: int, ctx: PrecisionContext) -> SpectrumTable:
    """Eigenvalue table lambda_n = q^{-2n}[n+1]_q + q^{-2(n-1)}[n]_q.

    Each level is computed exactly over rationals, from the running
    sequence of :func:`~qhermite2.exact._oscillator_rows` that the
    Hamiltonian check reads, and rounded as ``ctx.mpf`` rounds it; the
    closed form :func:`~qhermite2.exact.lambda_exact` and the path
    (q/(1-q))(b_{n-1}^2 + b_n^2) are exercised by the test suite.
    Levels are strictly increasing for 0 < q < 1.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    prec = ctx.mp.prec
    levels = []
    prev = None
    for n, (_, _, _, level) in enumerate(islice(_oscillator_rows(ctx.q), n_max + 1)):
        lam = _mpf(_rational(*level, prec), ctx)
        if prev is not None and not lam > prev:
            raise AlgebraViolation(
                f"spectrum not strictly increasing at n={n}: {lam} <= {prev}"
            )
        levels.append((n, lam))
        prev = lam
    return SpectrumTable(levels=tuple(levels))


@dataclass(frozen=True)
class AlgebraReport:
    """Residual summary of the operator-identity checks.

    ``max_residuals`` maps identity name to the largest entrywise
    absolute deviation on the valid block; ``scale`` maps identity name
    to the matrix scale (largest reference entry) used for the ulp
    criterion; ``ulp_bound`` is the allowed multiple of scale * 2^-prec.
    """

    dim: int
    valid_block: int
    max_residuals: Dict[str, object]
    scales: Dict[str, object]
    ulp_bound: int
    passed: bool


def _diag_operator(exact_values, ctx: PrecisionContext) -> TruncatedOperator:
    """Diagonal section of exact rationals (numerator, denominator) in
    lowest terms, each rounded as ``ctx.mpf`` rounds it: floating powers
    of an inexact q would drift by about n/2 ulp at exponent n."""
    prec = ctx.mp.prec
    diag = tuple(_rational(num, den, prec) for num, den in exact_values)
    return TruncatedOperator(len(diag), {0: diag}, ctx)


def _block_max_abs(op: TruncatedOperator, block: int) -> tuple:
    """The largest |entry| in the block, as a pair: ``max`` of ``abs``."""
    prec = op.ctx.mp.prec
    worst = _ZERO
    for d, band in op.bands.items():
        for value in band[: max(0, block - abs(d))]:
            size = _size(value, prec)
            if _less(worst, size):
                worst = size
    return worst


def verify_algebra(dim: int, ctx: PrecisionContext, ulp_bound: int = ULP_BUDGET) -> AlgebraReport:
    """Check the four ladder identities and the Hamiltonian diagonal.

    On the valid block (dim-1):

      1. a- a+              = diag(q^{-2n} [n+1]_q)
      2. a+ a-              = diag(q^{-2(n-1)} [n]_q)
      3. a- a+ - q^-1 a+ a- = diag(q^{-2n})
      4. a- a+ - q^-2 a+ a- = diag(q^{-n})
      5. a+ a- + a- a+      = (1/2)(q/(1-q))(X^2 + P^2), diagonal with
                              entries lambda_n

    Entrywise tolerance is ``ulp_bound`` units in the last place of the
    comparison scale: the largest entry magnitude among all matrices
    entering the identity, operands included.  The commutator identities
    subtract two matrices of size q^{-2n} to produce entries of size
    q^{-n}, so measuring ulp against the reference alone would demand
    accuracy beyond what any finite precision can represent after the
    cancellation; the operand scale is where rounding actually occurs.
    Raises AlgebraViolation with the first offending entry otherwise,
    and DomainError for a ``ulp_bound`` that is not an int >= 0.
    """
    _check_dim(dim, 3)
    if type(ulp_bound) is not int or ulp_bound < 0:
        raise DomainError(f"ulp_bound must be an int >= 0, got {ulp_bound!r}")
    mp = ctx.mp
    prec = mp.prec
    block = dim - 1

    X = build_position(dim, ctx)
    P = build_momentum(dim, ctx)
    lowering, raising = _ladder(X, P, ctx)
    minus_plus = mat_mul(lowering, raising, ctx)
    plus_minus = mat_mul(raising, lowering, ctx)

    h_direct = _combine(plus_minus, minus_plus, _plus)
    h_quadrature = mat_scale(
        _combine(mat_mul(X, X, ctx), mat_mul(P, P, ctx), _plus),
        ctx.mpf(ctx.q / (1 - ctx.q)) / 2,
    )
    scaled_pm1 = mat_scale(plus_minus, ctx.mpf(1 / ctx.q))
    scaled_pm2 = mat_scale(plus_minus, ctx.mpf(ctx.q**-2))
    inverse, inverse_sq, product, level = zip(*islice(_oscillator_rows(ctx.q), dim))
    minus_plus_ref = _diag_operator(product, ctx)
    # a+ a- = diag(q^{-2(n-1)} [n]_q): the a- a+ diagonal shifted by one
    plus_minus_ref = TruncatedOperator(dim, {0: (_ZERO,) + minus_plus_ref.bands[0][:-1]}, ctx)
    # block maxima of the operands, each operator measured once
    minus_plus_max, plus_minus_max, pm1_max, pm2_max, h_max = (
        _block_max_abs(m, block)
        for m in (minus_plus, plus_minus, scaled_pm1, scaled_pm2, h_direct)
    )
    checks = {
        "lowering-raising-product": (minus_plus, minus_plus_ref, minus_plus_max),
        "raising-lowering-product": (plus_minus, plus_minus_ref, plus_minus_max),
        "q-commutator-inverse-q": (
            mat_sub(minus_plus, scaled_pm1),
            _diag_operator(inverse_sq, ctx),
            _larger(minus_plus_max, pm1_max),
        ),
        "q-commutator-inverse-q2": (
            mat_sub(minus_plus, scaled_pm2),
            _diag_operator(inverse, ctx),
            _larger(minus_plus_max, pm2_max),
        ),
        "hamiltonian-quadrature": (h_direct, h_quadrature, h_max),
        "hamiltonian-diagonal": (h_direct, _diag_operator(level, ctx), h_max),
    }

    eps = (1, -ctx.precision_bits)
    max_residuals: Dict[str, object] = {}
    scales: Dict[str, object] = {}
    for name, (lhs, rhs, operand_max) in checks.items():
        scale = reduce(_larger, (_block_max_abs(rhs, block), operand_max, _ONE))
        tol = _product(_product((ulp_bound, 0), scale, prec), eps, prec)
        residual = mat_sub(lhs, rhs)
        worst = _ZERO  # the residual's block maximum, as _block_max_abs finds it
        for d, band in residual.bands.items():
            for value in band[: max(0, block - abs(d))]:
                size = _size(value, prec)
                if _less(worst, size):
                    worst = size
        if _less(tol, worst):  # name the row-major first offender
            i, j, diff = min(
                (k + max(0, -d), k + max(0, d), size)
                for d, band in residual.bands.items()
                for k, size in enumerate(_size(v, prec) for v in band[: max(0, block - abs(d))])
                if _less(tol, size)
            )
            raise AlgebraViolation(
                f"{name}: entry ({i},{j}) residual {mp.nstr(_mpf(diff, ctx), 8)} "
                f"exceeds {ulp_bound} ulp of scale {mp.nstr(_mpf(scale, ctx), 8)} "
                f"at dim={dim}"
            )
        max_residuals[name] = _mpf(worst, ctx)
        scales[name] = _mpf(scale, ctx)
    return AlgebraReport(
        dim=dim,
        valid_block=block,
        max_residuals=max_residuals,
        scales=scales,
        ulp_bound=ulp_bound,
        passed=True,
    )
