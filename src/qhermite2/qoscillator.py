"""Finite Fock-basis sections of the deformed oscillator operators.

Builds truncated sections of position X, momentum P, the ladder pair
a-/a+, and the Hamiltonian, together with the exact spectrum table and
an algebraic-identity verifier.  Every section is tridiagonal or a
product of two, so each is stored by its structurally nonzero
diagonals and all operator arithmetic costs O(dim * bandwidth^2); the
results are bitwise those of dense ascending-index sums.

Finite sections of infinite Jacobi matrices satisfy the operator
identities exactly only away from the truncation boundary, so every
check runs on the top-left ``valid_block = dim - 1`` block (products of
two tridiagonal operators corrupt exactly the last row/column).
Increasing dim leaves previously valid blocks bitwise unchanged (fixed
summation order, no normalization by dim anywhere).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Tuple

from .context import PrecisionContext
from .errors import AlgebraViolation, DomainError
from .exact import lambda_exact, qbracket
from .qkernel import b_coeff

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


@dataclass(frozen=True)
class TruncatedOperator:
    """dim x dim section over mpc stored by diagonals, with truncation metadata.

    ``bands`` maps an offset d to the diagonal (i, i + d) as a tuple
    indexed by min(i, i + d).  Only structurally nonzero offsets are
    stored; every entry off them is the exact mpc ``zero``.
    Identity checks look only at the top-left dim - 1 block, the one
    the finite section leaves intact (see :func:`verify_algebra`).
    """

    dim: int
    bands: Dict[int, Tuple[object, ...]]
    zero: object

    def entry(self, i: int, j: int):
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"entry ({i},{j}) outside dim {self.dim}")
        band = self.bands.get(j - i)
        return self.zero if band is None else band[min(i, j)]

    def row(self, i: int):
        """Stored entries (j, value) of row i, in ascending j."""
        for d in sorted(self.bands):
            if 0 <= i + d < self.dim:
                yield i + d, self.bands[d][min(i, i + d)]

    def apply(self, vector):
        """Matrix-vector product, each row summed over ascending j."""
        if len(vector) != self.dim:
            raise DomainError(
                f"vector length {len(vector)} != operator dim {self.dim}"
            )
        return [
            _ascending_sum((x * vector[j] for j, x in self.row(i)), self.zero)
            for i in range(self.dim)
        ]


@dataclass(frozen=True)
class SpectrumTable:
    """Eigenvalue table [(n, lambda_n)]; strictly increasing in n."""

    levels: Tuple[Tuple[int, object], ...]

    def value(self, n: int):
        return self.levels[n][1]


def _ascending_sum(terms, zero):
    """Sum ``terms`` in order, starting from the first; ``zero`` if none.

    The terms left out of a banded sum are exact zeros, and adding an
    exact zero to a value already rounded at the working precision is a
    no-op under round-to-nearest, so this is bitwise the dense sum.
    """
    acc = None
    for term in terms:
        acc = term if acc is None else acc + term
    return zero if acc is None else acc


def _check_dim(dim: int, minimum: int) -> None:
    if not isinstance(dim, int) or dim < minimum:
        raise DomainError(f"dim must be an integer >= {minimum}, got {dim!r}")


def build_position(dim: int, ctx: PrecisionContext) -> TruncatedOperator:
    """Position operator section: column n gets b_n at row n+1 and
    b_{n-1} at row n-1 (symmetric tridiagonal, zero diagonal)."""
    _check_dim(dim, 2)
    mp = ctx.mp
    b = tuple(mp.mpc(b_coeff(n, ctx)) for n in range(dim - 1))
    return TruncatedOperator(dim, {-1: b, 1: b}, mp.mpc(0))


def build_momentum(dim: int, ctx: PrecisionContext) -> TruncatedOperator:
    """Momentum operator section: column n gets +i b_n at row n+1 and
    -i b_{n-1} at row n-1 (Hermitian, purely imaginary entries)."""
    _check_dim(dim, 2)
    mp = ctx.mp
    b = [b_coeff(n, ctx) for n in range(dim - 1)]
    bands = {
        -1: tuple(mp.mpc(0, 1) * x for x in b),
        1: tuple(mp.mpc(0, -1) * x for x in b),
    }
    return TruncatedOperator(dim, bands, mp.mpc(0))


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
    superdiagonal and raising only the subdiagonal.
    """
    mp = ctx.mp
    half_root = mp.sqrt(ctx.mpf(ctx.q / (1 - ctx.q))) / 2
    i = mp.mpc(0, 1)
    lowering = tuple(half_root * (x + i * p) for x, p in zip(X.bands[1], P.bands[1]))
    raising = tuple(half_root * (x - i * p) for x, p in zip(X.bands[-1], P.bands[-1]))
    return (
        TruncatedOperator(X.dim, {1: lowering}, X.zero),
        TruncatedOperator(X.dim, {-1: raising}, X.zero),
    )


def mat_mul(a: TruncatedOperator, b: TruncatedOperator, ctx: PrecisionContext) -> TruncatedOperator:
    """Product with fixed (i, j, ascending-k) summation order.

    Each entry sums only the terms whose factors are both stored (see
    ``_ascending_sum``), in O(dim * bandwidth^2).
    """
    if a.dim != b.dim:
        raise DomainError("operator dimensions differ")
    dim = a.dim
    bands = {
        d: tuple(
            _ascending_sum(
                (x * b.entry(k, i + d) for k, x in a.row(i) if i + d - k in b.bands),
                a.zero,
            )
            for i in range(max(0, -d), dim - max(0, d))
        )
        for d in sorted({da + db for da in a.bands for db in b.bands})
    }
    return TruncatedOperator(dim, bands, a.zero)


def _combine(a: TruncatedOperator, b: TruncatedOperator, op) -> TruncatedOperator:
    """Entrywise ``op(a, b)`` over the union of the stored offsets."""
    if a.dim != b.dim:
        raise DomainError("operator dimensions differ")
    bands = {}
    for d in sorted(set(a.bands) | set(b.bands)):
        absent = (a.zero,) * (a.dim - abs(d))
        bands[d] = tuple(map(op, a.bands.get(d, absent), b.bands.get(d, absent)))
    return TruncatedOperator(a.dim, bands, a.zero)


def mat_sub(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    return _combine(a, b, operator.sub)


def mat_scale(a: TruncatedOperator, s) -> TruncatedOperator:
    bands = {d: tuple(s * x for x in band) for d, band in a.bands.items()}
    return TruncatedOperator(a.dim, bands, a.zero)


def build_hamiltonian(dim: int, ctx: PrecisionContext) -> TruncatedOperator:
    """H = a+ a- + a- a+ (diagonal with entries lambda_n on the valid block)."""
    lowering, raising = build_ladder(dim, ctx)
    return _combine(
        mat_mul(raising, lowering, ctx),
        mat_mul(lowering, raising, ctx),
        operator.add,
    )


def spectrum(n_max: int, ctx: PrecisionContext) -> SpectrumTable:
    """Eigenvalue table lambda_n = q^{-2n}[n+1]_q + q^{-2(n-1)}[n]_q.

    Each level is computed exactly over rationals and rounded once;
    the equivalent path (q/(1-q))(b_{n-1}^2 + b_n^2) is exercised by
    the test suite.  Levels are strictly increasing for 0 < q < 1.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    levels = []
    prev = None
    for n in range(n_max + 1):
        lam = ctx.mpf(lambda_exact(n, ctx.q))
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
    """Diagonal section of exact rationals, each rounded once: floating
    powers of an inexact q would drift by about n/2 ulp at exponent n."""
    mp = ctx.mp
    diag = tuple(mp.mpc(ctx.mpf(v)) for v in exact_values)
    return TruncatedOperator(len(diag), {0: diag}, mp.mpc(0))


def _block_entries(op: TruncatedOperator, block: int):
    """Stored entries (i, j, value) inside the block, in row-major order;
    every other block entry is an exact zero."""
    for i in range(block):
        for j, value in op.row(i):
            if j < block:
                yield i, j, value


def _block_max_abs(op: TruncatedOperator, block: int):
    return max((abs(v) for _, _, v in _block_entries(op, block)), default=abs(op.zero))


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
    Raises AlgebraViolation with the first offending entry otherwise.
    """
    _check_dim(dim, 3)
    mp = ctx.mp
    block = dim - 1

    X = build_position(dim, ctx)
    P = build_momentum(dim, ctx)
    lowering, raising = _ladder(X, P, ctx)
    minus_plus = mat_mul(lowering, raising, ctx)
    plus_minus = mat_mul(raising, lowering, ctx)

    h_direct = _combine(plus_minus, minus_plus, operator.add)
    h_quadrature = mat_scale(
        _combine(mat_mul(X, X, ctx), mat_mul(P, P, ctx), operator.add),
        ctx.mpf(ctx.q / (1 - ctx.q)) / 2,
    )
    qx, ns = ctx.q, range(dim)
    scaled_pm1 = mat_scale(plus_minus, ctx.mpf(1 / ctx.q))
    scaled_pm2 = mat_scale(plus_minus, ctx.mpf(ctx.q**-2))
    checks = {
        "lowering-raising-product": (
            minus_plus,
            _diag_operator((qx ** (-2 * n) * qbracket(n + 1, qx) for n in ns), ctx),
            (minus_plus,),
        ),
        "raising-lowering-product": (
            plus_minus,
            _diag_operator((qx ** (2 - 2 * n) * qbracket(n, qx) for n in ns), ctx),
            (plus_minus,),
        ),
        "q-commutator-inverse-q": (
            mat_sub(minus_plus, scaled_pm1),
            _diag_operator((qx ** (-2 * n) for n in ns), ctx),
            (minus_plus, scaled_pm1),
        ),
        "q-commutator-inverse-q2": (
            mat_sub(minus_plus, scaled_pm2),
            _diag_operator((qx ** (-n) for n in ns), ctx),
            (minus_plus, scaled_pm2),
        ),
        "hamiltonian-quadrature": (h_direct, h_quadrature, (h_direct,)),
        "hamiltonian-diagonal": (
            h_direct,
            _diag_operator((lambda_exact(n, qx) for n in ns), ctx),
            (h_direct,),
        ),
    }

    eps = mp.mpf(2) ** (-ctx.precision_bits)
    max_residuals: Dict[str, object] = {}
    scales: Dict[str, object] = {}
    for name, (lhs, rhs, operands) in checks.items():
        scale = max(
            _block_max_abs(rhs, block),
            max(_block_max_abs(m, block) for m in operands),
            mp.mpf(1),
        )
        tol = ulp_bound * scale * eps
        worst = mp.mpf(0)
        for i, j, value in _block_entries(mat_sub(lhs, rhs), block):
            diff = abs(value)
            if diff > tol:
                raise AlgebraViolation(
                    f"{name}: entry ({i},{j}) residual {mp.nstr(diff, 8)} "
                    f"exceeds {ulp_bound} ulp of scale {mp.nstr(scale, 8)} "
                    f"at dim={dim}"
                )
            worst = max(worst, diff)
        max_residuals[name] = worst
        scales[name] = scale
    return AlgebraReport(
        dim=dim,
        valid_block=block,
        max_residuals=max_residuals,
        scales=scales,
        ulp_bound=ulp_bound,
        passed=True,
    )
