"""Truncated ladder operators, commutation identities, spectrum."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qhermite2 import PrecisionContext
from qhermite2.errors import AlgebraViolation, DomainError
from qhermite2.exact import bn_squared_exact, lambda_exact
from qhermite2.qkernel import b_coeff
from qhermite2.qoscillator import (
    build_hamiltonian,
    build_ladder,
    build_momentum,
    build_position,
    mat_mul,
    spectrum,
    verify_algebra,
)


class TestOperatorConstruction:
    def test_position_is_symmetric_tridiagonal(self, ctx_half):
        X = build_position(8, ctx_half)
        for i in range(8):
            for j in range(8):
                assert X.entry(i, j) == X.entry(j, i)
                if abs(i - j) > 1:
                    assert X.entry(i, j) == 0
        assert abs(X.entry(0, 1) - b_coeff(0, ctx_half)) == 0

    def test_momentum_is_antisymmetric_imaginary(self, ctx_half):
        P = build_momentum(8, ctx_half)
        for i in range(8):
            for j in range(8):
                assert P.entry(i, j) == -P.entry(j, i)
                assert P.entry(i, j).real == 0

    def test_lowering_annihilates_ground_state(self, all_ctx):
        for ctx in all_ctx:
            lowering, raising = build_ladder(6, ctx)
            for i in range(6):
                assert lowering.entry(i, 0) == 0
            # structural zeros away from the single working diagonal
            for i in range(6):
                for j in range(6):
                    if j != i + 1:
                        assert lowering.entry(i, j) == 0
                    if j != i - 1:
                        assert raising.entry(i, j) == 0

    def test_dimension_validation(self, ctx_half):
        with pytest.raises(DomainError):
            build_position(1, ctx_half)
        with pytest.raises(DomainError):
            verify_algebra(2, ctx_half)


class TestAlgebraIdentities:
    @pytest.mark.parametrize("dim", [4, 8, 16, 32])
    def test_all_identities_within_ulp_budget(self, all_ctx, dim):
        for ctx in all_ctx:
            report = verify_algebra(dim, ctx)
            assert report.passed
            assert report.valid_block == dim - 1
            assert set(report.max_residuals) == {
                "lowering-raising-product",
                "raising-lowering-product",
                "q-commutator-inverse-q",
                "q-commutator-inverse-q2",
                "hamiltonian-quadrature",
                "hamiltonian-diagonal",
            }
            for name, worst in report.max_residuals.items():
                bound = report.ulp_bound * report.scales[name] * ctx.eps
                assert worst <= bound, name

    @pytest.mark.parametrize("dim", [3, 16, 32])
    @pytest.mark.parametrize("q", [Fraction(9, 10), Fraction(99, 100), Fraction(23, 24)], ids=str)
    def test_passes_near_q_one(self, q, dim):
        # The quadrature prefactor q/(1-q) is rounded once from the exact
        # rational; forming it from the rounded q broke the 4-ulp budget.
        assert verify_algebra(dim, PrecisionContext(q=q, precision_bits=256)).passed

    def test_hamiltonian_diagonal_matches_exact_levels(self, ctx_half):
        dim = 10
        H = build_hamiltonian(dim, ctx_half)
        for n in range(dim - 1):
            lam = ctx_half.mpf(lambda_exact(n, ctx_half.q))
            scale = max(abs(lam), ctx_half.mpf(1))
            assert abs(H.entry(n, n) - lam) <= 64 * ctx_half.eps * scale


class TestSpectrum:
    def test_reference_levels_at_half(self, ctx_half):
        table = spectrum(3, ctx_half)
        got = [float(v) for _, v in table.levels]
        assert got == [1.0, 7.0, 34.0, 148.0]

    def test_strictly_increasing(self, all_ctx):
        for ctx in all_ctx:
            table = spectrum(12, ctx)
            values = [v for _, v in table.levels]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_matches_two_path_closed_form(self, all_ctx):
        for ctx in all_ctx:
            q = ctx.q
            for n, v in spectrum(8, ctx).levels:
                two_path = (q / (1 - q)) * (
                    bn_squared_exact(n - 1, q) + bn_squared_exact(n, q)
                )
                assert lambda_exact(n, q) == two_path
                assert v == ctx.mpf(lambda_exact(n, q))


# Dense references: the full-matrix loops the banded layer must match
# bitwise, entry by entry, including the exact zeros off its bands.


def _dense(op):
    return [[op.entry(i, j) for j in range(op.dim)] for i in range(op.dim)]


def _dense_ladder(X, P, ctx):
    """(a-, a+) entrywise from the literal combination of dense X, P."""
    mp = ctx.mp
    half_root = mp.sqrt(ctx.mpf(ctx.q / (1 - ctx.q))) / 2
    i = mp.mpc(0, 1)
    x, p = _dense(X), _dense(P)
    n = X.dim
    lowering = [[half_root * (x[r][c] + i * p[r][c]) for c in range(n)] for r in range(n)]
    raising = [[half_root * (x[r][c] - i * p[r][c]) for c in range(n)] for r in range(n)]
    return lowering, raising


def _dense_mul(a, b):
    """Dense product, each entry summed over ascending k from k = 0."""
    n = len(a)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = a[i][0] * b[0][j]
            for k in range(1, n):
                acc = acc + a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def _dense_apply(a, vector):
    out = []
    for row in a:
        acc = row[0] * vector[0]
        for j in range(1, len(row)):
            acc = acc + row[j] * vector[j]
        out.append(acc)
    return out


def _assert_matches_dense(op, ref):
    for i in range(op.dim):
        for j in range(op.dim):
            assert op.entry(i, j) == ref[i][j], (i, j)
            if j - i not in op.bands:
                assert ref[i][j] == 0, (i, j)


def _assert_banded_layer_is_dense(dim, ctx, seed=0):
    X = build_position(dim, ctx)
    P = build_momentum(dim, ctx)
    lowering, raising = build_ladder(dim, ctx)
    dense_lo, dense_ra = _dense_ladder(X, P, ctx)
    _assert_matches_dense(lowering, dense_lo)
    _assert_matches_dense(raising, dense_ra)
    _assert_matches_dense(mat_mul(lowering, raising, ctx), _dense_mul(dense_lo, dense_ra))
    _assert_matches_dense(mat_mul(raising, lowering, ctx), _dense_mul(dense_ra, dense_lo))
    _assert_matches_dense(mat_mul(X, X, ctx), _dense_mul(_dense(X), _dense(X)))
    _assert_matches_dense(mat_mul(P, P, ctx), _dense_mul(_dense(P), _dense(P)))
    rnd = random.Random(seed)
    vector = [ctx.mp.mpc(rnd.uniform(-1, 1), rnd.uniform(-1, 1)) for _ in range(dim)]
    for op in (lowering, raising, X, P):
        assert op.apply(vector) == _dense_apply(_dense(op), vector)


class TestBandedLayer:
    @pytest.mark.parametrize("bits", [64, 256])
    @pytest.mark.parametrize("dim", [3, 4, 17])
    @pytest.mark.parametrize("q", [Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)], ids=str)
    def test_products_and_apply_match_dense_bitwise(self, q, dim, bits):
        _assert_banded_layer_is_dense(dim, PrecisionContext(q=q, precision_bits=bits))

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        q=st.fractions(Fraction(1, 1000), Fraction(999, 1000), max_denominator=1000),
        dim=st.integers(min_value=3, max_value=12),
        bits=st.integers(min_value=64, max_value=512),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_matches_dense_bitwise(self, q, dim, bits, seed):
        _assert_banded_layer_is_dense(dim, PrecisionContext(q=q, precision_bits=bits), seed)

    def test_growing_dim_leaves_valid_block_unchanged(self, all_ctx):
        def products(dim, ctx):
            X = build_position(dim, ctx)
            P = build_momentum(dim, ctx)
            lowering, raising = build_ladder(dim, ctx)
            return (
                mat_mul(lowering, raising, ctx),
                mat_mul(raising, lowering, ctx),
                mat_mul(X, X, ctx),
                mat_mul(P, P, ctx),
                build_hamiltonian(dim, ctx),
            )

        for ctx in all_ctx:
            for small, large in zip(products(8, ctx), products(40, ctx)):
                block = small.dim - 1
                for i in range(block):
                    for j in range(block):
                        assert small.entry(i, j) == large.entry(i, j), (ctx.q, i, j)

    @pytest.mark.parametrize(
        "q, dim, message",
        [
            (
                Fraction(1, 2),
                8,
                "lowering-raising-product: entry (1,1) residual 6.9089348e-77 "
                "exceeds 0 ulp of scale 8128.0 at dim=8",
            ),
            (
                Fraction(4, 5),
                5,
                "lowering-raising-product: entry (2,2) residual 6.9089348e-77 "
                "exceeds 0 ulp of scale 11.260986 at dim=5",
            ),
        ],
        ids=str,
    )
    def test_violation_message_names_first_offending_entry(self, q, dim, message):
        ctx = PrecisionContext(q=q, precision_bits=256)
        with pytest.raises(AlgebraViolation) as excinfo:
            verify_algebra(dim, ctx, ulp_bound=0)
        assert str(excinfo.value) == message

    def test_entry_outside_dim_raises(self, ctx_half):
        X = build_position(4, ctx_half)
        with pytest.raises(IndexError):
            X.entry(4, 3)
        with pytest.raises(IndexError):
            X.entry(-1, 0)
