"""Coherent states: normalizer, ratio law, eigen-residual, overlaps."""

from __future__ import annotations

from fractions import Fraction

import pytest

from qhermite2.coherent import (
    cs_closed_form_report,
    cs_coeffs,
    cs_eigen_residual,
    cs_norm_sq,
    overlap,
)
from qhermite2.errors import DomainError, TruncationError
from qhermite2.qkernel import b_coeff


NORM_SQ_ORACLES = [
    (Fraction(1, 4), Fraction(1, 2), "1.260509866479123024396096"),
    (Fraction(1, 16), Fraction(3, 10), "1.062770531189395903751024"),
    (Fraction(9, 4), Fraction(4, 5), "5.8820030468347505781907"),
]


class TestNormalizer:
    def test_reference_values(self, ctx_by_q):
        for t, q, want in NORM_SQ_ORACLES:
            ctx = ctx_by_q[q]
            got = cs_norm_sq(t, ctx)
            digits = len(want.replace(".", ""))
            assert ctx.mp.nstr(got, digits) == want

    def test_at_origin_and_monotone(self, all_ctx):
        for ctx in all_ctx:
            assert cs_norm_sq(0, ctx) == 1
            values = [cs_norm_sq(Fraction(k, 4), ctx) for k in range(8)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_negative_rejected(self, ctx_half):
        with pytest.raises(DomainError):
            cs_norm_sq(-1, ctx_half)


class TestCoefficients:
    def test_ratio_law(self, all_ctx):
        # The eigenvector condition forces
        # c_{n+1} sqrt(q/(1-q)) b_n = z c_n entry by entry.
        for ctx in all_ctx:
            z = ctx.mpc(complex(0.7, -0.4))
            state = cs_coeffs(z, 40, ctx)
            root = ctx.mp.sqrt(ctx.mpf(ctx.q / (1 - ctx.q)))
            for n in range(12):
                lhs = state.coeffs[n + 1] * root * b_coeff(n, ctx)
                rhs = z * state.coeffs[n]
                assert abs(lhs - rhs) <= 16 * ctx.eps * abs(rhs)

    def test_unit_norm_within_tail_bound(self, all_ctx):
        for ctx in all_ctx:
            state = cs_coeffs(ctx.mpc(complex(1.5, 0.5)), 60, ctx)
            mass = sum(abs(c) ** 2 for c in state.coeffs)
            assert mass <= 1 + 8 * ctx.eps
            assert mass >= 1 - state.tail_bound - 8 * ctx.eps

    def test_truncation_certificate_raises_when_unreachable(self, ctx_half):
        with pytest.raises(TruncationError):
            cs_coeffs(ctx_half.mpc(50), 4, ctx_half)

    def test_trunc_validation(self, ctx_half):
        with pytest.raises(DomainError):
            cs_coeffs(ctx_half.mpc(1), 0, ctx_half)


class TestEigenResidual:
    def test_residual_below_bound_across_grid(self, all_ctx):
        for ctx in all_ctx:
            for zc in (complex(0.5, 0), complex(0, 2), complex(1.2, -1.1)):
                rep = cs_eigen_residual(ctx.mpc(zc), 60, ctx)
                assert rep.residual <= rep.bound
                assert rep.bound < ctx.mpf("1e-30")

    def test_matrix_method_consistent_down_to_noise_floor(self, ctx_half):
        z = ctx_half.mpc(complex(0.9, 0.3))
        analytic = cs_eigen_residual(z, 30, ctx_half, method="analytic")
        literal = cs_eigen_residual(z, 30, ctx_half, method="matrix")
        assert literal.residual <= max(
            4 * analytic.residual, 8 * literal.noise_floor
        )

    def test_method_validation(self, ctx_half):
        with pytest.raises(DomainError):
            cs_eigen_residual(ctx_half.mpc(1), 60, ctx_half, method="exact")
        with pytest.raises(DomainError):
            cs_eigen_residual(ctx_half.mpc(1), 2, ctx_half)


class TestOverlap:
    def test_diagonal_recovers_normalizer(self, all_ctx):
        for ctx in all_ctx:
            z = ctx.mpc(complex(0.8, 0.6))
            k = overlap(z, z, ctx)
            n2 = cs_norm_sq(abs(z) ** 2, ctx)
            assert abs(k - n2) <= 16 * ctx.eps * abs(n2)

    def test_conjugate_symmetry(self, ctx_half):
        z1 = ctx_half.mpc(complex(0.3, 0.9))
        z2 = ctx_half.mpc(complex(-0.5, 0.2))
        k12 = overlap(z1, z2, ctx_half)
        k21 = overlap(z2, z1, ctx_half)
        assert abs(k12 - ctx_half.mp.conj(k21)) <= 16 * ctx_half.eps * abs(k12)


class TestClosedFormReport:
    def test_report_surfaces_both_readings(self, ctx_half):
        rep = cs_closed_form_report(
            ctx_half.mpc(complex(0.4, 0.1)), Fraction(1, 2), ctx_half, trunc=60
        )
        assert rep.normalizer_sq != rep.normalizer_sq_alt_reading
        assert rep.matched_hypothesis is not None
        assert rep.rel_residual >= 0


def test_truncation_default_is_declared_once():
    # The report's default and the ``cs --trunc`` default are both
    # coherent.CS_TRUNC, which the ``cs`` config echoes as 60.
    import inspect

    from qhermite2 import cli, coherent

    assert coherent.CS_TRUNC == 60
    trunc = inspect.signature(cs_closed_form_report).parameters["trunc"]
    assert trunc.default == coherent.CS_TRUNC
    assert cli.CS_TRUNC is coherent.CS_TRUNC
    assert cli._build_parser().parse_args(["cs"]).trunc == coherent.CS_TRUNC
