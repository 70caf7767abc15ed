"""Extremal atomic measure: coefficients, carrier roots, loadings, Gram."""

from __future__ import annotations

from fractions import Fraction

import pytest

from qhermite2 import PrecisionContext
from qhermite2.errors import DomainError
from qhermite2.exact import extremal_bracket_exact
from qhermite2.extremal import (
    _kernel_mass,
    alpha_coeff,
    beta_coeff,
    bracket_double_factorial,
    bracket_factorial,
    carrier_function,
    carrier_roots,
    first_kind_eval,
    loadings,
    orthonormality_gram,
    second_kind_eval,
)
from qhermite2.qhermite import psi_eval
from qhermite2.qkernel import b_coeff


POSITIVE_ROOTS_HALF = (
    "0.8790392111498304256062",
    "5.19714951138730836842",
    "22.18176973082489005385",
)
SIGMA0_HALF = ("0.495672045568788", "0.00432776161116062", "1.92820011215785e-7")


class TestBracketFactorials:
    def test_factorial_ladder(self, ctx_half):
        q = ctx_half.q
        assert bracket_factorial(0, q) == 1
        acc = Fraction(1)
        for s in range(1, 7):
            acc *= extremal_bracket_exact(s, q)
            assert bracket_factorial(s, q) == acc

    def test_double_factorial_parity_split(self, ctx_half):
        q = ctx_half.q
        assert bracket_double_factorial(-1, q) == 1
        assert bracket_double_factorial(0, q) == 1
        # [6]!! = [6][4][2], [5]!! = [5][3][1]
        assert bracket_double_factorial(6, q) == (
            extremal_bracket_exact(6, q)
            * extremal_bracket_exact(4, q)
            * extremal_bracket_exact(2, q)
        )
        assert bracket_double_factorial(5, q) == (
            extremal_bracket_exact(5, q)
            * extremal_bracket_exact(3, q)
            * extremal_bracket_exact(1, q)
        )

    def test_carrier_coefficient_ratio_decreasing(self, ctx_half):
        q = ctx_half.q
        ratios = [
            bracket_double_factorial(2 * k - 2, q)
            / bracket_double_factorial(2 * k - 1, q)
            for k in range(1, 31)
        ]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_domain_validation(self, ctx_half):
        with pytest.raises(DomainError):
            bracket_factorial(-1, ctx_half.q)
        with pytest.raises(DomainError):
            bracket_double_factorial(-2, ctx_half.q)


class TestClosedFormCoefficients:
    def test_alpha_reference_values(self, ctx_half):
        assert alpha_coeff(1, 2, ctx_half) == 1
        assert alpha_coeff(1, 3, ctx_half) == 7
        assert alpha_coeff(1, 4, ctx_half) == 35
        assert alpha_coeff(2, 4, ctx_half) == 28

    def test_alpha_conventions(self, ctx_half):
        assert alpha_coeff(0, 9, ctx_half) == 1
        assert alpha_coeff(2, 2, ctx_half) == 0

    def test_beta_reference_values(self, ctx_half):
        assert beta_coeff(0, 7, ctx_half) == 1
        assert beta_coeff(1, 2, ctx_half) == 6
        assert beta_coeff(1, 4, ctx_half) == 154
        assert beta_coeff(2, 4, ctx_half) == 720

    def test_domain_validation(self, ctx_half):
        with pytest.raises(DomainError):
            alpha_coeff(-1, 4, ctx_half)
        with pytest.raises(DomainError):
            beta_coeff(-1, 4, ctx_half)


class TestPolynomialFamilies:
    def test_first_kind_matches_orthonormal_at_scaled_argument(self, all_ctx):
        for ctx in all_ctx:
            b0 = b_coeff(0, ctx)
            for n in range(7):
                for x in (Fraction(1, 2), Fraction(1), Fraction(7, 3)):
                    lhs = first_kind_eval(n, x, ctx)
                    rhs = psi_eval(n, b0 * ctx.mpf(x), ctx)
                    scale = max(abs(rhs), ctx.mpf(1))
                    assert abs(lhs - rhs) <= ctx.mpf("1e-50") * scale

    def test_first_kind_is_plain_orthonormal_at_binary_q(self, ctx_half):
        assert b_coeff(0, ctx_half) == 1
        for n in range(7):
            lhs = first_kind_eval(n, Fraction(3, 2), ctx_half)
            rhs = psi_eval(n, Fraction(3, 2), ctx_half)
            assert abs(lhs - rhs) <= ctx_half.mpf("1e-50")

    def test_second_kind_seeds_and_consistency(self, all_ctx):
        for ctx in all_ctx:
            assert second_kind_eval(0, Fraction(2), ctx) == 0
            assert second_kind_eval(1, Fraction(2), ctx) == 1
            # internal closed-form cross-check must stay silent
            for n in range(2, 11):
                second_kind_eval(n, Fraction(5, 4), ctx)

    def test_degree_validation(self, ctx_half):
        with pytest.raises(DomainError):
            first_kind_eval(-1, Fraction(1), ctx_half)
        with pytest.raises(DomainError):
            second_kind_eval(-1, Fraction(1), ctx_half)


class TestCarrierFunction:
    def test_value_one_at_origin(self, all_ctx):
        for ctx in all_ctx:
            assert carrier_function(0, None, ctx) == 1

    def test_even(self, ctx_half):
        for x in (Fraction(1, 3), Fraction(2), Fraction(11)):
            plus = carrier_function(x, None, ctx_half)
            minus = carrier_function(-x, None, ctx_half)
            assert abs(plus - minus) <= ctx_half.mpf("1e-70")

    def test_k_terms_validation(self, ctx_half):
        with pytest.raises(DomainError):
            carrier_function(Fraction(1), 0, ctx_half)


class TestCarrierRoots:
    def test_reference_roots(self, extremal_points_half, ctx_half):
        points = extremal_points_half
        assert len(points) == 6
        xs = [p.x for p in points]
        assert all(a < b for a, b in zip(xs, xs[1:]))
        positives = xs[3:]
        for got, frozen in zip(positives, POSITIVE_ROOTS_HALF):
            assert abs(got - ctx_half.mpf(frozen)) < ctx_half.mpf("1e-18")
        for p, m in zip(points[:3], reversed(positives)):
            assert p.x == -m

    def test_residuals_and_brackets_tight(self, extremal_points_half, ctx_half):
        for p in extremal_points_half:
            assert p.carrier_residual < ctx_half.mpf("1e-55")
            assert p.bracket_width < ctx_half.mpf("1e-60")

    def test_stable_under_truncation_doubling(self, ctx_half):
        shallow = carrier_roots(Fraction(6), ctx_half, k_terms=20)
        deep = carrier_roots(Fraction(6), ctx_half, k_terms=40)
        assert len(shallow) == len(deep) == 4
        for a, b in zip(shallow, deep):
            assert abs(a.x - b.x) < ctx_half.mpf("1e-10")

    @pytest.mark.parametrize("bits", (64, 128, 192, 256))
    def test_root_certificates_across_precision(self, bits):
        ctx = PrecisionContext(q=Fraction(1, 2), precision_bits=bits)
        tol_root = ctx.mp.mpf(10) ** (-(bits // 4))
        points = carrier_roots(Fraction(6), ctx)
        assert len(points) == 4
        for p, m in zip(points[:2], reversed(points[2:])):
            assert p.x == -m.x
        match = max(ctx.mpf("1e-18"), 10 * tol_root)
        for p, frozen in zip(points[2:], POSITIVE_ROOTS_HALF):
            assert abs(p.x - ctx.mpf(frozen)) <= match
        for p in points:
            assert p.bracket_width <= tol_root
            if bits >= 128:
                half = p.bracket_width / 2
                lo = carrier_function(p.x - half, None, ctx)
                hi = carrier_function(p.x + half, None, ctx)
                assert lo * hi < 0

    def test_parameter_validation(self, ctx_half):
        with pytest.raises(DomainError):
            carrier_roots(Fraction(-1), ctx_half)
        with pytest.raises(DomainError):
            carrier_roots(Fraction(6), ctx_half, grid_points=8)


class TestLoadings:
    def test_reference_masses(self, extremal_points_half, ctx_half):
        positives = extremal_points_half[3:]
        for p, frozen in zip(positives, SIGMA0_HALF):
            want = ctx_half.mpf(frozen)
            assert abs(p.sigma0 - want) / want < ctx_half.mpf("1e-12")

    def test_even_in_x(self, extremal_points_half, ctx_half):
        for neg, pos in zip(extremal_points_half[:3], reversed(extremal_points_half[3:])):
            rel = abs(neg.sigma0 - pos.sigma0) / pos.sigma0
            assert rel < ctx_half.mpf("1e-25")

    def test_total_mass_near_one(self, extremal_points_half, ctx_half):
        total = sum(p.sigma0 for p in extremal_points_half)
        assert abs(total - 1) < ctx_half.mpf("1e-12")

    def test_kernel_mass_term_budget_follows_context(self):
        # Needs 699 terms at x = 2; a fixed 600-term budget used to fail here.
        ctx = PrecisionContext(q=Fraction(9, 10), precision_bits=128)
        mass, terms = _kernel_mass(2, ctx)
        assert terms > 600
        assert 0 < mass < 1

    def test_matches_reproducing_kernel_mass(self, extremal_points_half, ctx_half):
        for p in extremal_points_half:
            rel = abs(p.sigma0 - p.kernel_mass) / p.kernel_mass
            assert rel < ctx_half.mpf("1e-10")


class TestGram:
    def test_identity_within_tolerance(self, extremal_points_half, ctx_half):
        gram, worst = orthonormality_gram(extremal_points_half, 3, ctx_half)
        assert worst < ctx_half.mpf("1e-3")
        for m in range(4):
            for n in range(4):
                assert abs(gram[m][n] - gram[n][m]) < ctx_half.mpf("1e-20")

    def test_requires_loadings(self, ctx_half):
        bare = carrier_roots(Fraction(6), ctx_half)
        with pytest.raises(DomainError):
            orthonormality_gram(bare, 2, ctx_half)

    def test_n_max_validation(self, extremal_points_half, ctx_half):
        with pytest.raises(DomainError):
            orthonormality_gram(extremal_points_half, -1, ctx_half)
