"""Polynomial family: monic coefficients, orthonormal values, diagnostics."""

from __future__ import annotations

from fractions import Fraction

import pytest
from mpmath import inf, mpc, mpf, nan

from qhermite2 import PrecisionContext, qhermite, suites
from qhermite2.errors import DomainError
from qhermite2.exact import GaussianRational, Poly, bn_squared_exact, qfactorial_exact
from qhermite2.qhermite import (
    WEIGHT_HYPOTHESES,
    _closed_form_tau_coeffs,
    _two_phi_zero,
    generating_fn_report,
    hermite2_coeffs,
    hermite2_eval_direct,
    psi_eval,
    psi_sequence,
    qdiff_equation_check,
)
from qhermite2.qkernel import b_coeff

X_GRID = [
    Fraction(0),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
]


class TestMonicFamily:
    def test_low_degrees(self, ctx_half):
        assert hermite2_coeffs(0, ctx_half) == Poly.one()
        assert hermite2_coeffs(1, ctx_half) == Poly.x()
        # htilde_2 = x^2 - q^{-1}(1 - q) at qm = q^{-1} scaling of the
        # classical family; fixed by the three-term recurrence below.
        p2 = hermite2_coeffs(2, ctx_half)
        assert p2.degree == 2
        assert p2.coefficient(2) == GaussianRational.ONE

    def test_monic_and_parity(self, all_ctx):
        for ctx in all_ctx:
            for n in range(9):
                p = hermite2_coeffs(n, ctx)
                assert p.degree == n
                assert p.coefficient(n) == GaussianRational.ONE
                for k in range(n):
                    if (n - k) % 2 == 1:
                        assert p.coefficient(k).is_zero()

    def test_three_term_recurrence_exact(self, all_ctx):
        for ctx in all_ctx:
            q = ctx.q
            for n in range(1, 10):
                lhs = Poly.x() * hermite2_coeffs(n, ctx)
                rhs = hermite2_coeffs(n + 1, ctx) + hermite2_coeffs(
                    n - 1, ctx
                ).scale(q ** (-(2 * n - 1)) * (1 - q**n))
                assert lhs == rhs

    def test_named_value_example(self, ctx_half):
        p = hermite2_coeffs(2, ctx_half)
        assert p(Fraction(1)).is_zero()

    def test_negative_degree_rejected(self, ctx_half):
        with pytest.raises(DomainError):
            hermite2_coeffs(-1, ctx_half)


class TestCrossRepresentation:
    def test_direct_matches_coefficients(self, all_ctx):
        for ctx in all_ctx:
            tol = ctx.mpf("1e-25")
            for n in range(0, 16, 3):
                poly = hermite2_coeffs(n, ctx)
                for x in X_GRID:
                    xv = ctx.mpf(x)
                    direct = hermite2_eval_direct(n, xv, ctx)
                    via = poly.mp_evaluator(ctx)(xv)
                    scale = max(abs(via), ctx.mpf(1))
                    assert abs(direct - via) / scale < tol

    @pytest.mark.parametrize("q", ["1/64", "3/10", "1/2", "4/5", "99/100"])
    def test_two_phi_zero_expansion_is_the_recurrence_polynomial(self, q):
        ctx = PrecisionContext(Fraction(q), 64)
        for n in range(17):
            assert _two_phi_zero(n, ctx) == hermite2_coeffs(n, ctx), n

    def test_expansion_with_one_coefficient_changed_fails_its_row(self, monkeypatch):
        # Far below the floating gate: only the exact comparison sees it.
        def changed(n, ctx):
            poly = _two_phi_zero(n, ctx)
            if n != 7:
                return poly
            coeffs = list(poly.coeffs)
            coeffs[1] = coeffs[1] + Fraction(1, 2**400)
            return Poly(coeffs)

        monkeypatch.setattr(suites, "_two_phi_zero", changed)
        checks = suites.recurrence(PrecisionContext(Fraction(1, 3), 128))
        assert [c.passed for c in checks] == [n != 7 for n in range(13)]

    def test_changed_recurrence_coefficient_fails_the_rows_it_reaches(self, monkeypatch):
        # b_3^2 enters htilde_5 and every later htilde_n.
        def changed(m, q):
            value = bn_squared_exact(m, q)
            return value * (1 + Fraction(1, 2**400)) if m == 3 else value

        monkeypatch.setattr(qhermite, "bn_squared_exact", changed)
        checks = suites.recurrence(PrecisionContext(Fraction(1, 3), 128))
        assert [c.passed for c in checks] == [n < 5 for n in range(13)]

    def test_recurrence_rounds_at_the_working_precision_only(self):
        ctx = PrecisionContext(Fraction(1, 3), 256)
        suites.recurrence(ctx)
        assert {key[1] for key in ctx.tables if isinstance(key, tuple)} <= {ctx.mp.prec}
        assert sorted(ctx.tables["2phi0"]) == list(range(13))

    @pytest.mark.parametrize(
        "x",
        [mpf(inf), mpf(-inf), mpf(nan), mpc(1, inf), mpc(nan, 0), float("inf"), complex(0, float("nan"))],
        ids=str,
    )
    def test_non_finite_x_is_refused(self, x):
        ctx = PrecisionContext(Fraction(1, 3), 128)
        for n in (0, 5):
            with pytest.raises(DomainError, match="cannot interpret"):
                hermite2_eval_direct(n, x, ctx)
        assert ctx.tables == {}


class TestOrthonormalValues:
    def test_base_cases(self, ctx_half):
        assert psi_eval(0, ctx_half.mpf(7), ctx_half) == 1
        got = psi_eval(1, ctx_half.mpf(2), ctx_half)
        assert abs(got - 2) <= 8 * ctx_half.eps

    def test_normalized_recurrence(self, all_ctx):
        for ctx in all_ctx:
            x = ctx.mpf(Fraction(3, 4))
            psis = psi_sequence(12, x, ctx)
            for n in range(1, 11):
                resid = (
                    x * psis[n]
                    - b_coeff(n, ctx) * psis[n + 1]
                    - b_coeff(n - 1, ctx) * psis[n - 1]
                )
                scale = max(abs(x * psis[n]), ctx.mpf(1))
                assert abs(resid) <= 64 * ctx.eps * scale

    def test_sequence_consistent_with_single(self, ctx_q3):
        x = ctx_q3.mpf(Fraction(-5, 4))
        seq = psi_sequence(8, x, ctx_q3)
        for n in (0, 3, 8):
            assert seq[n] == psi_eval(n, x, ctx_q3)


class TestGeneratingFunction:
    def test_resolved_weight_matches(self, ctx_half):
        rep = generating_fn_report(Fraction(1, 2), 10, ctx_half)
        assert rep.matched_hypothesis == "divided-with-qpower-squared"
        for r in rep.residuals["divided-with-qpower-squared"]:
            assert r.is_zero()

    def test_as_printed_fails_first_order_by_one_minus_q(self, all_ctx):
        for ctx in all_ctx:
            rep = generating_fn_report(Fraction(1, 3), 4, ctx)
            assert not rep.residuals["as-printed"][1].is_zero()
            assert rep.ratios["as-printed"][1] == 1 - ctx.q

    def test_single_qpower_fails_second_order(self, ctx_half):
        rep = generating_fn_report(Fraction(1, 3), 4, ctx_half)
        assert rep.residuals["divided-with-qpower"][1].is_zero()
        assert not rep.residuals["divided-with-qpower"][2].is_zero()

    def test_hypothesis_menu_stable(self):
        assert WEIGHT_HYPOTHESES == (
            "as-printed",
            "divided-by-qpochhammer",
            "divided-with-qpower",
            "divided-with-qpower-squared",
        )


def _ps_mul(a, b, L):
    out = [GaussianRational.ZERO] * L
    for i, ai in enumerate(a):
        if ai.is_zero() or i >= L:
            continue
        for j, bj in enumerate(b):
            if i + j >= L:
                break
            out[i + j] = out[i + j] + ai * bj
    return out


def _reference_tau_coeffs(x, q, order):
    """The tau-series expansion by truncated series products: each
    1/(1 - i tau q^k) as an L-term geometric series multiplied through."""
    L = order + 1
    I = GaussianRational.I
    one = GaussianRational.ONE
    euler = [
        ((-I) ** m) * (q ** (m * (m - 1) // 2) / qfactorial_exact(m, q))
        for m in range(L)
    ]
    total = [GaussianRational.ZERO] * L
    running = [GaussianRational.ZERO] * L
    running[0] = one
    ix = I * x
    poch_ix = one
    ik = one
    for k in range(L):
        ck = poch_ix * (q ** (k * (k - 1) // 2) / qfactorial_exact(k, q))
        scaled = [ck * ik * c for c in running]
        for m in range(L - k):
            total[m + k] = total[m + k] + scaled[m]
        if k + 1 < L:
            base = I * (q**k)
            geo = [one]
            for _ in range(L - 1):
                geo.append(geo[-1] * base)
            running = _ps_mul(running, geo, L)
            poch_ix = poch_ix * (one - ix * (q**k))
            ik = ik * I
    return _ps_mul(euler, total, L)


TAU_Q = [Fraction(1, 64), Fraction(3, 10), Fraction(1, 2), Fraction(37, 64),
         Fraction(4, 5), Fraction(99, 100), Fraction(63, 64)]
TAU_X = [Fraction(0), Fraction(1, 2), Fraction(-7, 8), Fraction(2), Fraction(-5), Fraction(7)]


class TestTauSeries:
    """The one-pass expansion equals the series-product one exactly."""

    @pytest.mark.parametrize("q", TAU_Q, ids=str)
    def test_matches_series_products(self, q):
        for x in TAU_X:
            for order in (0, 1, 2, 6, 12):
                got = _closed_form_tau_coeffs(x, q, order)
                assert got == _reference_tau_coeffs(x, q, order), (x, order)

    @pytest.mark.parametrize(
        "q, x", [(Fraction(3, 10), Fraction(-7, 8)), (Fraction(63, 64), Fraction(7))], ids=str
    )
    def test_matches_series_products_at_order_20(self, q, x):
        assert _closed_form_tau_coeffs(x, q, 20) == _reference_tau_coeffs(x, q, 20)


class TestDifferenceEquation:
    def test_degree_zero_residual_is_exactly_zero(self, all_ctx):
        for ctx in all_ctx:
            assert qdiff_equation_check(0, ctx).is_zero()

    def test_degree_one_residual_exact_form(self, all_ctx):
        for ctx in all_ctx:
            one_minus_q = 1 - ctx.q
            expected = Poly(
                (
                    GaussianRational(Fraction(0), one_minus_q),
                    GaussianRational.ZERO,
                    GaussianRational.I,
                    GaussianRational(one_minus_q),
                )
            )
            assert qdiff_equation_check(1, ctx) == expected

    def test_higher_degrees_remain_nonzero(self, ctx_half):
        for n in (2, 3, 4):
            assert not qdiff_equation_check(n, ctx_half).is_zero()
