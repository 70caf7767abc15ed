"""Extremal atomic measure: coefficients, carrier roots, loadings, Gram."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qhermite2

from qhermite2 import PrecisionContext
from qhermite2.errors import DomainError
from qhermite2.exact import extremal_bracket_exact
from qhermite2.cli import main
from qhermite2.extremal import (
    _carrier_coefficients,
    _carrier_value,
    _kernel_mass,
    _root_free_radius,
    _scan_grid,
    alpha_coeff,
    beta_coeff,
    bracket_double_factorial,
    bracket_factorial,
    carrier_roots,
    first_kind_eval,
    loadings,
    orthonormality_gram,
    second_kind_eval,
)
from qhermite2.qhermite import psi_eval, psi_sequence
from qhermite2.qkernel import b_coeff, b_table


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
            assert _carrier_value(0, ctx, None)[0] == 1

    def test_even(self, ctx_half):
        for x in (Fraction(1, 3), Fraction(2), Fraction(11)):
            plus = _carrier_value(x, ctx_half, None)[0]
            minus = _carrier_value(-x, ctx_half, None)[0]
            assert abs(plus - minus) <= ctx_half.mpf("1e-70")

    def test_k_terms_validation(self, ctx_half):
        # A cap below one term used to sum nothing: D read 1 everywhere
        # and the search returned no roots.
        for k_terms in (0, -1):
            with pytest.raises(DomainError, match="k_terms"):
                carrier_roots(Fraction(30), ctx_half, k_terms=k_terms)

    def test_call_inside_workprec_leaves_context_values(self):
        # Tables rounded inside workprec are kept under that precision,
        # so they never stand in for the context precision's own.
        def values(ctx):
            return (
                [v._mpf_ for v in b_table(8, ctx)],
                [v._mpf_ for v in _carrier_coefficients(8, ctx)],
                [v._mpf_ for v in psi_sequence(10, Fraction(7, 3), ctx)],
                _carrier_value(Fraction(7, 3), ctx, None)[0]._mpf_,
            )

        ctx = PrecisionContext(Fraction(1, 3), 128)
        with ctx.mp.workprec(300):
            _carrier_value(Fraction(5, 2), ctx, None)[0]
        assert values(ctx) == values(PrecisionContext(Fraction(1, 3), 128))


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
                lo = _carrier_value(p.x - half, ctx, None)[0]
                hi = _carrier_value(p.x + half, ctx, None)[0]
                assert lo * hi < 0

    def test_bracket_stops_at_one_ulp_above_tolerance(self):
        # At q = 1/64 and 64 bits one ulp at the root 32767.94 (3.6e-15)
        # exceeds tol_root = 1e-16, so the bracket cannot reach tol_root;
        # the search used to loop forever.  A child process with a
        # timeout turns a regression into a failure instead of a hang.
        script = (
            "from fractions import Fraction\n"
            "from qhermite2 import PrecisionContext\n"
            "from qhermite2.extremal import carrier_roots\n"
            "ctx = PrecisionContext(q=Fraction(1, 64), precision_bits=64)\n"
            "for p in carrier_roots(Fraction(100000), ctx):\n"
            "    print(ctx.nstr(p.x, 12), p.bracket_width * 2 ** 52 / abs(p.x))\n"
        )
        src = str(Path(qhermite2.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()]
        assert [x for x, _ in rows] == [
            "-32767.9373789", "-2.81696932637", "2.81696932637", "32767.9373789"
        ]
        # one ulp at 64 bits: 2^-63 relative, below 2^-52 by 2^11
        assert all(0 < float(width) < 2.0 ** -10 for x, width in rows if "32767" in x)

    def test_scan_reaches_the_root_free_radius(self, capsys):
        # bound/10^4 = 10 lies above the roots +-2.8170, which the grid
        # from bound/10^4 used to miss.
        assert main(["measure", "--type", "extremal", "--q=1/64",
                     "--bound=100000", "--precision-bits=64"]) == 0
        xs = [line.split(",")[0][:10] for line in capsys.readouterr().out.splitlines()[1:]]
        assert xs == ["-32767.937", "-2.8169693", "2.81696932", "32767.9373"]

    @pytest.mark.parametrize("q", [Fraction(1, 64), Fraction(1, 2), Fraction(4, 5)], ids=str)
    def test_root_free_radius(self, q):
        ctx = PrecisionContext(q=q, precision_bits=64)
        r0 = _root_free_radius(q)
        # c_1 = 1 and (c_{k+1}/c_k)^2 = [2k]/[2k+1] < q^2, exactly
        assert _carrier_coefficients(1, ctx)[0] == 1
        assert extremal_bracket_exact(1, q) == 1
        for k in range(1, 40):
            assert extremal_bracket_exact(2 * k, q) < q**2 * extremal_bracket_exact(2 * k + 1, q)
        for k in range(1, 33):
            assert _carrier_value(r0 * k / 16, ctx, None)[0] >= 0.5
        # The grid reaches down to r0 where r0 < bound/10^4 ...
        grid = _scan_grid(ctx.mpf(10 ** 6), 64, ctx)
        assert grid[0] <= ctx.mpf(r0) < grid[1]
        # ... and is the plain one elsewhere.
        bound = ctx.mpf(40)
        lo_edge = bound * ctx.mpf(Fraction(1, 10000))
        plain = [lo_edge * (bound / lo_edge) ** ctx.mpf(Fraction(i, 63)) for i in range(64)]
        plain += [bound * ctx.mpf(Fraction(i, 64)) for i in range(1, 65)]
        assert _scan_grid(bound, 64, ctx) == sorted(set(plain))

    def test_parameter_validation(self, ctx_half):
        with pytest.raises(DomainError):
            carrier_roots(Fraction(-1), ctx_half)


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
