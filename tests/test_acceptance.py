"""Acceptance gate: one timed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Criteria 1-7 assert their stated tolerances;
criteria 1, 2, 3, 4 and 7 run the verification suites of
``qhermite2.suites`` that ``qhermite2 verify`` runs, and assert on the
residuals they return.  Criterion 8 is diagnostic (its tolerances are
gated by the unit suite) and asserts completion within budget only.
"""

from __future__ import annotations

import time
from fractions import Fraction

from qhermite2 import PrecisionContext, suites
from qhermite2.coherent import cs_eigen_residual
from qhermite2.exact import GaussianRational, Poly, Ratio, bn_squared_exact, moment_In_exact
from qhermite2.extremal import carrier_roots, loadings, orthonormality_gram
from qhermite2.qcalculus import (
    gex_eigen_residuals,
    ibp_ratio_residual,
    ibp_residual_poly,
    jackson_integral_poly,
    leibniz_residual,
    q_derivative_poly,
)
from qhermite2.qhermite import generating_fn_report
from qhermite2.qoscillator import spectrum

Q_VALUES = (Fraction(3, 10), Fraction(1, 2), Fraction(4, 5))

_CONTEXTS = {q: PrecisionContext(q=q) for q in Q_VALUES}


class _Criterion:
    """Times a criterion body and prints its single verdict line."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.elapsed = None

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(
            f"ACCEPTANCE CRITERION {self.number} ({self.label}): "
            f"{verdict} [{self.elapsed:.2f}s]"
        )
        return False

    def assert_budget(self):
        assert self.elapsed is not None and self.elapsed < self.budget_s, (
            f"criterion {self.number} took {self.elapsed:.2f}s, "
            f"budget {self.budget_s}s"
        )


def test_criterion_1_cross_representation():
    with _Criterion(1, "cross-representation agreement", 5.0) as crit:
        tol = Fraction(1, 10**25)
        for q, ctx in _CONTEXTS.items():
            tol_mp = ctx.mpf(tol)
            # n <= 15 on x in {0, +-1/2, +-1, +-2}
            checks = suites.recurrence(ctx, n_max=15, tol=tol)
            assert len(checks) == 16
            for check in checks:
                assert check.residual < tol_mp, (q, check.identity)
    crit.assert_budget()


def test_criterion_2_operator_algebra():
    with _Criterion(2, "operator algebra within ulp budget", 5.0) as crit:
        for q, ctx in _CONTEXTS.items():
            for dim in (4, 8, 16, 32):
                checks = suites.commutators(ctx, dim=dim)
                assert suites.passed(checks), (q, dim, checks)
        half = _CONTEXTS[Fraction(1, 2)]
        levels = [float(v) for _, v in spectrum(2, half).levels]
        assert levels == [1.0, 7.0, 34.0]
    crit.assert_budget()


def test_criterion_3_lattice_moments():
    with _Criterion(3, "lattice moments against closed form", 10.0) as crit:
        ctx = _CONTEXTS[Fraction(1, 2)]
        tol = Fraction(1, 10**8)
        # closed form for n <= 8, then the telescoping for 1 <= n <= 8
        checks = suites.moments(ctx, n_max=8, tol=tol, k_depth=60)
        assert len(checks) == 17
        for check in checks:
            assert check.residual < ctx.mpf(tol), check.identity
        for n in range(1, 9):
            assert moment_In_exact(n, ctx.q) == (
                bn_squared_exact(n - 1, ctx.q) * moment_In_exact(n - 1, ctx.q)
            )
    crit.assert_budget()


def test_criterion_4_resolution_of_unity():
    with _Criterion(4, "resolution-of-unity diagonal", 10.0) as crit:
        ctx = _CONTEXTS[Fraction(1, 2)]
        tol = Fraction(1, 10**6)
        *diagonal, off_diagonal = suites.unity(ctx, n_max=6, tol=tol, k_depth=60)
        assert len(diagonal) == 7
        for check in diagonal:
            assert check.residual < ctx.mpf(tol), check.identity
        assert "exact zero" in off_diagonal.note
    crit.assert_budget()


def test_criterion_5_coherent_residual():
    with _Criterion(5, "coherent eigenvector residual bound", 2.0) as crit:
        z_grid = (
            complex(0.5, 0),
            complex(0, 2),
            complex(1.2, -0.9),
            complex(-2, 0),
            complex(1.4, 1.4),
        )
        for q, ctx in _CONTEXTS.items():
            limit = ctx.mpf("1e-30")
            for zc in z_grid:
                rep = cs_eigen_residual(ctx.mpc(zc), 60, ctx)
                assert rep.residual <= rep.bound, (q, zc)
                assert rep.bound < limit, (q, zc)
    crit.assert_budget()


def _gr(v) -> GaussianRational:
    return GaussianRational(Fraction(v), Fraction(0))


def test_criterion_6_calculus_identities():
    with _Criterion(6, "calculus identities", 2.0) as crit:
        u = Poly((_gr(1), _gr(2), _gr(3)))
        v = Poly((_gr(0), _gr(-1), _gr(0), _gr(2)))
        for q, ctx in _CONTEXTS.items():
            # eigenfunction of the deformed derivative: every term of the
            # series down to c_N < 2^-bits, exactly
            assert not any(gex_eigen_residuals(q, ctx.precision_bits)), q
            # product rule: exact zero residual polynomials
            for variant in ("first", "second"):
                assert leibniz_residual(u, v, variant, q).is_zero(), variant
            # integration by parts: finite and infinite, exact in Q(i)
            for variant in ("ip1", "ip2"):
                assert ibp_residual_poly(u, v, variant, Fraction(1), q).is_zero(), variant
            one_plus_square = Poly((1, 0, 1))
            u_dec = Ratio(Poly.one(), one_plus_square * one_plus_square * one_plus_square)
            v_dec = Ratio(Poly.x(), one_plus_square * one_plus_square)
            assert ibp_ratio_residual(u_dec, v_dec, q, q, 1 / q**2).is_zero()
            # fundamental theorem, exact in Q(i)
            for x in (Fraction(1), Fraction(-3, 2)):
                recovered = jackson_integral_poly(q_derivative_poly(v, q), x, q)
                assert recovered == v(x) - v(Fraction(0))
    crit.assert_budget()


def test_criterion_7_difference_equation_and_generating_function():
    with _Criterion(
        7, "difference-equation and generating-function ledger", 5.0
    ) as crit:
        for q, ctx in _CONTEXTS.items():
            one_minus_q = Fraction(1) - q
            # residual exactly zero at n = 0; the documented residual
            # (1-q) x^3 + i x^2 + i (1-q) at n = 1
            assert suites.passed(suites.qdiff(ctx, n_max=1)), q

            checks = suites.generating(ctx, x=Fraction(1, 2), order=10)
            assert suites.passed(checks), q  # the resolved weight matched
            resolved = next(
                c for c in checks if c.identity == "weight-divided-with-qpower-squared"
            )
            assert resolved.residual == "0", q  # at every order
            rep = generating_fn_report(Fraction(1, 2), 10, ctx)
            assert rep.ratios["as-printed"][1] == one_minus_q, q
    crit.assert_budget()


def test_criterion_8_extremal_measure_diagnostics():
    with _Criterion(8, "extremal measure diagnostics", 60.0) as crit:
        ctx = _CONTEXTS[Fraction(1, 2)]
        shallow = carrier_roots(Fraction(6), ctx, k_terms=20)
        deep = carrier_roots(Fraction(6), ctx, k_terms=40)
        worst_move = max(
            abs(a.x - b.x) for a, b in zip(shallow, deep)
        ) if shallow and len(shallow) == len(deep) else None
        points = loadings(carrier_roots(Fraction(40), ctx), ctx)
        total = sum(p.sigma0 for p in points)
        _, gram_worst = orthonormality_gram(points, 3, ctx)
        print(
            "criterion 8 diagnostics: "
            f"root_count={len(points)}, "
            f"root_move_under_depth_doubling={ctx.nstr(worst_move, 3)}, "
            f"gram_max_deviation={ctx.nstr(gram_worst, 3)}, "
            f"total_mass={ctx.nstr(total, 20)}"
        )
        assert worst_move is not None
        assert len(points) == 6
    crit.assert_budget()
