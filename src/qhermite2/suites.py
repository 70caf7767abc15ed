"""Verification suites: each checked identity and its gate, defined once.

A suite takes a :class:`PrecisionContext` and its inputs as exact
values and returns a list of :class:`Check` records, one per checked
identity or diagnostic.  A gated record (kind ``check``) holds its
verdict in ``passed``; a diagnostic only reports (``passed`` is None).
A suite passes when every gated record passed (:func:`passed`).

A field the report prints as text is a ``str``.  A computed residual
or tolerance keeps its raw value (mpf, Fraction, GaussianRational), so
a caller can compare it; the CLI formats it at the working precision.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional

from .context import PrecisionContext
from .errors import AlgebraViolation, DomainError
from .exact import GaussianRational, Poly, Ratio, _spectrum_mismatch, bn_squared_exact
from .extremal import _loading_at, carrier_roots, loadings, orthonormality_gram
from .qcalculus import (
    HAT_DEPTH,
    gex_eigen_residuals,
    ibp_ratio_residual,
    ibp_residual_poly,
    jackson_integral_poly,
    leibniz_residual,
    q_derivative_poly,
)
from .qhermite import (
    WEIGHT_HYPOTHESES,
    _two_phi_zero,
    generating_fn_report,
    hermite2_coeffs,
    hermite2_eval_direct,
    qdiff_equation_check,
)
from .qmeasure import _hat_weight, moment_In, unity_check
from .qoscillator import ULP_BUDGET, verify_algebra

__all__ = [
    "Check",
    "passed",
    "recurrence",
    "qcalculus",
    "commutators",
    "generating",
    "qdiff",
    "moments",
    "unity",
    "orthonormality",
]

# The search bound of ``orthonormality``, and the default of
# ``measure --type extremal --bound``.
SEARCH_BOUND = Fraction(40)


class Check(NamedTuple):
    """One row of a suite report; ``passed`` is None for a diagnostic."""

    identity: str
    parameters: str
    residual: object
    bound: object
    passed: Optional[bool]
    note: str = ""

    @property
    def kind(self) -> str:
        """``"check"`` for a gated record, ``"diagnostic"`` otherwise."""
        return "diagnostic" if self.passed is None else "check"


def passed(checks: List[Check]) -> bool:
    """A suite's verdict: every ``check`` record passed."""
    return all(c.passed for c in checks if c.passed is not None)


def recurrence(
    ctx: PrecisionContext, n_max: int = 12, tol: Fraction = Fraction(1, 10**25)
) -> List[Check]:
    """H~_n from the terminating 2phi0 against its exact coefficients.

    One check per n <= n_max: the exact 2phi0 expansion equals the
    recurrence polynomial, and the worst gap over x in {0, +-1/2, +-1,
    +-2} between Horner on that polynomial and the 2phi0 value rounded
    once, relative to max(|H~_n(x)|, 1), is within ``tol``.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    tol_mp = ctx.mpf(tol)
    xs = [Fraction(x) for x in (0, "1/2", "-1/2", 1, -1, 2, -2)]
    checks = []
    for n in range(n_max + 1):
        coeffs = hermite2_coeffs(n, ctx)
        exact = _two_phi_zero(n, ctx) == coeffs
        evaluate = coeffs.mp_evaluator(ctx)
        worst = ctx.mp.mpf(0)
        for x in xs:
            xv = ctx.mpf(x)
            direct = hermite2_eval_direct(n, xv, ctx)
            via = evaluate(xv)
            scale = max(abs(via), ctx.mp.mpf(1))
            worst = max(worst, abs(direct - via) / scale)
        checks.append(
            Check(
                f"cross-representation n={n}",
                f"q={ctx.q}; x in {{0,+-1/2,+-1,+-2}}",
                worst,
                tol,
                exact and worst <= tol_mp,
            )
        )
    return checks


def qcalculus(ctx: PrecisionContext) -> List[Check]:
    """Deformed calculus: derivative eigenfunction, Leibniz rules,
    integration by parts (finite and infinite), Jackson endpoint
    recovery, each an identity proved exactly over Q.

    The eigen-equation D gex = gex is checked term by term, for every
    term c_n x^n down to c_n < 2^-bits (:func:`gex_eigen_residuals`);
    the infinite integration by parts ip3 as an identity of rational
    functions for the pair u = 1/(1+t^2)^3, v = t/(1+t^2)^2, with the
    Jacobian q and the shift q^-2 (:func:`ibp_ratio_residual`)."""
    q = ctx.q
    checks = []

    residuals = gex_eigen_residuals(q, ctx.precision_bits)
    wrong = next(((n, r) for n, r in enumerate(residuals, 1) if r), None)
    checks.append(
        Check(
            "deformed-derivative-reproduces-gen-exponential",
            f"q={q}; c_n x^n for n <= {len(residuals)}",
            "0" if wrong is None else f"{wrong[1]} at n={wrong[0]}",
            "exact zero",
            wrong is None,
        )
    )

    u = Poly((1, 0, 1))
    v = Poly((0, -1, 0, 1))
    for variant in ("first", "second"):
        residual = leibniz_residual(u, v, variant, q)
        ok = residual.is_zero()
        checks.append(
            Check(
                f"leibniz-{variant}",
                f"q={q}; u=x^2+1, v=x^3-x",
                "0" if ok else str(residual),
                "exact zero",
                ok,
            )
        )

    for variant in ("ip1", "ip2"):
        residual = ibp_residual_poly(u, v, variant, Fraction(1), q)
        ok = residual.is_zero()
        checks.append(
            Check(
                f"integration-by-parts-{variant}",
                f"q={q}; a=1; u=x^2+1, v=x^3-x",
                "0" if ok else str(residual),
                "exact zero",
                ok,
                "boundary at q^-2 a (ledger ibp_boundary_points)",
            )
        )

    u_dec = Ratio(Poly.one(), u * u * u)  # u = 1 + t^2 here
    v_dec = Ratio(Poly.x(), u * u)
    residual = ibp_ratio_residual(u_dec, v_dec, q, q, 1 / (q * q))
    ok = residual.is_zero()
    checks.append(
        Check(
            "integration-by-parts-ip3",
            f"q={q}; u=1/(1+t^2)^3, v=t/(1+t^2)^2",
            "0" if ok else str(residual),
            "exact zero",
            ok,
            "left side carries Jacobian q (ledger ibp_infinite_jacobian)",
        )
    )

    p = Poly((1, 2, 3, 0, 5))
    x0 = Fraction(3, 2)
    recovered = jackson_integral_poly(q_derivative_poly(p, q), x0, q)
    target = p(x0) - p(Fraction(0))
    ok = (recovered - target).is_zero()
    checks.append(
        Check(
            "jackson-endpoint-recovery",
            f"q={q}; p=5x^4+3x^2+2x+1; x=3/2",
            "0" if ok else recovered - target,
            "exact zero",
            ok,
        )
    )
    return checks


def commutators(ctx: PrecisionContext, dim: int = 16) -> List[Check]:
    """Operator algebra of the dim x dim sections within the ulp budget
    of :func:`verify_algebra`, and the spectrum by two exact paths."""
    q = ctx.q
    checks = []
    try:
        report = verify_algebra(dim, ctx)
        for name in sorted(report.max_residuals):
            residual = report.max_residuals[name]
            bound = report.ulp_bound * report.scales[name] * ctx.eps
            checks.append(
                Check(
                    name,
                    f"q={q}; dim={dim}; valid_block={report.valid_block}",
                    residual,
                    bound,
                    residual <= bound,
                )
            )
    except AlgebraViolation as exc:
        checks.append(
            Check(
                "operator-algebra",
                f"q={q}; dim={dim}",
                "violation",
                f"{ULP_BUDGET} ulp",
                False,
                str(exc),
            )
        )

    a, b = q.numerator, q.denominator  # powers up to a^17 reach n = 8
    worst_n = _spectrum_mismatch([a**k for k in range(18)], [b**k for k in range(18)])
    ok = worst_n < 0
    checks.append(
        Check(
            "spectrum-two-paths",
            f"q={q}; n<=8",
            "0" if ok else f"mismatch at n={worst_n}",
            "exact zero",
            ok,
        )
    )
    return checks


def generating(
    ctx: PrecisionContext, x: Fraction = Fraction(1, 2), order: int = 10
) -> List[Check]:
    """The resolved generating-function weight matches every order up
    to ``order`` at x; one diagnostic per weight hypothesis.  At low
    order other hypotheses may match too; the note names every match."""
    rep = generating_fn_report(x, order, ctx)
    matched = [
        tag for tag in WEIGHT_HYPOTHESES if all(r.is_zero() for r in rep.residuals[tag])
    ]
    ok = "divided-with-qpower-squared" in matched
    if len(matched) > 1:
        note = f"matched hypotheses: {', '.join(matched)}"
    else:
        note = f"matched hypothesis: {rep.matched_hypothesis}"
    checks = [
        Check(
            "resolved-weight-matches-all-orders",
            f"q={ctx.q}; x={x}; orders<={order}",
            "0" if ok else "mismatch",
            "exact zero per order",
            ok,
            note,
        )
    ]
    for tag in WEIGHT_HYPOTHESES:
        residuals = rep.residuals[tag]
        first_bad = next(
            (k for k, r in enumerate(residuals) if not r.is_zero()), None
        )
        if first_bad is None:
            residual, note = "0", "matches every computed order"
        else:
            ratio = rep.ratios[tag][first_bad]
            residual = str(residuals[first_bad])
            note = (
                f"first mismatch at order {first_bad}"
                + (f"; printed/closed ratio {ratio}" if ratio is not None else "")
                + "; expected (ledger gf_weight_order1)"
            )
        checks.append(
            Check(
                f"weight-{tag}",
                f"x={x}; orders<={order}",
                residual,
                "exact zero",
                None,
                note,
            )
        )
    return checks


def qdiff(ctx: PrecisionContext, n_max: int = 4) -> List[Check]:
    """q-difference equation: exact zero at n = 0, the documented
    nonzero residual at n = 1, a diagnostic listing for 2 <= n <= n_max."""
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    q = ctx.q
    res0 = qdiff_equation_check(0, ctx)
    ok0 = res0.is_zero()
    res1 = qdiff_equation_check(1, ctx)
    expected = Poly(
        (
            GaussianRational(Fraction(0), 1 - q),
            GaussianRational(Fraction(0), Fraction(0)),
            GaussianRational(Fraction(0), Fraction(1)),
            GaussianRational(1 - q, Fraction(0)),
        )
    )
    checks = [
        Check(
            "qdiff-residual-n0",
            f"q={q}",
            "0" if ok0 else str(res0),
            "exact zero",
            ok0,
        ),
        Check(
            "qdiff-residual-n1-reproduced",
            f"q={q}",
            str(res1),
            str(expected),
            res1 == expected,
            "nonzero residual is the documented defect (ledger qdiff_n1)",
        ),
    ]
    for n in range(2, n_max + 1):
        res = qdiff_equation_check(n, ctx)
        checks.append(
            Check(
                f"qdiff-residual-n{n}",
                f"q={q}",
                "0" if res.is_zero() else str(res),
                "",
                None,
                "diagnostic listing only",
            )
        )
    return checks


def moments(
    ctx: PrecisionContext,
    n_max: int = 8,
    tol: Fraction = Fraction(1, 10**8),
    k_depth: int = HAT_DEPTH,
) -> List[Check]:
    """Lattice moments I_n (depth K = k_depth) against the closed form,
    and the telescoping I_n = b_{n-1}^2 I_{n-1} between them."""
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    tol_mp = ctx.mpf(tol)
    weight = _hat_weight(k_depth, ctx)
    params = f"q={ctx.q}; K={k_depth}"
    checks = []
    lattice_values = []
    for n in range(n_max + 1):
        result = moment_In(n, ctx, K=k_depth, weight=weight)
        lattice_values.append(result.lattice_value)
        checks.append(
            Check(
                f"moment-closed-form n={n}",
                params,
                result.rel_deviation,
                tol,
                result.rel_deviation <= tol_mp,
                "lattice prefactor 1/q (ledger hat_integral_prefactor)",
            )
        )
    for n in range(1, n_max + 1):
        step = ctx.mpf(bn_squared_exact(n - 1, ctx.q)) * lattice_values[n - 1]
        rel = abs(lattice_values[n] - step) / abs(step)
        checks.append(
            Check(f"moment-telescoping n={n}", params, rel, tol, rel <= tol_mp)
        )
    return checks


def unity(
    ctx: PrecisionContext,
    n_max: int = 6,
    tol: Fraction = Fraction(1, 10**6),
    k_depth: int = HAT_DEPTH,
) -> List[Check]:
    """Resolution of unity: each Gram diagonal entry I_n(lattice)/I_n,
    n <= n_max, within tol of 1 (lattice depth k_depth); the
    off-diagonal vanishes by symmetry."""
    tol_mp = ctx.mpf(tol)
    report = unity_check(n_max, ctx, K=k_depth)
    checks = []
    for n, g in enumerate(report.diagonal):
        dev = abs(g - 1)
        checks.append(
            Check(
                f"gram-diagonal n={n}",
                f"q={ctx.q}; K={k_depth}",
                dev,
                tol,
                dev <= tol_mp,
                "lattice prefactor 1/q (ledger hat_integral_prefactor)",
            )
        )
    checks.append(
        Check(
            "gram-off-diagonal",
            f"q={ctx.q}; n<={n_max}",
            "0",
            "exact zero",
            True,
            report.off_diagonal,
        )
    )
    return checks


def orthonormality(
    ctx: PrecisionContext, bound: Fraction = SEARCH_BOUND, tol: Fraction = Fraction(1, 10**3)
) -> List[Check]:
    """Extremal measure on the carrier roots in [-bound, bound]: the Gram
    identity for m, n <= 3 and the loading symmetry (the outermost root
    pair evaluated at both signs) are gated; the total mass and the
    loading/kernel-mass agreement are diagnostics."""
    tol_mp = ctx.mpf(tol)
    points = loadings(carrier_roots(bound, ctx), ctx)
    params = f"q={ctx.q}; bound={bound}"

    _, worst = orthonormality_gram(points, 3, ctx)
    # loadings evaluates each +- pair once, at its first root, so the
    # outermost negative root is checked against an evaluation at -x.
    sym_worst = ctx.mp.mpf(0)
    if points:
        sigma = points[0].sigma0
        sym_worst = abs(sigma - _loading_at(-points[0].x, ctx)[0]) / max(abs(sigma), ctx.eps)
    total = ctx.mp.mpf(0)
    for p in points:
        total = total + p.sigma0
    kern_worst = ctx.mp.mpf(0)
    for p in points:
        kern_worst = max(
            kern_worst, abs(p.sigma0 - p.kernel_mass) / abs(p.kernel_mass)
        )
    return [
        Check(
            "extremal-gram-identity",
            f"{params}; m,n<=3",
            worst,
            tol,
            worst <= tol_mp,
            "loadings vs orthonormality (ledger carrier_variable_scaling)",
        ),
        Check(
            "loading-symmetry",
            params,
            sym_worst,
            "1e-20 relative",
            sym_worst <= ctx.mpf(Fraction(1, 10**20)),
        ),
        Check(
            "total-mass",
            f"{params}; roots={len(points)}",
            total,
            "target 1 (diagnostic)",
            None,
            "mass outside the search bound is not captured",
        ),
        Check(
            "loading-vs-kernel-mass",
            params,
            kern_worst,
            "convention cross-check",
            None,
            "exact agreement expected only at b_0 = 1 (q = 1/2)",
        ),
    ]
