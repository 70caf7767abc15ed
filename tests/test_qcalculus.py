"""Lattice derivatives, Jackson and hat integrals, product/parts rules."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from correctly_rounded import size
from hypothesis import given, settings, strategies as st

from qhermite2 import PrecisionContext, qcalculus, suites
from qhermite2.cli import main
from qhermite2.errors import DomainError, NoConvergenceError
from qhermite2.exact import (
    GaussianRational,
    Poly,
    Ratio,
    bn_squared_exact,
    moment_In_exact,
    qbracket,
)
from qhermite2.qcalculus import (
    _hat_integral_poly,
    deformed_derivative_poly,
    gex_eigen_residuals,
    hat_q_integral,
    ibp_ratio_residual,
    ibp_residual_poly,
    jackson_integral_poly,
    leibniz_residual,
    q_derivative_poly,
)
from qhermite2.qkernel import q_power
from qhermite2.qmeasure import lattice_weight, moment_In


def gr(v) -> GaussianRational:
    return GaussianRational(Fraction(v), Fraction(0))


POLY_A = Poly((gr(1), gr(2), gr(3)))
POLY_B = Poly((gr(0), gr(-1), gr(0), gr(2)))


class TestExactDerivatives:
    def test_q_derivative_monomial_rule(self):
        q = Fraction(1, 2)
        out = q_derivative_poly(POLY_A, q)
        assert out == Poly((gr(2), gr(3) * gr(qbracket(2, q))))

    def test_deformed_derivative_monomial_rule(self):
        q = Fraction(3, 10)
        cubed = Poly((gr(0), gr(0), gr(0), gr(1)))
        out = deformed_derivative_poly(cubed, q)
        assert out == Poly((gr(0), gr(0), gr(bn_squared_exact(2, q))))

    def test_constants_annihilated(self):
        q = Fraction(4, 5)
        assert deformed_derivative_poly(Poly((gr(7),)), q).is_zero()
        assert q_derivative_poly(Poly((gr(7),)), q).is_zero()

    @pytest.mark.parametrize("q", [Fraction(0), Fraction(1), Fraction(4, 5)], ids=str)
    def test_constants_annihilated_at_any_q(self, q):
        # A constant has no x^k, k >= 1, to differentiate: the result is 0
        # without q entering, also where [k]_q or b_k^2 is undefined.
        for p in (Poly.zero(), Poly((gr(7),)), Poly((GaussianRational(Fraction(2, 3), Fraction(-1, 5)),))):
            assert q_derivative_poly(p, q) == Poly.zero()
            assert deformed_derivative_poly(p, q) == Poly.zero()

    def test_numeric_matches_exact(self, all_ctx):
        # the difference quotient (p(q^-2 x) - p(q^-1 x)) / (q^-1 x) in mpf
        for ctx in all_ctx:
            p = POLY_B.mp_evaluator(ctx)
            sym = deformed_derivative_poly(POLY_B, ctx.q).mp_evaluator(ctx)
            qi = 1 / ctx.qm
            for x in (Fraction(1, 3), Fraction(2), Fraction(-5, 4)):
                xv = ctx.mpf(x)
                num = (p(qi * qi * xv) - p(qi * xv)) / (qi * xv)
                assert abs(num - sym(x)) <= 64 * ctx.eps * max(abs(sym(x)), ctx.mpf(1))


class TestProductRule:
    @pytest.mark.parametrize("variant", ["first", "second"])
    def test_residual_is_zero_polynomial(self, variant):
        for q in (Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)):
            res = leibniz_residual(POLY_A, POLY_B, variant, q)
            assert all(
                res.coefficient(k).is_zero() for k in range(res.degree + 1)
            )

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError):
            leibniz_residual(POLY_A, POLY_B, "third", Fraction(1, 2))


def _shifted_term_ratios(q):
    """q^{2n+1} / (1 - q^{n+1}), n = 1, 2, ...: the term ratio of the
    generalized exponential one index on, as integer pairs."""
    n = 0
    while True:
        n += 1
        ratio = q ** (2 * n + 1) / (1 - q ** (n + 1))
        yield ratio.numerator, ratio.denominator


def _gex_coefficients(q, count):
    """c_n = q^{n^2} / (q; q)_n of the generalized exponential, n < count."""
    coeffs = [Fraction(1)]
    for n in range(1, count):
        coeffs.append(coeffs[-1] * q ** (2 * n - 1) / (1 - q**n))
    return coeffs


class TestEigenfunction:
    def test_deformed_derivative_fixes_gen_exponential(self, all_ctx):
        # every term down to c_N < 2^-bits <= c_{N-1}
        for ctx in all_ctx:
            q, bits = ctx.q, ctx.precision_bits
            residuals = gex_eigen_residuals(q, bits)
            N = len(residuals)
            assert residuals == [0] * N
            c = _gex_coefficients(q, N + 1)
            assert c[N] < Fraction(1, 2**bits) <= c[N - 1]

    @pytest.mark.parametrize("q", [Fraction(1, 64), Fraction(1, 2), Fraction(26, 27), Fraction(63, 64)], ids=str)
    def test_truncations_map_to_each_other(self, q):
        # deformed_derivative_poly on the degree-12 truncation of the
        # series is the degree-11 one, which the per-n check states
        c = _gex_coefficients(q, 13)
        assert deformed_derivative_poly(Poly(c), q) == Poly(c[:-1])

    def test_a_wrong_term_ratio_is_caught(self, monkeypatch):
        monkeypatch.setattr(qcalculus, "_gex_term_ratios", _shifted_term_ratios)
        assert all(gex_eigen_residuals(Fraction(1, 2), 64))


class TestJacksonIntegral:
    def test_poly_round_trip_is_exact(self):
        for q in (Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)):
            for x in (Fraction(1), Fraction(3, 2), Fraction(-2)):
                dp = q_derivative_poly(POLY_B, q)
                recovered = jackson_integral_poly(dp, x, q)
                direct = POLY_B(x) - POLY_B(Fraction(0))
                assert recovered == direct


_ONE_PLUS_SQUARE = Poly((1, 0, 1))
_U_RATIO = Ratio(Poly.one(), _ONE_PLUS_SQUARE * _ONE_PLUS_SQUARE * _ONE_PLUS_SQUARE)
_V_RATIO = Ratio(Poly.x(), _ONE_PLUS_SQUARE * _ONE_PLUS_SQUARE)


def _decaying(t):
    return 1 / (1 + t * t) ** 3


class TestHatIntegral:
    def test_two_branch_split_covers_each_exponent_once(self, ctx_half):
        K = 12
        exponents = sorted(
            [1 - k for k in range(K + 1)] + [k + 2 for k in range(K + 1)]
        )
        assert exponents == list(range(1 - K, K + 3))

    def test_diagnostics_returned_on_request(self, ctx_half):
        value, max_grow, max_shrink = hat_q_integral(
            _decaying, ctx_half, K=40, return_diagnostics=True
        )
        assert max_grow > 0 and max_shrink > 0
        assert value > 0

    def test_growing_branch_divergence_detected(self, ctx_half):
        with pytest.raises(NoConvergenceError):
            hat_q_integral(lambda t: t, ctx_half, K=20)

    def test_zigzag_parity_decay_is_not_flagged(self, ctx_q8):
        # High moments at q = 4/5 produce growing-branch terms whose
        # adjacent magnitudes alternate between two parity subsequences;
        # the decay certificate must consult both predecessors.
        result = moment_In(8, ctx_q8, K=60)
        assert result.rel_deviation < ctx_q8.mpf("1e-3")

    def test_domain_validation(self, ctx_half):
        with pytest.raises(DomainError):
            hat_q_integral(_decaying, ctx_half, K=0)


class TestIntegrationByParts:
    @pytest.mark.parametrize("variant", ["ip1", "ip2"])
    def test_finite_variants_close_at_machine_scale(self, all_ctx, variant):
        # closer than any machine scale: the finite identities are exact
        for ctx in all_ctx:
            for a in (Fraction(1), Fraction(5, 3)):
                assert ibp_residual_poly(POLY_A, POLY_B, variant, a, ctx.q).is_zero()

    def test_infinite_variant_with_decaying_pair(self, all_ctx):
        for ctx in all_ctx:
            q = ctx.q
            assert ibp_ratio_residual(_U_RATIO, _V_RATIO, q, q, 1 / q**2).is_zero()

    def test_infinite_variant_certifies_the_growing_branch(self):
        # u v = t + t^3 grows without bound, and u v = 1/(1+t^2)^2 does
        # not vanish at 0: the bracket [uv]_0^inf is not 0
        one_plus_square = Ratio(Poly.one(), _ONE_PLUS_SQUARE)
        for u, v in ((Ratio(_ONE_PLUS_SQUARE, Poly.one()), Ratio(Poly.x(), Poly.one())), (one_plus_square,) * 2):
            with pytest.raises(DomainError, match="needs u v to vanish at 0 and at inf"):
                ibp_ratio_residual(u, v, Fraction(1, 2), Fraction(1, 2), Fraction(4))

    def test_variant_validation(self, ctx_half):
        with pytest.raises(DomainError, match="unknown integration-by-parts variant 'ip9'"):
            ibp_residual_poly(POLY_A, POLY_B, "ip9", Fraction(1), ctx_half.q)

    @pytest.mark.parametrize("a", [Fraction(0), Fraction(-1, 3)], ids=str)
    def test_upper_limit_checked_before_anything_is_evaluated(self, a):
        # u and v are never read: the limit is refused first
        for variant in ("ip1", "ip2", "ip9"):
            with pytest.raises(DomainError, match=f"upper limit must be positive, got {a}"):
                ibp_residual_poly(None, None, variant, a, Fraction(1, 2))


def _q_values():
    """q in (0, 1): a rational a/b with b <= 64, 1/64 and 63/64 among them."""
    return st.one_of(
        st.sampled_from([Fraction(1, 64), Fraction(63, 64)]),
        st.integers(2, 64).flatmap(lambda b: st.integers(1, b - 1).map(lambda a: Fraction(a, b))),
    )


_RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=50)
_REAL_POLYS = st.lists(_RATIONALS, max_size=7).map(Poly)
_LIMITS = st.fractions(min_value=0, max_value=50, max_denominator=1000).filter(lambda a: a > 0)


class TestFiniteIntegrationByPartsExact:
    """ip1/ip2 over Q: the finite hat integral in closed form."""

    @settings(max_examples=60, deadline=None)
    @given(_REAL_POLYS, _REAL_POLYS, _q_values(), _LIMITS)
    def test_both_variants_are_exactly_zero(self, u, v, q, a):
        for variant in ("ip1", "ip2"):
            assert ibp_residual_poly(u, v, variant, a, q) == GaussianRational.ZERO

    @settings(max_examples=60, deadline=None)
    @given(_REAL_POLYS, _q_values(), _LIMITS)
    def test_hat_integral_is_self_similar(self, p, q, a):
        # H(a) = q^{-1} a p(a) + H(qa): the first lattice term split off
        assert _hat_integral_poly(p, a, q) == a / q * p(a) + _hat_integral_poly(p, q * a, q)

    @pytest.mark.parametrize("q", [Fraction(1, 64), Fraction(1, 2), Fraction(26, 27)], ids=str)
    def test_boundary_at_q_inverse_a_leaves_a_residual(self, q):
        # registry entry ibp_boundary_points: the bracket is at q^{-2} a,
        # and moving it to q^{-1} a breaks the suite's ip1 identity
        u, v, a = Poly((1, 0, 1)), Poly((0, -1, 0, 1)), Fraction(1)
        lhs = _hat_integral_poly(u.scale_argument(1 / q) * deformed_derivative_poly(v, q), a, q)
        inner = _hat_integral_poly(v.scale_argument(1 / q**2) * deformed_derivative_poly(u, q), a, q)

        def residual(top):
            return lhs - (u(top) * v(top) - u(0) * v(0) - inner)

        assert residual(a / q**2) == ibp_residual_poly(u, v, "ip1", a, q) == GaussianRational.ZERO
        assert not residual(a / q).is_zero()


_POSITIVE = st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50)


def _over_power(numerator, c, k):
    """numerator / (c + t^2)^k."""
    den = Poly.one()
    for _ in range(k):
        den = den * Poly((c, 0, 1))
    return Ratio(numerator, den)


class TestInfiniteIntegrationByPartsExact:
    """ip3 over Q: summation by parts on rational integrands."""

    @pytest.mark.parametrize("q", [Fraction(1, 64), Fraction(1, 2), Fraction(26, 27), Fraction(99, 100)], ids=str)
    def test_the_jacobian_and_the_shift_are_needed(self, q):
        assert ibp_ratio_residual(_U_RATIO, _V_RATIO, q, q, 1 / q**2).is_zero()
        assert not ibp_ratio_residual(_U_RATIO, _V_RATIO, q, Fraction(1), 1 / q**2).is_zero()
        assert not ibp_ratio_residual(_U_RATIO, _V_RATIO, q, q, 1 / q).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(_RATIONALS, min_size=1, max_size=4).map(Poly),
        st.lists(_RATIONALS, min_size=1, max_size=4).map(lambda c: Poly([0] + c)),
        _POSITIVE,
        _POSITIVE,
        _q_values(),
    )
    def test_any_pair_vanishing_at_both_ends(self, u_num, v_num, c, d, q):
        # deg u v <= 7 against 10 below, and v(0) = 0
        u, v = _over_power(u_num, c, 3), _over_power(v_num, d, 2)
        assert ibp_ratio_residual(u, v, q, q, 1 / q**2).is_zero()


def _qcalculus_rows(capsys, q):
    code = main(["verify", "--suite", "qcalculus", f"--q={q}", "--precision-bits=64", "--format=json"])
    rows = json.loads(capsys.readouterr().out)["rows"]
    return code, {row[1]: row for row in rows if row[0] == "check"}


def _without_jacobian(u, v, q, jacobian, shift):
    return ibp_ratio_residual(u, v, q, Fraction(1), shift)


def _shift_by_q_inverse(u, v, q, jacobian, shift):
    return ibp_ratio_residual(u, v, q, jacobian, 1 / q)


@pytest.mark.parametrize(
    "module, name, mutant, identity",
    [
        (suites, "ibp_ratio_residual", _without_jacobian, "integration-by-parts-ip3"),
        (suites, "ibp_ratio_residual", _shift_by_q_inverse, "integration-by-parts-ip3"),
        (qcalculus, "_gex_term_ratios", _shifted_term_ratios, "deformed-derivative-reproduces-gen-exponential"),
    ],
    ids=["no-jacobian", "shift-q^-1", "wrong-term-ratio"],
)
@pytest.mark.parametrize("q", ["1/2", "63/64"])
def test_a_mutated_identity_fails_its_row(capsys, monkeypatch, module, name, mutant, identity, q):
    code, rows = _qcalculus_rows(capsys, q)
    assert code == 0 and {row[5] for row in rows.values()} == {"true"}
    monkeypatch.setattr(module, name, mutant)
    code, rows = _qcalculus_rows(capsys, q)
    assert code == 1
    mutated = rows.pop(identity)
    assert mutated[3] != "0" and mutated[5] == "false"
    assert {row[5] for row in rows.values()} == {"true"}


def _outcome(call, *args):
    """The value of call(*args), or the type and message it raised."""
    try:
        return call(*args)
    except NoConvergenceError as exc:
        return type(exc), str(exc)


# Reference hat-lattice sums: the hat integral and the lattice moment as
# they were written before they shared one enumeration of the lattice,
# kept here to pin them bitwise; a complex modulus is correctly rounded.


def _ref_hat_q_integral(f, ctx, K, return_diagnostics=False, what="hat_q_integral"):
    # f is a callable, or a dict of its values at the exponents m of q^m
    mp = ctx.mp
    q = ctx.qm
    tol = ctx.mpf(ctx.series_tol)
    if isinstance(f, dict):
        sample = f.__getitem__
    else:
        def sample(m):
            return f(q_power(m, ctx))
    total = mp.mpf(0)
    max_grow = mp.mpf(0)
    max_shrink = mp.mpf(0)
    prev_grow = None
    prev2_grow = None
    for k in range(K + 1):
        m_down = 1 - k
        m_up = k + 2
        t_grow = q_power(m_down, ctx) * sample(m_down)
        t_shrink = q_power(m_up, ctx) * sample(m_up)
        total = total + t_grow + t_shrink
        max_grow = max(max_grow, size(t_grow))
        max_shrink = max(max_shrink, size(t_shrink))
        if k == K:
            envelope = max(x for x in (prev_grow, prev2_grow) if x is not None)
            if size(t_grow) > tol * max(size(total), tol) and size(t_grow) >= envelope:
                raise NoConvergenceError(
                    f"{what}: growing-abscissa branch not decaying "
                    f"at K={K} (last term {mp.nstr(size(t_grow), 8)})"
                )
        prev2_grow = prev_grow
        prev_grow = size(t_grow)
    value = total / q
    if return_diagnostics:
        return value, max_grow, max_shrink
    return value


def _ref_moment_In(n, ctx, K, weight):
    integrand = {
        j: q_power(j * n, ctx) * weight.value(j - 2)
        for j in range(1 - K, K + 3)
    }
    value = _ref_hat_q_integral(integrand, ctx, K, what="moment_In")
    closed = ctx.mpf(moment_In_exact(n, ctx.q))
    return value, closed, abs(value - closed) / abs(closed)


@pytest.mark.parametrize(
    "q, bits",
    [
        pytest.param(Fraction(q), bits, id=f"{q}-{bits}")
        for q in ("3/10", "1/2", "4/5", "40/41")
        for bits in (64, 256)
    ],
)
class TestHatSumsBitwise:
    def test_hat_q_integral(self, q, bits):
        ctx = PrecisionContext(q, bits)
        integrands = {
            "decaying": _decaying,
            "gaussian": lambda t: t * t * ctx.mp.exp(-t * t),
            "linear": lambda t: t,
        }
        for K in (20, 60):
            for name, f in integrands.items():
                for diagnostics in (False, True):
                    got = _outcome(hat_q_integral, f, ctx, K, diagnostics)
                    want = _outcome(_ref_hat_q_integral, f, ctx, K, diagnostics)
                    assert got == want, (name, K, diagnostics)

    def test_moment_In(self, q, bits):
        ctx = PrecisionContext(q, bits)
        # K = 8 leaves the growing branch undecayed at high n, so it raises.
        for K, M in ((60, 120), (20, 40), (8, 16)):
            weight = lattice_weight(K + 1, M, ctx)
            for n in range(9):
                got = _outcome(
                    lambda: tuple(
                        vars(moment_In(n, ctx, K=K, weight=weight)).values()
                    )
                )
                want = _outcome(lambda: (n,) + _ref_moment_In(n, ctx, K, weight))
                assert got == want, (K, n)
            fresh = moment_In(3, ctx, K=K)
            assert fresh.lattice_value == _ref_moment_In(3, ctx, K, weight)[0]

def _bits(value):
    """A value, or a tuple of values, as types and raw mpf/mpc tuples."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    raw = getattr(value, "_mpf_", None) or getattr(value, "_mpc_", None)
    return type(value).__name__, value if raw is None else raw


def _counted(f, seen):
    def counted(t):
        seen.append(t._mpf_)
        return f(t)

    return counted


@pytest.mark.parametrize(
    "q, bits",
    [
        pytest.param(Fraction(q), bits, id=f"{q}-{bits}")
        for q, bits in (("3/10", 64), ("3/10", 256), ("5/9", 64), ("5/9", 256), ("7/8", 256), ("40/41", 64))
    ],
)
def test_integrands_called_once_per_distinct_point(q, bits):
    """hat_q_integral calls a callable integrand once at each of the
    2 (K + 1) lattice points, whose values are distinct (raw mpf tuples
    are normalized, so equal values are equal tuples), also where the
    growing branch has not decayed; the outcome is that of the uncounted
    function."""
    ctx = PrecisionContext(q, bits)
    K = 80
    seen = []
    got = _outcome(hat_q_integral, _counted(_decaying, seen), ctx, K)
    assert _bits(got) == _bits(_outcome(hat_q_integral, _decaying, ctx, K))
    assert len(seen) == len(set(seen)) == 2 * (K + 1)


_WIDE = 3**200  # wider than every working precision below


def _boundary_integrands(ctx):
    """Callables whose results are not mpf: ints (one wider than the
    precision, two different ones meeting in f(t) + f(-t)), mpc values,
    Fractions and floats."""
    mp = ctx.mp
    return {
        "int": lambda t: 7 if abs(t) < 2 else 0,
        "wide-int": lambda t: (_WIDE if t > 0 else 5**130) if abs(t) < 2 else 0,
        "mpc": lambda t: mp.mpc(1, 2) * t / (1 + t**4),
        "fraction": lambda t: Fraction(1, 3) if abs(t) < 2 else 0,
        "float": lambda t: 0.1 / (1 + float(t) ** 2),
    }


@pytest.mark.parametrize(
    "q, bits",
    [
        pytest.param(Fraction(q), bits, id=f"{q}-{bits}")
        for q in ("3/10", "1/2", "4/5")
        for bits in (64, 256)
    ],
)
class TestCallableBoundaryBitwise:
    """Results of a callable that are not mpf values enter the pair
    arithmetic as the mpf operators took them."""

    def test_hat_integral_and_ip3(self, q, bits):
        # ip3 no longer takes callables: it is an identity on the suite's
        # Ratios, checked over Q at the same q
        ctx = PrecisionContext(q, bits)
        K = 40
        for name, f in _boundary_integrands(ctx).items():
            for diagnostics in (False, True):
                got = _outcome(hat_q_integral, f, ctx, K, diagnostics)
                want = _outcome(_ref_hat_q_integral, f, ctx, K, diagnostics)
                assert _bits(got) == _bits(want), (name, diagnostics)
        assert ibp_ratio_residual(_U_RATIO, _V_RATIO, q, q, 1 / q**2).is_zero()


_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__neg__", "__abs__",
    "__lt__", "__le__", "__gt__", "__ge__",
)


def test_finite_ibp_operator_calls_do_not_grow_with_the_lattice(monkeypatch):
    """ip1/ip2 of polynomials are exact over Q: one residual makes no
    mpf/mpc operator call, whatever the number of lattice terms."""
    counts = {}
    for q in (Fraction(1, 2), Fraction(26, 27)):
        ctx = PrecisionContext(q, 128)
        calls = []
        with monkeypatch.context() as patch:
            for cls in (ctx.mp.mpf, ctx.mp.mpc):
                for name in _OPERATORS:
                    method = getattr(cls, name)

                    def counted(*args, _method=method):
                        calls.append(1)
                        return _method(*args)

                    patch.setattr(cls, name, counted)
            for variant in ("ip1", "ip2"):
                before = len(calls)
                residual = ibp_residual_poly(POLY_A, POLY_B, variant, Fraction(1), q)
                counts[q, variant] = len(calls) - before
                assert residual.is_zero()
    assert set(counts.values()) == {0}, counts
