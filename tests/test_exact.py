"""Exact rational layer: Gaussian rationals, polynomials, closed forms."""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from qhermite2.context import PrecisionContext, as_fraction
from qhermite2.errors import DomainError
from qhermite2.exact import (
    GaussianRational,
    Poly,
    Ratio,
    _bn_squared_rows,
    _oscillator_rows,
    _spectrum_mismatch,
    bn_squared_exact,
    extremal_bracket_exact,
    lambda_exact,
    moment_In_exact,
    qbracket,
    qfactorial_exact,
    qpochhammer_exact,
    rho_factorial_exact,
)
from qhermite2.qhermite import hermite2_coeffs

HALF = Fraction(1, 2)
Q3 = Fraction(3, 10)


class TestGaussianRational:
    def test_field_operations(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3))
        b = GaussianRational(Fraction(-2), Fraction(1, 4))
        assert a + b == GaussianRational(Fraction(-3, 2), Fraction(13, 4))
        assert a * b == GaussianRational(
            Fraction(1, 2) * Fraction(-2) - Fraction(3) * Fraction(1, 4),
            Fraction(1, 2) * Fraction(1, 4) + Fraction(3) * Fraction(-2),
        )
        assert (a / b) * b == a
        assert -a + a == GaussianRational.ZERO

    def test_powers_and_conjugate(self):
        i = GaussianRational.I
        assert i**2 == GaussianRational(Fraction(-1))
        assert i**4 == GaussianRational.ONE
        z = GaussianRational(Fraction(2), Fraction(-5))
        assert z * z.conjugate() == GaussianRational(Fraction(29))
        with pytest.raises(TypeError):
            z ** (-1)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational.ONE / GaussianRational.ZERO

    def test_coercion_from_int_and_fraction(self):
        assert GaussianRational.coerce(3) == GaussianRational(Fraction(3))
        assert GaussianRational.ONE + Fraction(1, 3) == GaussianRational(
            Fraction(4, 3)
        )


class TestPoly:
    def test_construction_and_degree(self):
        p = Poly((1, 0, 2))
        assert p.degree == 2
        assert p.coefficient(1) == GaussianRational.ZERO
        assert Poly.zero().is_zero()
        assert Poly.x().degree == 1
        assert Poly.monomial(3, Fraction(1, 2)).coefficient(3) == (
            GaussianRational(Fraction(1, 2))
        )

    def test_ring_operations(self):
        p = Poly((1, 1))
        q = Poly((-1, 1))
        assert p * q == Poly((-1, 0, 1))
        assert p + q == Poly((0, 2))
        assert (p - p).is_zero()

    def test_exact_evaluation_matches_mp(self):
        ctx = PrecisionContext(q=HALF)
        p = Poly((Fraction(1, 3), 0, Fraction(-2, 7), 5))
        x = Fraction(9, 4)
        exact = p(x)
        assert exact.im == 0
        approx = p.mp_evaluator(ctx)(ctx.mpf(x))
        assert abs(approx - ctx.mpf(exact.re)) <= 8 * ctx.eps * max(
            1, abs(ctx.mpf(exact.re))
        )

    def test_canonical_form(self):
        # One polynomial from unreduced Fractions, from ints and from
        # GaussianRationals, and from operations whose denominators
        # cancel: equal, with equal hashes and equal strings.
        built = (
            Poly((Fraction(4, 2), Fraction(0, 5), Fraction(-9, 3), Fraction(0, 7))),
            Poly((2, 0, -3)),
            Poly((GaussianRational(Fraction(2)), GaussianRational.ZERO, GaussianRational(Fraction(-3)))),
            Poly((Fraction(2, 3), 0, -1)).scale(3),
            Poly((Fraction(1, 6), 0, Fraction(-1, 4))) * Poly((12,)),
            Poly((2, GaussianRational(Fraction(1, 3), Fraction(-1, 3)), -3))
            - Poly((0, GaussianRational(Fraction(1, 3), Fraction(-1, 3)))),
        )
        for p in built:
            assert p == built[0] and hash(p) == hash(built[0]) and str(p) == str(built[0]) == "2 + -3*x^2"
        assert (Poly((Fraction(1, 3),)) * Poly((3,)), Poly.zero() * Poly((5,))) == (Poly.one(), Poly(()))
        complex_poly = Poly((GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(0), Fraction(2, 2))))
        assert Poly((Fraction(5, 10), GaussianRational.I)) == complex_poly
        assert hash(Poly((Fraction(5, 10), GaussianRational.I))) == hash(complex_poly)

    def test_imaginary_shift_is_exact_composition(self):
        p = Poly((0, 0, 1))
        shifted = p.shift(GaussianRational.I)
        assert shifted == Poly(
            (GaussianRational(Fraction(-1)), 2 * GaussianRational.I, 1)
        )


# -- Q(i) arithmetic against the textbook formulas on Fraction pairs -------

# Rationals that are often exactly 0, so the zero-part paths are taken.
_parts = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
)
_gaussians = st.tuples(_parts, _parts)


# Coefficients over one large shared denominator, with exactly-zero parts.
@st.composite
def _shared_gaussians(draw):
    den = draw(st.sampled_from((3**40, 2**70 * 5**9, 47**19, 10**30 + 7)))
    part = st.one_of(st.just(0), st.integers(-(10**45), 10**45))
    return [(Fraction(draw(part), den), Fraction(draw(part), den)) for _ in range(draw(st.integers(0, 7)))]


_coefficient_lists = st.one_of(st.lists(_gaussians, max_size=7), _shared_gaussians())


def _t_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _t_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _t_div(a, b):
    den = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / den, (a[1] * b[0] - a[0] * b[1]) / den)


def _t_pow(a, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = _t_mul(out, a)
    return out


def _assert_is(got, want):
    """got is the Q(i) value want, with Fraction parts, and compares and
    hashes as the validated GaussianRational(re, im)."""
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im) == want
    built = GaussianRational(*want)
    assert got == built and hash(got) == hash(built)


class TestGaussianFastPaths:
    @settings(max_examples=200, deadline=None)
    @given(_gaussians, _gaussians, st.integers(0, 6))
    def test_operations_match_textbook(self, a, b, n):
        x, y = GaussianRational(*a), GaussianRational(*b)
        _assert_is(x + y, _t_add(a, b))
        _assert_is(x - y, _t_add(a, (-b[0], -b[1])))
        _assert_is(x * y, _t_mul(a, b))
        _assert_is(-x, (-a[0], -a[1]))
        _assert_is(x.conjugate(), (a[0], -a[1]))
        _assert_is(x**n, _t_pow(a, n))
        if b != (0, 0):
            _assert_is(x / y, _t_div(a, b))
        # Mixed with plain rationals and ints, on either side.
        _assert_is(GaussianRational.coerce(n), (Fraction(n), Fraction(0)))
        _assert_is(x * b[0], _t_mul(a, (b[0], Fraction(0))))
        _assert_is(b[0] + x, _t_add(a, (b[0], Fraction(0))))
        _assert_is(3 - x, _t_add((Fraction(3), Fraction(0)), (-a[0], -a[1])))

    @settings(max_examples=120, deadline=None)
    @given(_coefficient_lists, _coefficient_lists, _gaussians)
    def test_poly_operations_match_naive(self, a, b, c):
        p, r = Poly([GaussianRational(*t) for t in a]), Poly([GaussianRational(*t) for t in b])
        zero = (Fraction(0), Fraction(0))

        def poly(coeffs):
            return Poly([GaussianRational(*t) for t in coeffs])

        product = [zero] * max(len(a) + len(b) - 1, 0)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                product[i + j] = _t_add(product[i + j], _t_mul(u, v))
        assert p * r == poly(product)
        size = max(len(a), len(b))
        pad = [zero] * size
        assert p + r == poly([_t_add(u, v) for u, v in zip(a + pad, b + pad)][:size])
        assert p - r == poly([_t_add(u, (-v[0], -v[1])) for u, v in zip(a + pad, b + pad)][:size])
        value = zero
        for u in reversed(a):
            value = _t_add(_t_mul(value, c), u)
        _assert_is(p(GaussianRational(*c)), value)
        shifted = [zero] * len(a)
        for k, u in enumerate(a):
            for j in range(k + 1):
                term = _t_mul(u, _t_pow(c, k - j))
                shifted[j] = _t_add(shifted[j], (comb(k, j) * term[0], comb(k, j) * term[1]))
        assert p.shift(GaussianRational(*c)) == poly(shifted)
        assert p.scale(GaussianRational(*c)) == poly([_t_mul(c, u) for u in a])
        assert p.scale_argument(GaussianRational(*c)) == poly(
            [_t_mul(u, _t_pow(c, k)) for k, u in enumerate(a)]
        )
        for coeff in (p * r).coeffs + p.shift(GaussianRational(*c)).coeffs:
            assert type(coeff.re) is Fraction and type(coeff.im) is Fraction


def _ref_shift(poly, c):
    """Test-local copy of the Horner composition ``Poly.shift`` used:
    p(x + c) built from the top down by n polynomial products."""
    linear = Poly((c, GaussianRational.ONE))
    result = Poly.zero()
    for coeff in reversed(poly.coeffs):
        result = result * linear + Poly((coeff,))
    return result


class TestShift:
    @pytest.mark.parametrize(
        "c",
        [
            GaussianRational.ZERO,
            GaussianRational.I,
            -GaussianRational.I,
            GaussianRational(Fraction(3, 7), Fraction(-2, 5)),
        ],
        ids=str,
    )
    @pytest.mark.parametrize("q", [Fraction(1, 64), Fraction(1, 2), Fraction(26, 27)], ids=str)
    def test_taylor_shift_equals_horner_composition(self, q, c):
        ctx = PrecisionContext(q=q)
        for n in range(13):
            h = hermite2_coeffs(n, ctx)
            assert h.shift(c) == _ref_shift(h, c)
        assert Poly.zero().shift(c) == Poly.zero()


def _ref_horner(poly, ctx, x):
    """Test-local copy of Horner on mpmath objects, as ``Poly.mp_evaluator``
    computed it with every step an mpf/mpc operation."""
    mp = ctx.mp
    complex_coeffs = any(c.im != 0 for c in poly.coeffs)
    coeffs = [
        ctx.mpf(c.re) if c.im == 0 else mp.mpc(ctx.mpf(c.re), ctx.mpf(c.im))
        for c in reversed(poly.coeffs)
    ]
    acc = mp.mpc(0) if complex_coeffs or isinstance(x, mp.mpc) else mp.mpf(0)
    for cv in coeffs:
        acc = acc * x + cv
    return acc


def _raw(value):
    return getattr(value, "_mpf_", None) or value._mpc_


class TestMpEvaluatorBitwise:
    """``Poly.mp_evaluator`` equals the object-level Horner bit for bit."""

    # h~_15 at q = 38/47 and its shift by a Gaussian rational have
    # numerators and denominators far wider than 64 or 256 bits.
    WIDE = hermite2_coeffs(15, PrecisionContext(q=Fraction(38, 47)))
    POLYS = (
        Poly.zero(),
        Poly((Fraction(7, 3),)),
        Poly((Fraction(1, 3), 0, Fraction(-2, 7), 5, Fraction(-11, 13))),
        Poly((GaussianRational(Fraction(1, 5), Fraction(-3)), Fraction(2, 9), GaussianRational.I)),
        WIDE,
        WIDE.shift(GaussianRational(Fraction(1, 3), Fraction(-2, 7))),
    )

    @pytest.mark.parametrize("bits", [64, 256])
    def test_points_of_every_kind(self, bits):
        parts = [f for c in self.WIDE.coeffs for f in (c.re, c.im)]
        assert max(abs(f.numerator).bit_length() for f in parts) > 256
        assert max(f.denominator.bit_length() for f in parts) > 64
        ctx = PrecisionContext(q=Q3, precision_bits=bits)
        points = (
            3,
            -2,
            Fraction(-5, 4),
            ctx.mpf(Fraction(1, 3)),
            ctx.mpf(Fraction(-22, 7)) * 10**40,
            ctx.mpc(complex(1, -2)),
        )
        for poly in self.POLYS:
            horner = poly.mp_evaluator(ctx)
            for x in points:
                got, want = horner(x), _ref_horner(poly, ctx, x)
                assert type(got) is type(want), (poly, x)
                assert _raw(got) == _raw(want), (poly, x)

    def test_call_at_another_precision(self):
        # Coefficients are rounded when the evaluator is built; a call
        # inside workprec rounds every step, the top coefficient too, at
        # the caller's precision.
        ctx = PrecisionContext(q=Q3, precision_bits=128)
        mp = ctx.mp
        x = ctx.mpf(Fraction(5, 3))
        for poly in self.POLYS:
            horner = poly.mp_evaluator(ctx)
            coeffs = [
                ctx.mpf(c.re) if c.im == 0 else mp.mpc(ctx.mpf(c.re), ctx.mpf(c.im))
                for c in reversed(poly.coeffs)
            ]
            for prec in (64, 200):
                with mp.workprec(prec):
                    got = horner(x)
                    want = mp.mpc(0) if any(c.im != 0 for c in poly.coeffs) else mp.mpf(0)
                    for cv in coeffs:
                        want = want * x + cv
                assert _raw(got) == _raw(want), (poly, prec)

    def test_non_finite_point_refused(self):
        # A pair holds no NaN or infinity; read as a zero pair, such a
        # point gave p(0).
        ctx = PrecisionContext(q=Q3, precision_bits=64)
        horner = Poly((5, 0, 1)).mp_evaluator(ctx)
        for x in (ctx.mp.nan, ctx.mp.inf, ctx.mpc(complex(1, float("nan")))):
            with pytest.raises(ValueError, match="is not finite"):
                horner(x)


class TestRatio:
    def test_complex_polynomials_refused(self):
        with pytest.raises(DomainError, match="a Ratio takes real polynomials"):
            Ratio(Poly((GaussianRational.I,)), Poly.one())


class TestClosedForms:
    def test_qbracket_values(self):
        assert qbracket(0, HALF) == 0
        assert qbracket(1, HALF) == 1
        assert qbracket(2, HALF) == Fraction(3, 2)
        assert qbracket(3, Q3) == Fraction(1, 1) + Q3 + Q3 * Q3

    def test_qfactorial(self):
        assert qfactorial_exact(0, HALF) == 1
        assert qfactorial_exact(3, HALF) == (
            Fraction(1, 2) * Fraction(3, 4) * Fraction(7, 8)
        )

    def test_bn_squared_values(self):
        assert bn_squared_exact(-1, HALF) == 0
        assert [bn_squared_exact(n, HALF) for n in range(4)] == [
            1,
            6,
            28,
            120,
        ]
        with pytest.raises(DomainError):
            bn_squared_exact(-2, HALF)

    def test_lambda_spectrum_at_half(self):
        assert [lambda_exact(n, HALF) for n in range(4)] == [1, 7, 34, 148]

    def test_lambda_spectrum_at_q3(self):
        want = [1.0, 15.44444444, 186.0493827, 2115.363512]
        got = [float(lambda_exact(n, Q3)) for n in range(4)]
        for g, w in zip(got, want):
            assert abs(g - w) / w < 1e-9

    def test_lambda_two_paths_agree_exactly(self):
        for q in (Q3, HALF, Fraction(4, 5)):
            for n in range(9):
                direct = lambda_exact(n, q)
                via_b = (q / (1 - q)) * (
                    bn_squared_exact(n - 1, q) + bn_squared_exact(n, q)
                )
                assert direct == via_b

    @pytest.mark.parametrize(
        "q",
        [Fraction(1, 64), Q3, HALF, Fraction(37, 64), Fraction(4, 5), Fraction(99, 100)],
        ids=str,
    )
    def test_running_rows_equal_closed_forms(self, q):
        # One pass over a^n, b^n gives the Fractions of the definitions in
        # powers of q, each (numerator, denominator) already in lowest
        # terms: the rounding of a Fraction reads its reduced numerator.
        bracket = Fraction(0)  # [n]_q = 1 + q + ... + q^(n-1)
        rows = zip(islice(_oscillator_rows(q), 201), _bn_squared_rows(q))
        for n, (row, bn_squared) in enumerate(rows):
            below = q ** (-2 * (n - 1)) * bracket
            bracket += q**n
            want = (
                q**-n,
                q ** (-2 * n),
                q ** (-2 * n) * bracket,
                q ** (-2 * n) * bracket + below,
                q ** -(2 * n + 1) * (1 - q ** (n + 1)),
            )
            assert len(row) == 4
            for (num, den), value in zip(row + (bn_squared,), want):
                assert den > 0 and gcd(num, den) == 1, (n, num, den)
                assert Fraction(num, den) == value, n

    @pytest.mark.parametrize("start", [1, 2, 17, 64])
    def test_running_rows_from_any_start(self, start):
        for q in (Q3, Fraction(37, 64)):
            assert list(islice(_oscillator_rows(q, start), 20)) == list(
                islice(_oscillator_rows(q), start, start + 20)
            )
            assert list(islice(_bn_squared_rows(q, start), 20)) == list(
                islice(_bn_squared_rows(q), start, start + 20)
            )

    @pytest.mark.parametrize(
        "q",
        [Fraction(1, 64), Fraction(7, 1024), Fraction(2, 17), HALF, Fraction(63, 64), Fraction(999, 1000)],
        ids=str,
    )
    def test_spectrum_mismatch_agrees_with_fractions(self, q):
        # The two paths of lambda_n as Fractions, and as cross-multiplied
        # integers over tables of every length up to n = 8.
        for n in range(9):
            paths = (q / (1 - q)) * (bn_squared_exact(n - 1, q) + bn_squared_exact(n, q))
            assert lambda_exact(n, q) == paths, n
            a_pow, b_pow = ([p**k for k in range(2 * n + 2)] for p in (q.numerator, q.denominator))
            assert _spectrum_mismatch(a_pow, b_pow) == -1, n

    @pytest.mark.parametrize("q", [Fraction(7, 1024), Fraction(2, 17), Fraction(63, 64)], ids=str)
    def test_spectrum_mismatch_names_a_power_one_exponent_off(self, q):
        # a^k with k = 2n or 2n + 1 enters only one path at that n, and
        # b^(n+1) enters the closed form's first term, so a wrong power
        # shows at the last n that reads it.
        a, b = q.numerator, q.denominator
        a_pow, b_pow = [a**k for k in range(18)], [b**k for k in range(18)]
        assert _spectrum_mismatch(a_pow, b_pow) == -1
        for k in range(3, 18):
            wrong = a_pow[:k] + [a ** (k + 1)] + a_pow[k + 1 :]
            assert _spectrum_mismatch(wrong, b_pow) == min((k + 1) // 2, 8), k
        for k in range(2, 10):
            wrong = b_pow[:k] + [b ** (k + 1)] + b_pow[k + 1 :]
            assert _spectrum_mismatch(a_pow, wrong) == min(k + 1, 8), k

    @pytest.mark.parametrize(
        "q",
        [Fraction(1, 64), Fraction(2, 17), HALF, Fraction(26, 27), Fraction(999, 1000)],
        ids=str,
    )
    def test_integer_closed_forms_equal_product_definitions(self, q):
        # The closed forms of integer powers give the Fractions of the
        # products and powers of q that define them.
        def same(got, want):
            assert type(got) is Fraction and (got.numerator, got.denominator) == (
                want.numerator,
                want.denominator,
            )

        def bracket(n):
            return sum((q**k for k in range(n)), Fraction(0))

        poch = Fraction(1)  # (q; q)_n
        for n in range(25):
            same(qbracket(n, q), bracket(n))
            same(qfactorial_exact(n, q), poch)
            for a in (q, Fraction(-3, 7), Fraction(5, 2), Fraction(0), Fraction(4)):
                want = Fraction(1)
                for j in range(n):
                    want *= 1 - a * q**j
                same(qpochhammer_exact(a, q, n), want)
            same(moment_In_exact(n, q), q ** -(n * n) * poch)
            same(rho_factorial_exact(n, q), (q / (1 - q)) ** n * q ** -(n * n) * poch)
            same(bn_squared_exact(n, q), q ** -(2 * n + 1) * (1 - q ** (n + 1)))
            same(lambda_exact(n, q), q ** (-2 * n) * bracket(n + 1) + q ** (-2 * (n - 1)) * bracket(n))
            poch *= 1 - q ** (n + 1)

    def test_moment_closed_form(self):
        assert moment_In_exact(0, HALF) == 1
        assert moment_In_exact(1, HALF) == 1
        assert moment_In_exact(2, HALF) == 6
        for n in range(1, 8):
            assert moment_In_exact(n, HALF) == (
                bn_squared_exact(n - 1, HALF) * moment_In_exact(n - 1, HALF)
            )

    def test_rho_factorial_ladder_recursion(self):
        for q in (Q3, HALF):
            for n in range(1, 7):
                assert rho_factorial_exact(n, q) == (
                    rho_factorial_exact(n - 1, q)
                    * (q / (1 - q))
                    * bn_squared_exact(n - 1, q)
                )

    def test_extremal_bracket_at_half(self):
        assert [extremal_bracket_exact(s, HALF) for s in range(1, 7)] == [
            1,
            6,
            28,
            120,
            496,
            2016,
        ]
        assert extremal_bracket_exact(1, Q3) == 1

    def test_extremal_bracket_is_bn_ratio(self):
        for q in (Q3, HALF, Fraction(4, 5)):
            for s in range(1, 9):
                assert extremal_bracket_exact(s, q) == (
                    bn_squared_exact(s - 1, q) / bn_squared_exact(0, q)
                )


class TestContext:
    def test_as_fraction_forms(self):
        assert as_fraction("1/2") == HALF
        assert as_fraction("0.3") == Q3
        assert as_fraction(Fraction(2, 3)) == Fraction(2, 3)
        assert as_fraction(1) == 1

    def test_q_domain_validation(self):
        with pytest.raises(DomainError):
            PrecisionContext(q=Fraction(0))
        with pytest.raises(DomainError):
            PrecisionContext(q=Fraction(1))
        with pytest.raises(DomainError):
            PrecisionContext(q=Fraction(3, 2))

    def test_precision_floor(self):
        with pytest.raises(DomainError):
            PrecisionContext(q=HALF, precision_bits=32)

    def test_precision_env_default(self, monkeypatch):
        monkeypatch.delenv("QH_PRECISION_BITS", raising=False)
        assert PrecisionContext(q=HALF).precision_bits == 256
        monkeypatch.setenv("QH_PRECISION_BITS", "128")
        assert PrecisionContext(q=HALF).precision_bits == 128

    def test_context_is_hashable_and_frozen(self):
        a = PrecisionContext(q=HALF)
        b = PrecisionContext(q=HALF)
        assert hash(a) == hash(b)
        with pytest.raises(Exception):
            a.precision_bits = 128

    def test_mpf_of_fraction_rounds_once(self):
        ctx = PrecisionContext(q=Q3)
        v = ctx.mpf(Fraction(1, 3))
        assert abs(v * 3 - 1) <= 2 * ctx.eps
