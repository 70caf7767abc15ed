"""Scalar kernel: q-numbers, Pochhammer symbols, b_n, gex, weight W."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from correctly_rounded import modulus, mul, power, power_of_q, powers, product, quotient, rounded, size
from hypothesis import HealthCheck, example, given, settings, strategies as st
from mpmath.libmp import (
    fone,
    from_man_exp,
    from_rational,
    fzero,
    mpc_div,
    mpc_div_mpf,
    mpc_mpf_div,
    mpc_mul_mpf,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_le,
    mpf_mul,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_rational,
)

from qhermite2 import PrecisionContext, _pairs, qkernel
from qhermite2._pairs import (
    _ZERO,
    _complex_product,
    _complex_quotient,
    _finish_step,
    _hypot,
    _over,
    _plus,
    _power,
    _product,
    _quotient,
    _rational,
    _root,
    _size,
    _sum,
    _times,
)
from qhermite2.errors import DomainError, NoConvergenceError
from qhermite2.exact import GaussianRational, bn_squared_exact
from qhermite2.qcalculus import HAT_DEPTH
from qhermite2.qhermite import hermite2_eval_direct
from qhermite2.qkernel import (
    b_coeff,
    b_table,
    gen_exponential,
    q_pochhammer,
    q_power,
    q_power_raw,
    q_power_run,
    rho_factorial,
    weight_W,
)

GEX_ONE_HALF = "2.172668750849663656016913609859312820656"
W_ONE_HALF = "0.3687561270769005627508456722808199154823"


class TestPochhammer:
    def test_finite_product(self, ctx_half):
        q = ctx_half.mpf(Fraction(1, 2))
        got = q_pochhammer(q, 3, ctx_half)
        want = ctx_half.mpf(Fraction(1, 2) * Fraction(3, 4) * Fraction(7, 8))
        assert abs(got - want) <= 4 * ctx_half.eps


class TestBCoeff:
    def test_convention_and_values(self, ctx_half):
        assert b_coeff(-1, ctx_half) == 0
        assert abs(b_coeff(0, ctx_half) - 1) <= 2 * ctx_half.eps
        b1 = b_coeff(1, ctx_half)
        assert abs(b1 * b1 - 6) <= 16 * ctx_half.eps

    def test_matches_exact_square_at_nondyadic_q(self, all_ctx):
        for ctx in all_ctx:
            for n in range(0, 40, 7):
                b = b_coeff(n, ctx)
                want = ctx.mpf(bn_squared_exact(n, ctx.q))
                assert abs(b * b - want) <= 8 * ctx.eps * want

    def test_strictly_increasing(self, ctx_q8):
        prev = b_coeff(0, ctx_q8)
        for n in range(1, 20):
            cur = b_coeff(n, ctx_q8)
            assert cur > prev
            prev = cur

    def test_domain(self, ctx_half):
        with pytest.raises(DomainError):
            b_coeff(-2, ctx_half)

    @pytest.mark.parametrize("bits", [64, 128, 256, 512])
    @pytest.mark.parametrize(
        "q",
        [Fraction(1, 64), Fraction(2, 17), Fraction(1, 2), Fraction(38, 47), Fraction(63, 64), Fraction(999, 1000)],
        ids=str,
    )
    def test_table_grown_in_steps_is_root_of_rounded_rows(self, q, bits):
        # Grown in steps, the table holds the root of each b_n^2 =
        # q^-(2n+1) (1 - q^(n+1)) with its numerator and quotient rounded first.
        ctx = PrecisionContext(q=q, precision_bits=bits)
        prec = ctx.mp.prec
        squares = (q ** -(2 * n + 1) * (1 - q ** (n + 1)) for n in range(300))
        want = [from_man_exp(*_root(_rational(b2.numerator, b2.denominator, prec), prec)) for b2 in squares]
        for count in (1, 7, 40, 61, 300):
            table = b_table(count, ctx)
            assert len(table) == count
            assert [v._mpf_ for v in table] == want[:count], count


class TestRhoFactorial:
    def test_matches_ladder_product(self, all_ctx):
        for ctx in all_ctx:
            q = ctx.mpf(ctx.q)
            running = ctx.mpf(1)
            for n in range(1, 8):
                running = running * (q / (1 - q)) * b_coeff(n - 1, ctx) ** 2
                closed = rho_factorial(n, ctx)
                assert abs(running - closed) / closed < ctx.mpf("1e-70")


class TestGenExponential:
    def test_reference_value(self, ctx_half):
        got = gen_exponential(1, ctx_half)
        want = ctx_half.mpf(GEX_ONE_HALF)
        assert abs(got - want) / want < ctx_half.mpf("1e-38")

    def test_value_at_zero(self, all_ctx):
        for ctx in all_ctx:
            assert gen_exponential(0, ctx) == 1

    def test_series_definition_partial_sum(self, ctx_q3):
        ctx = ctx_q3
        q = ctx.mpf(ctx.q)
        x = ctx.mpf(Fraction(7, 5))
        total = ctx.mpf(0)
        poch = ctx.mpf(1)
        for n in range(200):
            if n > 0:
                poch = poch * (1 - q**n)
            total = total + q ** (n * n) * x**n / poch
        got = gen_exponential(x, ctx)
        assert abs(got - total) / total < ctx.mpf("1e-70")


def _gex_partial_sum(q, x, cut):
    """(S, T, D): the partial sum S / D of gex(x) = sum_n q^{n^2} x^n / (q; q)_n
    for x >= 0 up to the first term T / D below 2^-cut S / D, exactly, on
    integers over one denominator: for q = a/b and x = u/w each term is
    the one before times a^{2n-1} u / (b^{n-1} (b^n - a^n) w)."""
    a, b, u, w = q.numerator, q.denominator, x.numerator, x.denominator
    total = term = den = 1
    an = bn = 1
    while True:
        rise, fall = an * an * a * u, bn * (bn * b - an * a) * w  # a^{2n-1} u, b^{n-1} (b^n - a^n) w
        an, bn = an * a, bn * b
        term, total, den = term * rise, total * fall + term * rise, den * fall
        if term << cut < total:
            return total - term, term, den


class TestGenExponentialAgainstTheExactSeries:
    """gex(x) at the points the deformed-derivative row once sampled, against
    the exact partial sum over every term down to 2^-520 of it, within
    series_tol plus one rounding (and the omitted tail, below twice the
    first omitted term)."""

    @pytest.mark.parametrize("q", ["1/64", "3/10", "1/2", "4/5", "26/27", "63/64"])
    def test_within_series_tol_and_one_rounding(self, q):
        q = Fraction(q)
        for x in (Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
            total, omitted, den = _gex_partial_sum(q, x, 520)
            for bits in (64, 128, 256, 512):
                ctx = PrecisionContext(q, bits)
                num, exp = to_rational(gen_exponential(x, ctx)._mpf_)  # value num / exp
                # |value - S| <= (series_tol + 2^-bits) S + 2 T, times 2^bits exp den
                gap = abs(num * den - total * exp) << bits
                assert gap <= ((2**20 + 1) * total + (omitted << bits + 1)) * exp, (x, bits)


def _ref_gex_high_precision(q, x, prec):
    """gex(x) summed in mpf at ``prec`` bits until a term falls below
    2^-prec of the largest."""
    mp = PrecisionContext(q, prec).mp
    qv, xv = mp.mpf(q.numerator) / q.denominator, mp.mpf(x)
    total = term = largest = mp.mpf(1)
    n = 0
    while abs(term) >= largest * mp.mpf(2) ** -prec:
        term = term * xv * qv ** (2 * n + 1) / (1 - qv ** (n + 1))
        total += term
        largest = max(largest, abs(term))
        n += 1
    return total


class TestGenExponentialCancellation:
    """Off the positive axis the terms can dwarf the sum: a value returned
    is good to 2^(guard + 12 - bits), guard 20 bits, and the rest refused."""

    @pytest.mark.parametrize("q", ["9/10", "63/64", "99/100"])
    def test_returned_values_are_accurate_or_refused(self, q):
        q = Fraction(q)
        for x in (-1, -10, -30):
            want = _ref_gex_high_precision(q, x, 2048)
            for bits in (64, 128, 256):
                ctx = PrecisionContext(q, bits)
                try:
                    got = gen_exponential(x, ctx)
                except NoConvergenceError:
                    continue
                assert abs(got - want) <= abs(want) * ctx.mpf(2) ** (32 - bits), (x, bits)

    @pytest.mark.parametrize(
        "q, x, bits, lost",
        [("99/100", -10, 64, 63), ("63/64", -30, 128, 127), ("9/10", -10, 128, 26), ("40/41", complex(-3, 1) / 4, 256, 60)],
    )
    def test_silent_wrong_values_are_refused(self, q, x, bits, lost):
        # gex(-10) read -3.02e94 at q = 99/100 and 64 bits (true value
        # -1.3745e21), gex(-30) -3.40e80 at 63/64 and 128 bits (8.21e56)
        with pytest.raises(NoConvergenceError) as err:
            gen_exponential(x, PrecisionContext(Fraction(q), bits))
        assert str(err.value).startswith(f"gen_exponential: the terms cancel: the largest is about 2^{lost} times")
        assert str(err.value).endswith(f"a {bits}-bit value needs the sum formed at {bits + lost} bits or more")

    def test_a_sum_within_the_guard_is_returned(self):
        # at q = 9/10, x = -1 the largest term is 2^12 times the sum
        ctx = PrecisionContext(Fraction(9, 10), 64)
        want = _ref_gex_high_precision(ctx.q, -1, 2048)
        assert abs(gen_exponential(-1, ctx) - want) <= abs(want) * ctx.mpf(2) ** -40

    def test_the_positive_axis_tracks_no_term(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a term tracked on the positive axis")

        monkeypatch.setattr(qkernel, "_Largest", refused)
        ctx = PrecisionContext(Fraction(99, 100), 64)
        for x in (0, Fraction(1, 10), 10, ctx.mpf(30)):
            assert gen_exponential(x, ctx) >= 1


class TestWeightW:
    def test_reference_value(self, ctx_half):
        got = weight_W(1, ctx_half)
        want = ctx_half.mpf(W_ONE_HALF)
        assert abs(got - want) / want < ctx_half.mpf("1e-39")

    def test_positive_and_decaying_on_lattice(self, ctx_half):
        q = ctx_half.mpf(Fraction(1, 2))
        prev = None
        for k in range(0, 30, 3):
            v = weight_W(q ** (-k), ctx_half)
            assert v > 0
            if prev is not None:
                assert v < prev
            prev = v


def _mpf_rule(ctx):
    """The stop rule on raw mpf values: True from the third term in a row
    with last <= tol max(scale, tol), the product by mpf_mul."""
    tol, prec, streak = ctx.mpf(ctx.series_tol)._mpf_, ctx.mp.prec, 0

    def settled(last, scale):
        nonlocal streak
        bound = mpf_mul(tol, tol if mpf_gt(tol, scale) else scale, prec, round_nearest)
        streak = streak + 1 if mpf_le(last, bound) else 0
        return streak >= 3

    return settled


class TestDecay:
    """The monitored-decay stop rule shared by every adaptive series."""

    @staticmethod
    def _run(ctx, lasts, scale):
        decay, rule = qkernel.Decay(ctx), _mpf_rule(ctx)
        raw = [(ctx.mpf(last)._mpf_, ctx.mpf(scale)._mpf_) for last in lasts]
        got = [decay.settled(last[1:3], size[1:3]) for last, size in raw]
        assert got == [rule(last, size) for last, size in raw]
        return got

    def test_three_small_terms_in_a_row_settle(self, ctx_half):
        tol = ctx_half.series_tol
        got = self._run(ctx_half, [tol / 2, tol, tol / 3, tol / 5], 1)
        assert got == [False, False, True, True]

    def test_larger_term_resets_the_count(self, ctx_half):
        tol = ctx_half.series_tol
        got = self._run(ctx_half, [tol / 2, tol / 2, 2 * tol, tol / 2, tol / 2, tol / 2], 1)
        assert got == [False, False, False, False, False, True]

    def test_zero_scale_uses_the_tolerance_floor(self, ctx_half):
        # tol max(0, tol) = tol^2: terms of tol^2 count, twice that does not.
        tol = ctx_half.series_tol
        assert self._run(ctx_half, [tol**2] * 3, 0) == [False, False, True]
        assert self._run(ctx_half, [tol**2, tol**2, 2 * tol**2], 0) == [False, False, False]


@st.composite
def _mantissas(draw, bits: int, full: bool = False):
    """A mantissa of up to ``bits`` bits; with ``full``, of exactly
    ``bits`` bits, each bit below the top one random.  Those long random
    mantissas are where a misrounding shows, and an integer strategy
    rarely draws them."""
    if full and bits:
        return 1 << (bits - 1) | draw(st.randoms(use_true_random=True)).getrandbits(bits - 1)
    return draw(st.integers(0, (1 << bits) - 1))


@st.composite
def _power_bases(draw):
    """q in (0, 1): a rational a/b, a power of two, or a dyadic with a
    full-length random mantissa of 32-600 bits."""
    kind = draw(st.sampled_from(("rational", "dyadic", "random")))
    if kind == "rational":
        b = draw(st.integers(2, 1000))
        return Fraction(draw(st.integers(1, b - 1)), b)
    if kind == "dyadic":
        return Fraction(1, 2 ** draw(st.integers(1, 12)))
    bits = draw(st.integers(32, 600))
    return Fraction(draw(_mantissas(bits, full=True)) | 1, 2**bits)


def _counted(monkeypatch, module, name, index=1) -> list:
    """Record argument ``index`` of each call of ``module.name``: the
    exponent of ``_exact_power`` (1) or of ``q_power_raw`` (0)."""
    calls = []
    original = getattr(module, name)

    def call(*args):
        calls.append(args[index])
        return original(*args)

    monkeypatch.setattr(module, name, call)
    return calls


def _cleared(man, exp):
    """(man, exp) with every bit of man below the top one cleared."""
    return 1 << (man.bit_length() - 1), exp


class TestQPower:
    """q_power_raw is the exact power of ``ctx.qm`` rounded once."""

    # Powers that are short enough to be formed exactly (|n| bc <= 2
    # prec, q = 63/64 up to n = 21 at 64 bits), the powers of q = 1/2
    # (mantissa 1), and the ones rounded from the chain of squarings up
    # to |n| = 2^17.
    EXPONENTS = (
        0, 1, -1, 2, -2, 3, -3, 21, 22, -21, -22, 166, 167, -166, -167, 1000,
        -1000, 12345, -54321, 2**17 - 1, 2**17, -(2**17),
    )

    @pytest.mark.parametrize("bits", [64, 128, 512])
    @pytest.mark.parametrize(
        "q", [Fraction(1, 2), Fraction(63, 64), Fraction(3, 10), Fraction(40, 41)]
    )
    def test_matches_operator_power(self, q, bits):
        # The exact power rounded once everywhere; for n >= 0 that is also
        # ``ctx.qm ** n`` here, whose truncations are too small to move
        # these roundings (it rounds the reciprocal of n < 0 twice).
        ctx = PrecisionContext(q, bits)
        qm = ctx.qm
        for n in self.EXPONENTS + tuple(range(-300, 301)):
            want = power(qm._mpf_, n, bits)
            assert q_power_raw(n, ctx) == want, n
            assert q_power(n, ctx)._mpf_ == want, n  # from the memo
            assert ctx.tables[("q^n", bits)][n] == want, n
            if n >= 0:
                assert want == (qm**n)._mpf_, n

    def test_differs_from_the_operator_power(self):
        # x ** n is mpf_pow_int, which rounds 1/q^|n| twice: at 64 bits it
        # misses the exact power rounded once at these n of q = 3/10.
        ctx = PrecisionContext(Fraction(3, 10), 64)
        qm = ctx.qm
        missed = [n for n in range(-400, 0) if (qm**n)._mpf_ != power(qm._mpf_, n, 64)]
        assert missed
        assert all(q_power_raw(n, ctx) == power(qm._mpf_, n, 64) for n in missed)

    def test_squaring_chains_only_per_working_precision(self):
        ctx = PrecisionContext(Fraction(40, 41), 256)
        for n in range(-3000, 3001):
            q_power_raw(n, ctx)
        chain = ctx.tables[("squarings", 256)]
        assert len(chain) == (3000).bit_length()
        assert all(man.bit_length() <= 256 + _pairs._GUARD for man, _ in chain)

    def test_other_precision_has_its_own_tables(self):
        # Values formed inside workprec go under the key of that
        # precision, each the exact power of the q of that precision.
        ctx = PrecisionContext(Fraction(63, 64), 128)
        for prec in (128 + 77, 128):
            with ctx.mp.workprec(prec):
                q = ctx.qm._mpf_
                assert q == ctx.tables[("q", prec)]
                for n in self.EXPONENTS:
                    want = power(q, n, prec)
                    assert q_power_raw(n, ctx) == want, n
                    assert ctx.tables[("q^n", prec)][n] == want, n
                assert ctx.tables[("squarings", prec)]
                x = Fraction(3, 2)
                assert gen_exponential(x, ctx) == _ref_gen_exponential(x, ctx)
                complements = ctx.tables[("1-q^(n+1)", prec)]
                assert complements
                for n, value in enumerate(complements):
                    want = power(q, n + 1, prec)
                    assert value._mpf_ == mpf_sub(fone, want, prec, round_nearest), n

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        q=_power_bases(),
        bits=st.integers(64, 512),
        ns=st.lists(
            st.one_of(st.integers(-(10**5), 10**5), st.integers(-300, 300)),
            min_size=1,
            max_size=30,
        ),
    )
    def test_property_rational_q(self, q, bits, ns):
        ctx = PrecisionContext(q, bits)
        for n in ns:
            assert q_power_raw(n, ctx) == power(ctx.qm._mpf_, n, bits), n

    @pytest.mark.parametrize("q", [Fraction(29, 30), Fraction(1, 3)], ids=str)
    def test_narrow_guard_keeps_the_rounding(self, monkeypatch, q):
        # With two guard bits the first test decides nothing; the retry
        # at prec + 2 guard bits decides, and only short powers are
        # formed exactly.
        monkeypatch.setattr(_pairs, "_GUARD", 2)
        exact = _counted(monkeypatch, _pairs, "_exact_power")
        ctx = PrecisionContext(q, 256)
        ns = list(range(-200, 200)) + [-54321, 12345, 2**17]
        for n in ns:
            assert q_power_raw(n, ctx) == power(ctx.qm._mpf_, n, 256), n
        assert exact == _short(ns, ctx)

    def test_undecided_powers_are_exact(self, monkeypatch):
        # A value that neither test decides is the exact power rounded
        # once: here every value, cut to its top bit, fails the test.
        start = _pairs._start
        monkeypatch.setattr(_pairs, "_start", lambda *args: _cleared(*start(*args)))
        exact = _counted(monkeypatch, _pairs, "_exact_power")
        ctx = PrecisionContext(Fraction(40, 41), 128)
        ns = [-3000, -77, -3, 0, 2, 5, 1000]
        for n in ns:
            assert q_power_raw(n, ctx) == power(ctx.qm._mpf_, n, 128), n
        assert exact == ns


def _assert_pair_ops(a, b, prec):
    """The pair product and quotient of a and b are bitwise mpf_mul and
    mpf_div at round_nearest, the sum and difference the exact ones
    rounded once, each with a mantissa of at most prec bits."""
    fa, fb = from_man_exp(*a), from_man_exp(*b)
    got = [_product(a, b, prec), _sum(a, b, prec), _sum(a, (-b[0], b[1]), prec)]
    want = [
        mpf_mul(fa, fb, prec, round_nearest),
        rounded(mpf_add(fa, fb), prec),
        rounded(mpf_sub(fa, fb), prec),
    ]
    if b[0]:
        got.append(_quotient(a, b, prec))
        want.append(mpf_div(fa, fb, prec, round_nearest))
    assert [from_man_exp(*pair) for pair in got] == want
    assert all(man.bit_length() <= prec for man, _ in got)


@st.composite
def _pair_operands(draw):
    """prec and two signed pairs with mantissas of up to 2 prec bits."""
    prec = draw(st.integers(64, 512))

    def pair():
        bits = draw(st.integers(0, 2 * prec))
        man = draw(st.integers(0, (1 << bits) - 1)) * draw(st.sampled_from((1, -1)))
        return man, draw(st.integers(-3 * prec, 3 * prec))

    return prec, pair(), pair()


def _assert_step(prec, x, p, drop, p0, b):
    """_finish_step, handed the exact x p or the rounded one as its rise,
    is the plain operations' (x p + drop p0) / b bit for bit: the same
    float, with a mantissa of at most prec bits (a zero may carry any
    exponent)."""
    fall = _product(drop, p0, prec)
    exact = (x[0] * p[0], x[1] + p[1])
    rounded = _product(x, p, prec)
    want = from_man_exp(*_quotient(_sum(rounded, fall, prec), b, prec))
    for rise in (exact, rounded):
        man, exp = _finish_step(rise, drop, p0, b, prec)
        assert from_man_exp(man, exp) == want and man.bit_length() <= prec
    assert want == mpf_div(
        mpf_add(
            mpf_mul(from_man_exp(*x), from_man_exp(*p), prec, round_nearest),
            mpf_mul(from_man_exp(*drop), from_man_exp(*p0), prec, round_nearest),
            prec,
            round_nearest,
        ),
        from_man_exp(*b),
        prec,
        round_nearest,
    )


@st.composite
def _step_operands(draw):
    """prec, x, p, drop, p0 with signed mantissas of up to prec bits, and b > 0."""
    prec = draw(st.integers(64, 512))

    def pair(positive=False):
        bits = draw(st.integers(0 if not positive else 1, prec))
        man = draw(st.integers(1 if positive else 0, (1 << bits) - 1 if bits else 0))
        if not positive:
            man *= draw(st.sampled_from((1, -1)))
        return man, draw(st.integers(-3 * prec, 3 * prec))

    return prec, pair(), pair(), pair(), pair(), pair(positive=True)


class TestIntegerPairs:
    """Integer pairs (man, exp) through _product, _sum and _quotient."""

    @settings(max_examples=300, deadline=None)
    @given(_pair_operands())
    def test_property_matches_mpf(self, operands):
        prec, a, b = operands
        _assert_pair_ops(a, b, prec)
        _assert_pair_ops(b, a, prec)

    @pytest.mark.parametrize("prec", [64, 65, 512])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_forced_cases(self, prec, sign):
        top = 1 << (prec - 1)
        cases = []
        for man in (top | 4, top | 5):  # even and odd: exact ties of both kinds
            cases += [((man << 1, -7), (sign, -7)), ((2 * man + 1, 3), (sign, -1))]
        # The exact result 2^(prec+1) - 1 rounds with a carry to a power of two.
        cases += [(((1 << (prec + 1)) - 2, 0), (1, 0)), (((1 << (prec + 1)) - 1, 5), (1, 0))]
        # Zero operands, with any exponent.
        cases += [((0, 0), (top | 3, 9)), ((top | 3, 9), (0, 0)), ((0, 40), (0, -40))]
        # Differences that cancel to exactly 0 from unequal representations.
        cases += [((top | 3, 9), (-(top | 3), 9)), ((top | 3, 9), (-((top | 3) << 5), 4))]
        # Addends far apart: the smaller one below the larger one's
        # lowest set bit, for a larger addend of at most prec bits and of
        # 2 prec bits, and one that leaves the sum exact.
        cases += [((top | 3, 400), (7, 0)), (((top << prec) | 9, 400), (7, 0))]
        cases += [((top | 3, 0), (5, -150)), ((5, -150), (top | 3, 0))]
        # Exact quotients (no remainder), by powers of two as well.
        cases += [((top * 12345, 4), (12345, -8)), ((top | 3, 4), (1 << 7, 3)), ((top | 3, 4), (1, -5))]
        for a, b in cases:
            a = (sign * a[0], a[1])
            _assert_pair_ops(a, b, prec)
            _assert_pair_ops(b, a, prec)

    @pytest.mark.parametrize("prec", [64, 65, 512])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_perturbation_branch_off_correct_rounding(self, prec, sign):
        # One unit above a midpoint, less a tail longer than that unit but
        # far below the leading bits: mpf_add's perturbation branch rounds
        # as if the tail were shorter than the unit, away from the correct
        # rounding; the pair sum rounds correctly.
        above = ((((1 << (prec - 1)) | 1) << prec) | (1 << (prec - 1)) | 1, 200)
        tail = (-((1 << 150) - 1), 60)
        a, b = (sign * above[0], above[1]), (sign * tail[0], tail[1])
        exact = Fraction(a[0]) * 2 ** a[1] + Fraction(b[0]) * 2 ** b[1]
        correct = from_man_exp(exact.numerator, 0, prec, round_nearest)
        assert mpf_add(from_man_exp(*a), from_man_exp(*b), prec, round_nearest) != correct
        assert _raw(_sum(a, b, prec)) == _raw(_sum(b, a, prec)) == correct
        _assert_pair_ops(a, b, prec)
        _assert_pair_ops(b, a, prec)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        bits=st.integers(64, 512),
        terms=st.lists(
            st.tuples(
                st.integers(0, 2**70),  # scale mantissa, 0 included
                st.integers(-80, 80),  # scale exponent
                st.sampled_from(("at", "above", "below", "far", "zero")),
                st.integers(1, 2**40),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_decay_pair_form_streaks_as_mpf_form(self, bits, terms):
        """Decay.settled on pairs gives the mpf rule's sequence on the same
        terms, which sit at, next to and away from the rounded bound."""
        ctx = PrecisionContext(Fraction(1, 2), bits)
        decay, rule = qkernel.Decay(ctx), _mpf_rule(ctx)
        tol = ctx.mpf(ctx.series_tol)
        got, want = [], []
        for scale_man, scale_exp, where, spread in terms:
            scale = (scale_man, scale_exp)
            floor = max(ctx.mp.make_mpf(from_man_exp(*scale)), tol)
            _, bm, be, _ = mpf_mul(tol._mpf_, floor._mpf_, bits, round_nearest)
            last = {
                "at": (bm, be),
                "above": ((bm << 40) + spread, be - 40),
                "below": ((bm << 40) - spread, be - 40),
                "far": (spread, be + (spread % 9) - 4),
                "zero": (0, 3),
            }[where]
            want.append(rule(from_man_exp(*last), from_man_exp(*scale)))
            got.append(decay.settled(last, scale))
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(_step_operands())
    def test_finish_step_matches_plain_operations(self, operands):
        prec, x, p, drop, p0, b = operands
        _assert_step(prec, x, p, drop, p0, b)

    @pytest.mark.parametrize("prec", [64, 65, 512])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_finish_step_forced_cases(self, prec, sign):
        top = 1 << (prec - 1)
        one, two = (top | 5, 3), (top | 9, -4)
        b = (top | 3, 2)
        cases = [
            # A zero rise (x = 0 or p = 0) and a zero drop (p0 = 0).
            ((0, 7), one, (-(top | 1), 0), two, b),
            (one, (0, -9), (-(top | 1), 0), two, b),
            (one, two, (-(top | 1), 0), (0, 5), b),
            (one, two, (0, 0), two, b),
            # x p and drop p0 cancel exactly.
            ((top | 3, 0), (top | 7, 0), (-(top | 3), 0), (top | 7, 0), b),
            ((top, 1), (top | 7, 0), (-top, 0), (top | 7, 1), b),
            # Exponent gaps above 2 prec: the step falls back to _sum.
            (one, two, (-(top | 1), -3 * prec), two, b),
            (one, two, (-(top | 1), 3 * prec), two, b),
            # b a power of two: an exact quotient, and one of mantissa 1.
            (one, two, (-(top | 1), 0), two, (top, 5)),
            (one, two, (-(top | 1), 0), two, (1, -7)),
        ]
        # Exact ties of both parities, b = 1: in the product, 3 (top + k)
        # has prec + 1 bits and ends in 1, and its tie rounds up (k = 1)
        # or down (k = 3); in the sum, man - 1/2 rounds up for an even
        # man and down for an odd one.
        for k in (1, 3):
            cases.append(((top | k, 0), (3, 0), (-1, 0), (0, 0), (1, 0)))
        for man in (top | 4, top | 5):
            cases.append(((man, 0), (1, 0), (-1, -1), (1, 0), (1, 0)))
        for x, p, drop, p0, b in cases:
            _assert_step(prec, (sign * x[0], x[1]), p, drop, p0, b)


def _raw(pair):
    return from_man_exp(*pair)


class TestPairPower:
    """``_pairs._power``: the exact integer power, rounded once."""

    @pytest.mark.parametrize("prec", [53, 64, 512])
    def test_small_exponents_of_either_sign(self, prec):
        bases = ((3, -2), (-3, -2), ((1 << prec) + 1, -prec), (1 - (1 << prec), 5), (1, -7))
        for man, exp in bases:
            for n in range(-6, 7):
                want = _nearest(Fraction(man) ** n * Fraction(2) ** (exp * n), prec)
                assert _raw(_power((man, exp), n, prec)) == want, (man, n)

    def test_zero_exponent_and_zero_base(self):
        assert _power((12345, -7), 0, 64) == (1, 0)
        assert _power((0, 5), 0, 64) == (1, 0)
        assert _power((0, 5), 3, 64)[0] == 0

    @pytest.mark.parametrize("prec", [64, 256])
    def test_far_exponents(self, prec):
        # A 128-bit mantissa to the 5000th: 640,000 bits, rounded once.
        base = ((1 << 127) | 0x5DEECE66D2B3F1A9, -128)
        for n in (5000, -5000, 4999, -4999):
            assert _raw(_power(base, n, prec)) == power(_raw(base), n, prec), n

    def test_long_powers_are_not_formed_exactly(self, monkeypatch):
        # |z|^(2 trunc + 2) of cs_coeffs at trunc = 10000 and 512 bits: the
        # truncated power decides, not a power of five million bits.
        exact = _counted(monkeypatch, _pairs, "_exact_power")
        base = ((1 << 511) | 0x5DEECE66D2B3F1A9 << 300 | 0xB, -512)
        for n in (10001, -10001, 12345, -3):
            assert _raw(_power(base, n, 512)) == power(_raw(base), n, 512), n
        assert exact == []

    @pytest.mark.parametrize("prec", [64, 256])
    def test_narrow_guard_keeps_the_rounding(self, monkeypatch, prec):
        # With two guard bits the first test decides nothing, and the
        # retry at prec + 2 guard bits decides every long power.
        monkeypatch.setattr(_pairs, "_GUARD", 2)
        exact = _counted(monkeypatch, _pairs, "_exact_power")
        base = ((1 << (prec - 1)) | 0x5DEECE66D2B3F1A9, -prec - 3)
        ns = (-1000, -7, 7, 5000)
        for n in ns:
            assert _raw(_power(base, n, prec)) == power(_raw(base), n, prec), n
            man, exp = _power((-base[0], base[1]), n, prec)
            assert _raw((-man if n & 1 else man, exp)) == power(_raw(base), n, prec), n
        assert exact == []


def _assert_complex_ops(a, b, prec):
    """The complex pair operations on a and b, and a's real part over b,
    are the exact results rounded once (``correctly_rounded``), each part;
    a real factor or divisor is bitwise mpc_mul_mpf or mpc_div_mpf at
    round_nearest, a root of a part mpf_sqrt."""
    za, zb = (_raw(a[0]), _raw(a[1])), (_raw(b[0]), _raw(b[1]))
    got = [_complex_product(a, b, prec), _times(a, b, prec), _times(a[0], b, prec)]
    want = [product(za, zb, prec)] * 2 + [mpc_mul_mpf(zb, za[0], prec, round_nearest)]
    if b[0][0] or b[1][0]:
        got += [_complex_quotient(a, b, prec), _over(a[0], b, prec)]
        want += [quotient(za, zb, prec), quotient((za[0], fzero), zb, prec)]
    if b[0][0]:
        got.append(_over(a, b[0], prec))
        want.append(mpc_div_mpf(za, zb[0], prec, round_nearest))
    assert [(_raw(re), _raw(im)) for re, im in got] == want
    assert _raw(_hypot(a, prec)) == modulus(za, prec)
    for part in (a[0], a[1], b[0]):
        if part[0] > 0:
            assert _raw(_root(part, prec)) == mpf_sqrt(_raw(part), prec, round_nearest)


@st.composite
def _complex_operands(draw):
    """prec and two complex values whose parts have up to prec bits, or
    up to 2 prec bits in a wide draw; about half of the parts have
    exactly that many, each random (:func:`_mantissas`), and about half
    of the real parts are exact zeros, so that two imaginary values
    meet in about a quarter of the draws."""
    prec = draw(st.integers(64, 512))
    wide = draw(st.booleans())

    def part():
        full, longest = draw(st.booleans()), 2 * prec if wide else prec
        bits = longest if full else draw(st.integers(0, longest))
        man = draw(_mantissas(bits, full)) * draw(st.sampled_from((1, -1)))
        return man, draw(st.integers(-3 * prec, 3 * prec))

    def real_part():
        return (0, draw(st.integers(-3 * prec, 3 * prec))) if draw(st.booleans()) else part()

    return prec, (real_part(), part()), (real_part(), part())


class TestComplexPairs:
    """Complex values as pairs of integer pairs, and the root their
    modulus uses."""

    @settings(max_examples=300, deadline=None)
    @given(_complex_operands())
    def test_property_matches_mpc(self, operands):
        prec, a, b = operands
        _assert_complex_ops(a, b, prec)
        _assert_complex_ops(b, a, prec)

    @pytest.mark.parametrize("prec", [64, 65, 512])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_forced_cases(self, prec, sign):
        top = 1 << (prec - 1)
        one = (top | 5, 3)
        wide = (1 << (2 * prec - 1)) | (1 << (2 * prec - 1)) // 3  # 2 prec bits, 1010...
        cases = [
            # Zero parts: a real or an imaginary value, and zero.
            ((one, (0, 0)), ((top | 3, -2), (0, 9))),
            (((0, 4), one), ((0, 0), (top | 3, -2))),
            ((one, (top | 9, 1)), ((0, 0), (0, 0))),
            # Two imaginary values with 2 prec-bit parts, of either sign.
            (((0, 4), (wide | 1, -prec)), ((0, -9), (wide + 7, 2))),
            (((0, 0), (-(wide | 3), 5)), ((0, 0), (wide + 11, -3 * prec))),
            (((0, 7), (wide + 5, 0)), ((0, 1), (-(wide | 9), prec))),
            (((0, -2), (-(wide + 13), -1)), ((0, 0), (-(wide | 5), 1))),
            # Parts far apart, with a short larger part and a long one.
            ((one, (7, -200)), ((top | 3, 0), (-5, -300))),
            ((((top << prec) | 9, 400), (7, 0)), ((top | 3, 0), (-(top | 1), -150))),
            # Parts that cancel in the product and the quotient.
            (((top | 3, 0), (top | 3, 0)), ((top | 3, 0), (-(top | 3), 0))),
            # A power of two and exact squares.
            (((1, 0), (1, 0)), ((3, 0), (4, 0))),
        ]
        for a, b in cases:
            a = ((sign * a[0][0], a[0][1]), a[1])
            _assert_complex_ops(a, b, prec)
            _assert_complex_ops(b, a, prec)

    def test_division_intermediates(self):
        # Found by a random search at 64 bits, as inputs whose quotient
        # depends on how |b|^2 and the numerators are rounded: libmpc's
        # mpc_div and mpc_mpf_div truncate them at prec + 10 bits, and
        # rounding them to nearest, or at prec + 8 or prec + 12 bits,
        # changed the quotient.  On the first of each, libmpc misses the
        # exact quotient rounded once.
        quotients = (
            (((-7763478140771780560, -1), (-4791979854294950323, -3)),
             ((1170713156280938258, 3), (-4897839338904714732, 1))),
            (((-3929686852997363475, 0), (-10923454586666718505, -3)),
             ((13325228199746372073, -2), (-1340699641446110265, 2))),
        )
        for a, b in quotients:
            _assert_complex_ops(a, b, 64)
        real_over_complex = (
            ((8130245837406991366, -1), ((2582700801479055601, 1), (-5684893323576096605, 3))),
            ((4273281819871564349, -2), ((-13168530585649637340, -3), (1483657102989929222, 1))),
        )
        for x, b in real_over_complex:
            _assert_complex_ops((x, (0, 0)), b, 64)
        (a, b), (x, c) = quotients[0], real_over_complex[0]
        za, zb, zc = (_raw(a[0]), _raw(a[1])), (_raw(b[0]), _raw(b[1])), (_raw(c[0]), _raw(c[1]))
        assert mpc_div(za, zb, 64, round_nearest) != quotient(za, zb, 64)
        assert mpc_mpf_div(_raw(x), zc, 64, round_nearest) != quotient((_raw(x), fzero), zc, 64)


def _dyadic(a):
    """The exact value of a pair, or (re, im) of a complex value."""
    if type(a[0]) is tuple:
        return _dyadic(a[0]), _dyadic(a[1])
    return Fraction(a[0]) * Fraction(2) ** a[1]


def _nearest(x, prec):
    """The rational x rounded once to prec bits, to nearest, ties to even."""
    return from_rational(x.numerator, x.denominator, prec, round_nearest)


def _nearest_root(x, prec):
    """sqrt(x) of a dyadic x >= 0 rounded once to prec bits."""
    return mpf_sqrt(from_man_exp(x.numerator, 1 - x.denominator.bit_length()), prec, round_nearest)


def _want(op, x, y, prec):
    """x * y, x / y or x + y of real or complex pairs, the exact value
    rounded once: a raw mpf, or raw (re, im) if an operand is complex."""
    (a, b), (c, d) = (_dyadic(v) if type(v[0]) is tuple else (_dyadic(v), 0) for v in (x, y))
    if op == "*":
        re, im = a * c - b * d, a * d + b * c
    elif op == "/":
        mag = c * c + d * d
        re, im = (a * c + b * d) / mag, (b * c - a * d) / mag
    else:
        re, im = a + c, b + d
    if type(x[0]) is tuple or type(y[0]) is tuple:
        return _nearest(re, prec), _nearest(im, prec)
    return _nearest(re, prec)


def _value(a):
    """A real or complex pair value as a raw mpf or (re, im)."""
    if type(a[0]) is tuple:
        return _raw(a[0]), _raw(a[1])
    return _raw(a)


def _narrow(a, prec):
    """A real or complex value with each part rounded to prec bits."""
    if type(a[0]) is tuple:
        return _narrow(a[0], prec), _narrow(a[1], prec)
    sign, man, exp, _ = from_man_exp(a[0], a[1], prec, round_nearest)
    return -man if sign else man, exp


def _is_zero(a):
    """Whether the real or complex pair value a is 0."""
    if type(a[0]) is tuple:
        return not (a[0][0] or a[1][0])
    return not a[0]


def _assert_correctly_rounded(prec, a, b, z, w):
    """Every pair operation on the reals a, b and the complex z, w is the
    exact result rounded once, each part.  A real addend keeps the other
    part of a complex one, and |a| of a real a is exact: those take
    operands of at most prec bits."""
    A, B, Z = _dyadic(a), _dyadic(b), _dyadic(z)
    assert _raw(_product(a, b, prec)) == _nearest(A * B, prec)
    assert _raw(_sum(a, b, prec)) == _raw(_sum(b, a, prec)) == _nearest(A + B, prec)
    if B:
        assert _raw(_quotient(a, b, prec)) == _nearest(A / B, prec)
    if A:
        assert _raw(_root((abs(a[0]), a[1]), prec)) == _nearest_root(abs(A), prec)
    assert _value(_complex_product(z, w, prec)) == _want("*", z, w, prec)
    if not _is_zero(w):
        assert _value(_complex_quotient(z, w, prec)) == _want("/", z, w, prec)
    assert _raw(_hypot(z, prec)) == _raw(_size(z, prec)) == _nearest_root(Z[0] ** 2 + Z[1] ** 2, prec)
    for x, y in ((a, b), (a, w), (z, b), (z, w)):
        assert _value(_times(x, y, prec)) == _want("*", x, y, prec)
        if not _is_zero(y):
            assert _value(_over(x, y, prec)) == _want("/", x, y, prec)
        if type(x[0]) is not type(y[0]):
            x, y = _narrow(x, prec), _narrow(y, prec)
        assert _value(_plus(x, y, prec)) == _want("+", x, y, prec)
    a = _narrow(a, prec)
    assert _raw(_size(a, prec)) == _nearest(abs(_dyadic(a)), prec)


@st.composite
def _mixed_operands(draw):
    """prec in 53-512, two reals and two complex values whose parts have
    mantissas of up to 2 prec bits, about half of them exactly 2 prec
    bits, each random (:func:`_mantissas`), and exponents up to 3 prec
    apart."""
    prec = draw(st.integers(53, 512))

    def part():
        full = draw(st.booleans())
        bits = 2 * prec if full else draw(st.integers(0, 2 * prec))
        man = draw(_mantissas(bits, full)) * draw(st.sampled_from((1, -1)))
        return man, draw(st.integers(-3 * prec, 3 * prec))

    return prec, part(), part(), (part(), part()), (part(), part())


def _complexed(a):
    """a as a complex value: a real one with a zero imaginary part."""
    return a if type(a[0]) is tuple else (a, _ZERO)


class TestCorrectRounding:
    """Every pair operation, real, complex or mixed, is the exact result
    rounded once to nearest, ties to even."""

    @settings(max_examples=300, deadline=None)
    @given(_mixed_operands())
    # The larger addend has 2 prec bits, and the smaller one lies 150 bits
    # below its normalized exponent but reaches above its lowest set bit:
    # mpf_add's perturbation branch misrounds this sum.
    @example((64, (2**127 + 2**63 - 1, 0), (2**200 - 1, -150), ((1, 0), (0, 0)), ((0, 0), (1, 0))))
    @example((64, (-(2**127 + 2**63 - 1), 0), (1 - 2**200, -150), ((1, 0), (0, 0)), ((0, 0), (1, 0))))
    def test_property_every_operation(self, operands):
        _assert_correctly_rounded(*operands)

    @pytest.mark.parametrize("prec", [53, 64, 65, 512])
    def test_far_exponent_gaps(self, prec):
        # Parts 20,000 bits apart in exponent: the exact |b|^2, numerators
        # and sum of squares are 40,000 bits wide, which takes milliseconds.
        # The larger part, of prec + 1 bits, is a midpoint, which the
        # smaller one decides: truncating the sums at prec + 4 or prec + 10
        # bits, as libmpc does, drops it.
        big, tiny = ((1 << prec) + 1, 0), (-((1 << (prec - 1)) | 3), -20000)
        z, w = (big, tiny), (tiny, big)
        start = time.perf_counter()
        _hypot(z, prec)
        _hypot(w, prec)
        _complex_quotient(z, w, prec)
        _complex_quotient(w, z, prec)
        assert time.perf_counter() - start < 0.25
        _assert_correctly_rounded(prec, big, tiny, z, w)
        _assert_correctly_rounded(prec, tiny, big, w, z)

    @settings(max_examples=200, deadline=None)
    @given(_mixed_operands())
    # A real over a complex value: truncating |b|^2 at prec + 10 bits, as
    # mpc_mpf_div does, and also the numerators, as mpc_div does, gave two
    # different quotients.
    @example((64, (8130245837406991366, -1), (1, 0), ((1, 0), (0, 0)),
              ((2582700801479055601, 1), (-5684893323576096605, 3))))
    def test_property_real_is_complex_with_zero_imaginary_part(self, operands):
        # Since every operation rounds correctly, the type of an operand
        # changes only the cost: _times and _over of real operands, or of
        # a real and a complex one, give the values of the complex
        # operations on the operands made complex.
        prec, a, b, z, w = operands
        for x, y in ((a, b), (a, w), (z, b)):
            ops = (_times, _over) if not _is_zero(y) else (_times,)
            for op in ops:
                want = _value(op(_complexed(x), _complexed(y), prec))
                for u, v in ((x, y), (_complexed(x), y), (x, _complexed(y))):
                    assert _value(_complexed(op(u, v, prec))) == want, (op, u, v)
        a = _narrow(a, prec)
        assert _raw(_size(a, prec)) == _raw(_size(_complexed(a), prec))


def _short(ns, ctx):
    """The n whose power q^n is formed exactly: a q of mantissa m with
    |n| bit_length(m) <= 2 prec."""
    _, _, _, bc = ctx.qm._mpf_
    return [n for n in ns if abs(n) * bc <= 2 * ctx.mp.prec]


def _representable(ns, ctx):
    """The n whose power q^n has at most prec bits, for q not a power of
    two: those the run's test cannot decide."""
    man, count, exact = ctx.qm._mpf_[1], 0, 1
    while exact.bit_length() <= ctx.mp.prec:
        count, exact = count + 1, exact * man
    return [n for n in ns if 0 <= n < count]


def _run(start, stop, ctx):
    """q_power_run's pairs as raw mpf values; each mantissa has the
    working precision's bits, or one more where rounding carried."""
    prec = ctx.mp.prec
    out = []
    for man, exp in q_power_run(start, stop, ctx):
        assert man >> (prec - 1) == 1 or man == 1 << prec
        out.append(from_man_exp(man, exp))
    return out


def _exact_run(start, stop, ctx):
    return powers(ctx.qm._mpf_, start, stop, ctx.mp.prec)


class TestQPowerRun:
    """q_power_run yields the exact q^n rounded once for consecutive n."""

    # Ranges across zero, and runs that start deep on either side.
    RANGES = ((-1500, 1500), (-40000, -39000), (39000, 40000))

    @pytest.mark.parametrize("bits", [64, 128, 256, 512])
    @pytest.mark.parametrize(
        "q",
        [Fraction(1, 64), Fraction(1, 2), Fraction(3, 4), Fraction(29, 30),
         Fraction(63, 64), Fraction(999, 1000)],
        ids=str,
    )
    def test_matches_q_power_raw(self, q, bits):
        ctx = PrecisionContext(q, bits)
        for start, stop in self.RANGES:
            want = _exact_run(start, stop, ctx)
            assert _run(start, stop, ctx) == want
            assert [q_power_raw(n, ctx) for n in range(start, stop)] == want

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        q=_power_bases(),
        bits=st.integers(64, 512),
        start=st.one_of(
            st.integers(-(10**4), 10**4),
            st.integers(-40000, -39800),
            st.integers(39800, 40000),
        ),
        length=st.integers(0, 300),
    )
    def test_property_rational_q(self, q, bits, start, length):
        ctx = PrecisionContext(q, bits)
        want = _exact_run(start, start + length, ctx)
        assert _run(start, start + length, ctx) == want
        assert [q_power_raw(n, ctx) for n in range(start, start + length)] == want

    @pytest.mark.parametrize("guard, certified", [(64, True), (2, False)])
    def test_fallback_keeps_the_bits(self, monkeypatch, guard, certified):
        # The rounding test decides every step at the default guard but
        # the exactly representable powers; with two guard bits it
        # decides none, each step falls back to q_power_raw, and that
        # retries with prec + 2 guard bits.
        ctx = PrecisionContext(Fraction(29, 30), 256)
        ns = range(-1500, 1500)
        monkeypatch.setattr(_pairs, "_GUARD", guard)
        calls = _counted(monkeypatch, qkernel, "q_power_raw", 0)
        assert _run(ns.start, ns.stop, ctx) == _exact_run(ns.start, ns.stop, ctx)
        assert calls == (_representable(ns, ctx) if certified else list(ns))
        assert _representable(ns, ctx) == [0, 1]

    def test_other_precision_certifies(self, monkeypatch):
        # Inside workprec the run certifies its steps as at the context
        # precision and calls q_power_raw for the representable powers
        # only: q^0 and q^1 of the long mantissa of 40/41.
        self._certifies_inside_workprec(monkeypatch, Fraction(40, 41), [0, 1])

    def test_other_precision_certifies_short_mantissa(self, monkeypatch):
        # The powers 3^n 2^(-2n) of q = 3/4 are representable in 205 bits
        # up to n = 129.
        self._certifies_inside_workprec(monkeypatch, Fraction(3, 4), list(range(130)))

    @staticmethod
    def _certifies_inside_workprec(monkeypatch, q, representable):
        ctx = PrecisionContext(q, 128)
        ns = range(-2000, 2000)
        calls = _counted(monkeypatch, qkernel, "q_power_raw", 0)
        with ctx.mp.workprec(128 + 77):
            assert _run(ns.start, ns.stop, ctx) == _exact_run(ns.start, ns.stop, ctx)
            assert calls == _representable(ns, ctx) == representable


# Test-local copies of the series kernels on mpf/mpc values, with each
# power q^n, product or quotient of complex values and complex modulus
# the exact result rounded once (``correctly_rounded``); the
# kernel-routed versions must equal them.


def _top(v):
    """The t of 2^(t-1) <= |v| < 2^t of a nonzero mpf."""
    _, _, exp, bc = v._mpf_
    return exp + bc


def _ref_gen_exponential(x, ctx):
    # Off the positive axis it refuses a sum whose largest term is more
    # than 2^20 times its modulus, as the kernel does.
    mp = ctx.mp
    xv = ctx.mpc(x) if isinstance(x, (complex, mp.mpc)) else ctx.mpf(x)
    tol = ctx.mpf(ctx.series_tol)
    total = xv * 0
    term = largest = 1 + xv * 0
    streak = 0
    for n in range(ctx.max_terms):
        total = total + term
        ratio = power_of_q(ctx, 2 * n + 1) * xv / (1 - power_of_q(ctx, n + 1))
        term = mul(term, ratio)
        largest = max(size(largest), size(term))
        if size(term) <= tol * size(total):
            streak += 1
            if streak >= 3 and size(ratio) < 0.5:
                signed = isinstance(xv, mp.mpc) or xv < 0
                if signed and (not total or _top(largest) - _top(size(total)) > 20):
                    raise NoConvergenceError("reference gen_exponential: the terms cancel")
                return total
        else:
            streak = 0
    raise NoConvergenceError("reference gen_exponential did not converge")


def _value_or_refusal(kernel, x, ctx):
    """kernel(x, ctx), or NoConvergenceError if it raised that."""
    try:
        return kernel(x, ctx)
    except NoConvergenceError:
        return NoConvergenceError


def _exact_point(x):
    """The exact value of x (int, Fraction, complex, mpf or mpc) as a
    GaussianRational."""
    if isinstance(x, complex):
        return GaussianRational(Fraction(x.real), Fraction(x.imag))
    if hasattr(x, "_mpc_"):
        return GaussianRational(*(Fraction(*to_rational(part)) for part in x._mpc_))
    if hasattr(x, "_mpf_"):
        return GaussianRational(Fraction(*to_rational(x._mpf_)))
    return GaussianRational(Fraction(x))


def _ref_hermite2_eval_direct(n, x, ctx):
    # i^{-n} q^{-binom(n,2)} 2phi0(q^{-n}, ix; -; q, -q^n) at the exact x,
    # term by term from the definition of rphi_s (r = 2, s = 0) in
    # Fractions, each part of the sum rounded once.
    q, I = ctx.q, GaussianRational.I
    a, b, z = q**-n, I * _exact_point(x), -(q**n)
    total = GaussianRational.ZERO
    poch_a, poch_b, poch_q = Fraction(1), GaussianRational.ONE, Fraction(1)
    for k in range(n + 1):
        total = total + poch_b * (poch_a / poch_q * z**k / ((-1) ** k * q ** (k * (k - 1) // 2)))
        poch_a *= 1 - a * q**k
        poch_b = poch_b * (1 - b * q**k)
        poch_q *= 1 - q ** (k + 1)
    value = (-I) ** n * total * q ** -(n * (n - 1) // 2)
    prec = ctx.mp.prec
    parts = (from_rational(p.numerator, p.denominator, prec, round_nearest) for p in (value.re, value.im))
    return ctx.mp.make_mpc(tuple(parts))


SERIES_CONTEXTS = [
    pytest.param(Fraction(q), bits, id=f"{q}-{bits}")
    for q in ("1/64", "3/10", "1/2", "32/33", "40/41", "63/64")
    for bits in (64, 256)
]

@pytest.mark.parametrize("q, bits", SERIES_CONTEXTS)
class TestSeriesKernelsBitwise:
    def test_gen_exponential(self, q, bits):
        # Twice each: the first call grows the context's tables, the
        # second reads them.
        ctx = PrecisionContext(q, bits)
        # Near q = 1 the terms at -7/3 and (-3 + i)/4 cancel past the
        # guard, and both refuse them.
        for x in (Fraction(1, 2), Fraction(-7, 3), 5, complex(1, -2), complex(-3, 1) / 4) * 2:
            got = _value_or_refusal(gen_exponential, x, ctx)
            assert got == _value_or_refusal(_ref_gen_exponential, x, ctx), x

    def test_hermite2_eval_direct(self, q, bits):
        ctx = PrecisionContext(q, bits)
        for n in (0, 1, 2, 5, 9):
            for x in (Fraction(1, 2), Fraction(-13, 5)):
                got = hermite2_eval_direct(n, x, ctx)
                assert got == _ref_hermite2_eval_direct(n, x, ctx), (n, x)

    def test_gen_exponential_at_caller_arguments(self, q, bits):
        _check_gen_exponential_at_caller_arguments(PrecisionContext(q, bits))

    def test_hermite2_eval_direct_at_recurrence_points(self, q, bits):
        _check_hermite2_eval_direct_at_recurrence_points(PrecisionContext(q, bits), range(13))


def _gen_exponential_caller_arguments(ctx):
    """Arguments with which the package calls gen_exponential: 0; N^2 at
    rings |z|^2 = (q/(1-q)) q^m, formed as ``cs_norm_sq`` forms them, for
    exponents 1 - k and k + 2 at some k <= HAT_DEPTH; the exact ring
    points q^(K+1) and q^(K+2) at which ``build_measure`` seeds the
    z-radial normalizers (the other rings come from the q-difference
    equation).  Then complex arguments, which gen_exponential accepts:
    w = (1-q)/q conj(z1) z2, the argument of the reproducing kernel,
    real-valued for z1 = z2."""
    q = ctx.qm
    c = q / (1 - q)
    args = [0, ctx.mpf(0), ctx.mpc(0)]
    for k in (0, 1, 2, HAT_DEPTH // 2, HAT_DEPTH):
        for m in (1 - k, k + 2):
            args.append((1 - q) / q * (c * q_power(m, ctx)))
    for K in (8, HAT_DEPTH):
        args += [q_power(K + 1, ctx), q_power(K + 2, ctx)]
    for z1, z2 in ((complex(1, 2), complex(-0.5, 0.75)), (complex(3, -1), complex(3, -1)), (2, complex(0, 1))):
        args.append((1 - q) / q * ctx.mp.conj(ctx.mpc(z1)) * ctx.mpc(z2))
    return args


def _check_gen_exponential_at_caller_arguments(ctx):
    for x in _gen_exponential_caller_arguments(ctx):
        assert gen_exponential(x, ctx) == _ref_gen_exponential(x, ctx), x


def _check_hermite2_eval_direct_at_recurrence_points(ctx, degrees):
    # As suites.recurrence passes them: mpf points of the context; and a
    # complex dyadic point.  H~_n has the parity of n, bit for bit.
    points = [ctx.mpf(x) for x in (0, Fraction(1, 2), Fraction(-1, 2), 1, -1, 2, -2)]
    points.append(ctx.mpc(complex(0.75, -1.5)) + ctx.mpf(Fraction(1, 3)))
    for n in degrees:
        for xv in points:
            got = hermite2_eval_direct(n, xv, ctx)
            assert got == _ref_hermite2_eval_direct(n, xv, ctx), (n, xv)
            assert hermite2_eval_direct(n, -xv, ctx) == (-1) ** n * got, (n, xv)


@pytest.mark.parametrize("bits", [128, 512])
@pytest.mark.parametrize("q", [Fraction(3, 10), Fraction(63, 64)], ids=str)
def test_series_kernels_bitwise_at_128_and_512_bits(q, bits):
    ctx = PrecisionContext(q, bits)
    _check_gen_exponential_at_caller_arguments(ctx)
    _check_hermite2_eval_direct_at_recurrence_points(ctx, (0, 1, 7, 12))


# The mpf/mpc operators of a context; the series kernels call them only
# for conversions outside their loops.
_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__neg__", "__abs__",
    "__lt__", "__le__", "__gt__", "__ge__",
)


class TestOperatorCalls:
    """The series run on integer pairs: the operator calls of one call
    do not grow with its number of terms."""

    @staticmethod
    def _counter(monkeypatch, ctx):
        calls = []
        for cls in (ctx.mp.mpf, ctx.mp.mpc):
            for name in _OPERATORS:
                method = getattr(cls, name)

                def counted(*args, _method=method):
                    calls.append(1)
                    return _method(*args)

                monkeypatch.setattr(cls, name, counted)
        return calls

    def test_gen_exponential(self, monkeypatch):
        ctx = PrecisionContext(Fraction(19, 20), 256)
        calls = self._counter(monkeypatch, ctx)
        terms = {}
        for x in (Fraction(1, 1000), Fraction(3, 2), Fraction(3, 2)):
            before = len(calls)
            assert gen_exponential(x, ctx) > 1
            terms[x] = len(ctx.tables[("1-q^(n+1)", 256)])
            assert len(calls) - before <= 4, (x, len(calls) - before)
        # The table of 1 - q^(n+1) grows to the longest series so far:
        # 26 terms at x = 1/1000, 65 at x = 3/2.
        assert terms[Fraction(1, 1000)] < 30 and terms[Fraction(3, 2)] > 60

    def test_hermite2_eval_direct(self, monkeypatch):
        ctx = PrecisionContext(Fraction(3, 10), 256)
        calls = self._counter(monkeypatch, ctx)
        counts = []
        for n in (1, 12):
            before = len(calls)
            hermite2_eval_direct(n, Fraction(-1, 2), ctx)
            counts.append(len(calls) - before)
        assert counts[0] == counts[1] <= 12, counts


# The exact 2phi0 of H~_n at the recurrence points, in a fresh context
# at each q and precision.
@pytest.mark.parametrize("q", [Fraction(1, 62), Fraction(5, 56), Fraction(49, 58), Fraction(26, 27)], ids=str)
@pytest.mark.parametrize("bits", [64, 512])
def test_terminating_sums_at_fresh_guard_precisions(q, bits):
    _check_hermite2_eval_direct_at_recurrence_points(PrecisionContext(q, bits), range(13))
