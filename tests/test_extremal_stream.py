"""The Psi_n stream and the series built on it are bitwise the reference.

The references below evaluate the same recurrences and series with
mpmath's mpf operators: few-line loops for Psi_n, S_n and Psi_n', and
the series on those sequences; the exact series coefficients come from
``_carrier_coefficients`` as before.  ``psi_sequence``, which reads the
integer-pair stream, is checked against the Psi_n loop, at the context
precision and inside ``mp.workprec``.  Equality is asserted with ``==``,
not within a tolerance.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qhermite2 import PrecisionContext
from qhermite2.errors import DomainError
from qhermite2.extremal import (
    _carrier_coefficients,
    _carrier_value,
    _kernel_mass,
    _loading_at,
    _second_kind_value,
)
from qhermite2.qhermite import psi_sequence
from qhermite2.qkernel import b_coeff, b_table

_STREAK = 3


def _psi(nmax, xv, ctx):
    """[Psi_0, ..., Psi_nmax] at the mpf xv by the mpf operators."""
    values = [1 + xv * 0]
    if nmax == 0:
        return values
    bs = [b_coeff(k, ctx) for k in range(nmax)]
    values.append(xv * values[0] / bs[0])
    for n in range(1, nmax):
        values.append((xv * values[n] - bs[n - 1] * values[n - 1]) / bs[n])
    return values


def _second_kind(nmax, xv, ctx):
    bs = [b_coeff(k, ctx) for k in range(nmax)]
    values = [ctx.mp.mpf(0), ctx.mp.mpf(1)]
    for n in range(1, nmax):
        values.append((xv * values[n] - bs[n - 1] * values[n - 1]) / bs[n])
    return values


def _psi_derivative(nmax, xv, ctx):
    psis = _psi(nmax, xv, ctx)
    bs = [b_coeff(k, ctx) for k in range(nmax)]
    derivs = [ctx.mp.mpf(0), 1 / bs[0]]
    for n in range(1, nmax):
        derivs.append((psis[n] + xv * derivs[n] - bs[n - 1] * derivs[n - 1]) / bs[n])
    return derivs


def _ref_carrier(length, xv, ctx, k_terms, slope=False):
    """(D, terms, last term), with D' = -sum_k c_k (Psi_{2k+1} + x Psi_{2k+1}')
    over the same terms appended when ``slope``."""
    coeffs = _carrier_coefficients(length, ctx)
    psis = _psi(2 * length - 1, xv, ctx)
    dpsis = _psi_derivative(2 * length - 1, xv, ctx) if slope else None
    tol = ctx.mpf(ctx.series_tol)
    total, streak, last = ctx.mp.mpf(1), 0, ctx.mp.mpf(0)
    derivative = ctx.mp.mpf(0)
    for k in range(k_terms if k_terms is not None else length):
        term = -coeffs[k] * xv * psis[2 * k + 1]
        if slope:
            derivative = derivative + -coeffs[k] * (psis[2 * k + 1] + xv * dpsis[2 * k + 1])
        total = total + term
        last = abs(term)
        if last <= tol * max(abs(total), tol):
            streak += 1
            if streak >= _STREAK:
                return (total, k + 1, last) + ((derivative,) if slope else ())
        else:
            streak = 0
    if k_terms is None:
        raise IndexError
    return (total, k_terms, last) + ((derivative,) if slope else ())


def _ref_loading(length, xv, ctx):
    coeffs = _carrier_coefficients(length, ctx)
    psis = _psi(2 * length - 1, xv, ctx)
    seconds = _second_kind(2 * length - 1, xv, ctx)
    dpsis = _psi_derivative(2 * length - 1, xv, ctx)
    tol = ctx.mpf(ctx.series_tol)
    num = den = ctx.mp.mpf(0)
    streak = 0
    for j in range(length):
        idx = 2 * j + 1
        num_term = coeffs[j] * xv * seconds[idx]
        den_term = coeffs[j] * (psis[idx] + xv * dpsis[idx])
        num, den = num + num_term, den + den_term
        last = max(abs(num_term), abs(den_term))
        if last <= tol * max(abs(num), abs(den), tol):
            streak += 1
            if streak >= _STREAK:
                return num / den, j + 1, last
        else:
            streak = 0
    raise IndexError


def _ref_kernel(length, xv, ctx):
    tol = ctx.mpf(ctx.series_tol)
    total, streak = ctx.mp.mpf(0), 0
    for n, p in enumerate(_psi(length, xv, ctx)):
        term = p * p
        total = total + term
        if term <= tol * max(total, tol):
            streak += 1
            if streak >= _STREAK:
                return 1 / total, n + 1
        else:
            streak = 0
    raise IndexError


def _reference(ref, x, ctx, *args):
    """Run a reference on sequences long enough for its series to stop."""
    xv = ctx.mpf(x)
    length = 32
    while True:
        try:
            return ref(length, xv, ctx, *args)
        except IndexError:
            length *= 2


QS = (Fraction(3, 10), Fraction(1, 2), Fraction(4, 5))
BITS = (64, 128, 256, 512)
# q = 4/5 at 512 bits needs ~770 carrier terms, and the exact coefficient
# table behind them alone takes about half a minute to build.
CONTEXTS = [(q, b) for q in QS for b in BITS if (q, b) != (Fraction(4, 5), 512)]
# 0, a negative point, and a point beyond the last root below 40 at q = 1/2.
XS = (Fraction(0), Fraction(-7, 3), Fraction(45))


@pytest.fixture(scope="module", params=CONTEXTS,
                ids=lambda p: f"q={p[0]}-{p[1]}bits")
def ctx(request):
    q, bits = request.param
    return PrecisionContext(q=q, precision_bits=bits)


class TestBitwiseEqual:
    @pytest.mark.parametrize("x", XS, ids=str)
    def test_carrier_adaptive(self, ctx, x):
        want = _reference(_ref_carrier, x, ctx, None)
        assert _carrier_value(x, ctx, None)[:3] == want

    @pytest.mark.parametrize("x", XS, ids=str)
    def test_carrier_forced_terms(self, ctx, x):
        for k_terms in (1, 4, 9):
            want = _reference(_ref_carrier, x, ctx, k_terms)
            assert _carrier_value(x, ctx, k_terms)[:3] == want

    @pytest.mark.parametrize("x", XS, ids=str)
    def test_carrier_slope(self, ctx, x):
        # Every Newton step of the root search, so every printed root,
        # rests on D'.
        for k_terms in (None, 1, 4, 9):
            want = _reference(_ref_carrier, x, ctx, k_terms, True)
            assert _carrier_value(x, ctx, k_terms, slope=True) == want

    def test_carrier_value_independent_of_slope(self, ctx):
        plain = _carrier_value(Fraction(5, 2), ctx, None)
        with_slope = _carrier_value(Fraction(5, 2), ctx, None, slope=True)
        assert plain[:3] == with_slope[:3] and with_slope[3] is not None

    @pytest.mark.parametrize("x", XS[1:], ids=str)
    def test_loading(self, ctx, x):
        assert _loading_at(x, ctx) == _reference(_ref_loading, x, ctx)

    @pytest.mark.parametrize("x", XS, ids=str)
    def test_kernel_mass(self, ctx, x):
        assert _kernel_mass(x, ctx) == _reference(_ref_kernel, x, ctx)

    def test_second_kind(self, ctx):
        x = Fraction(-7, 3)
        ref = _second_kind(20, ctx.mpf(x), ctx)
        assert [_second_kind_value(n, x, ctx) for n in range(21)] == ref


class TestPsiSequence:
    """psi_sequence reads the stream: the mpf loop's values, bit for bit."""

    @pytest.mark.parametrize("x", XS + (Fraction(123, 2), Fraction(1, 10**9)), ids=str)
    def test_matches_mpf_loop(self, ctx, x):
        got = psi_sequence(40, x, ctx)
        assert [v._mpf_ for v in got] == [v._mpf_ for v in _psi(40, ctx.mpf(x), ctx)]

    @pytest.mark.parametrize("q, bits", [(Fraction(3, 10), 64), (Fraction(4, 5), 256)], ids=str)
    def test_inside_workprec(self, q, bits):
        # At a working precision above the context's, the values are the
        # loop's at that precision, and no table of the context precision
        # is formed, so later calls there match a fresh context.
        x = Fraction(-7, 3)
        ctx = PrecisionContext(q=q, precision_bits=bits)
        with ctx.mp.workprec(bits + 40):
            got = psi_sequence(40, x, ctx)
            want = _psi(40, ctx.mpf(x), ctx)
            assert [v._mpf_ for v in got] == [v._mpf_ for v in want]
            assert max(v._mpf_[3] for v in got) > bits
        assert not [k for k in ctx.tables if isinstance(k, tuple) and k[1] == bits]
        fresh = PrecisionContext(q=q, precision_bits=bits)
        assert [v._mpf_ for v in psi_sequence(40, x, ctx)] == [
            v._mpf_ for v in psi_sequence(40, x, fresh)
        ]

    def test_builds_only_the_b_n_it_reads(self):
        for nmax in (1, 5, 40):
            ctx = PrecisionContext(q=Fraction(1, 3), precision_bits=128)
            psi_sequence(nmax, Fraction(5, 2), ctx)
            assert len(b_table(0, ctx)) == nmax

    def test_complex_x_refused(self):
        ctx = PrecisionContext(q=Fraction(1, 2), precision_bits=64)
        for x in (complex(1, 2), ctx.mp.mpc(1, 2)):
            with pytest.raises(DomainError):
                psi_sequence(3, x, ctx)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    q=st.fractions(Fraction(1, 12), Fraction(4, 5), max_denominator=12),
    x=st.fractions(min_value=-30, max_value=30, max_denominator=16),
    bits=st.integers(min_value=64, max_value=512),
    k_terms=st.integers(min_value=1, max_value=12),
)
def test_streamed_series_match_reference(q, x, bits, k_terms):
    ctx = PrecisionContext(q=q, precision_bits=bits)
    want = _reference(_ref_carrier, x, ctx, k_terms)
    assert _carrier_value(x, ctx, k_terms)[:3] == want
    assert _kernel_mass(x, ctx) == _reference(_ref_kernel, x, ctx)
