"""Lattice weight, moments, discrete measures, resolution of unity."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from correctly_rounded import power_of_q, powers
from hypothesis import HealthCheck, given, settings, strategies as st
from mpmath.libmp import fone, from_man_exp, fzero, mpf_add, mpf_mul, round_nearest, to_rational

from qhermite2 import PrecisionContext, _pairs, qkernel, qmeasure
from qhermite2.coherent import cs_norm_sq
from qhermite2.errors import DomainError, InstabilityError, NoConvergenceError
from qhermite2.exact import bn_squared_exact, moment_In_exact, rho_factorial_exact
from qhermite2.qcalculus import HAT_DEPTH
from qhermite2.qkernel import gen_exponential, q_power, q_power_raw, q_power_run, rho_factorial
from qhermite2.qmeasure import (
    MEASURE_TARGETS,
    _default_buffer,
    _ring_normalizers,
    _sweep,
    build_measure,
    formal_series_partial,
    lattice_weight,
    moment_In,
    unity_check,
)


@pytest.fixture(scope="module")
def weight_half(ctx_half):
    return lattice_weight(61, 120, ctx_half)


def _ref_raw_lattice(K, M, ctx, buffer):
    """The two-pass reference: one full sweep held as mpf objects, each
    q^(m+1) the exact power rounded once."""
    mp = ctx.mp
    ln_inv_q = -math.log(float(ctx.q))
    m_top = max(
        M + 2, math.ceil(ctx.precision_bits * math.log(2) / ln_inv_q) + 4
    )
    lo = -K - buffer - 2
    n_points = m_top - lo + 1
    g = [mp.mpf(0)] * n_points
    g[1] = mp.mpf(1)
    qs = powers(ctx.qm._mpf_, lo + 1, m_top, mp.prec)  # q^(m+1), m = lo + i
    for i in range(n_points - 2):
        g[i + 2] = g[i + 1] + mp.make_mpf(qs[i]) * g[i]
    return g, lo, m_top


def _ref_lattice_weight(K, M, ctx):
    """Weight by two full sweeps (tail indices M and 2M) with mpf operators."""
    mp = ctx.mp
    buf = _default_buffer(ctx)
    g, lo, m_top = _ref_raw_lattice(K, M, ctx, buf)
    norm = g[m_top - lo]
    values = {m: g[m - lo] / norm for m in range(-K, M + 1)}
    g2, lo2, m_top2 = _ref_raw_lattice(K, 2 * M, ctx, buf)
    norm2 = g2[m_top2 - lo2]
    tol = ctx.mpf(ctx.series_tol)
    for m in range(-K, M + 1):
        v2 = g2[m - lo2] / norm2
        ref = abs(values[m])
        if ref != 0 and abs(values[m] - v2) / ref > tol:
            raise InstabilityError(f"moved at m={m}")
    residual_max = mp.mpf(0)
    for m in range(-K, M - 1):
        step = power_of_q(ctx, m + 1) * values[m]
        res = abs(values[m + 1] - values[m + 2] + step)
        scale = max(abs(values[m + 2]), abs(step), tol)
        residual_max = max(residual_max, res / scale)
    negative_count = sum(1 for v in values.values() if v < 0)
    return values, residual_max, negative_count, m_top


def _ref_sweep(K, M, ctx, buffer):
    """The sweep without its early stop: every step up to 2 m_top, each
    power the exact one rounded once."""
    prec = ctx.precision_bits
    m_top = max(M + 2, math.ceil(prec * math.log(2) / -math.log(float(ctx.q))) + 4)
    m_check = 2 * m_top
    window = []
    g0, g1 = fzero, fone
    lo = -K - buffer - 2
    qs = powers(ctx.qm._mpf_, lo + 1, m_check, prec)
    for m, p in zip(range(lo, m_check - 1), qs):
        step = mpf_mul(p, g0, prec, round_nearest)
        g0, g1 = g1, mpf_add(g1, step, prec, round_nearest)
        if -K <= m + 2 <= M:
            window.append(g1)
        elif m + 2 == m_top:
            g_top = g1
    return window, (m_top, g_top), (m_check, g1)


def _raw_sweep(K, M, ctx, buffer):
    """_sweep's pairs as raw mpf values.  Every pair has a mantissa of
    exactly prec bits, so pairs are equal exactly when their values are."""
    window, (m_top, g_top), (m_check, g_check) = _sweep(K, M, ctx, buffer)
    prec = ctx.mp.prec
    assert all(g[0].bit_length() == prec for g in window + [g_top, g_check])
    return (
        [from_man_exp(*g) for g in window],
        (m_top, from_man_exp(*g_top)),
        (m_check, from_man_exp(*g_check)),
    )


def _assert_sweep_reference(K, M, ctx):
    """_sweep, early stop included, returns what the full sweep does."""
    buf = _default_buffer(ctx)
    want = _ref_sweep(K, M, ctx, buf)  # before _sweep fills the q^n memo
    assert _raw_sweep(K, M, ctx, buf) == want


def _assert_bitwise_reference(K, M, ctx):
    w = lattice_weight(K, M, ctx)
    values, residual_max, negative_count, m_top = _ref_lattice_weight(K, M, ctx)
    assert (w.m_min, w.m_max) == (-K, M)
    assert {m: v._mpf_ for m, v in w.values.items()} == {
        m: v._mpf_ for m, v in values.items()
    }
    assert w.residual_max._mpf_ == residual_max._mpf_
    assert w.negative_count == negative_count
    assert w.tail_init_index == m_top


class TestLatticeWeight:
    def test_positive_and_tail_normalized(self, all_ctx):
        for ctx in all_ctx:
            w = lattice_weight(12, 40, ctx)
            assert w.negative_count == 0
            assert all(v > 0 for v in w.values.values())
            # telescoping the difference equation: 1 - f(q^m) ~ q^m/(1-q)
            tail = 2 * ctx.mpf(ctx.q ** 40 / (1 - ctx.q))
            assert abs(w.value(40) - 1) < tail

    def test_difference_equation_holds_on_retained_range(self, all_ctx):
        for ctx in all_ctx:
            w = lattice_weight(10, 20, ctx)
            q = ctx.qm
            for m in range(-10, 19):
                lhs = w.value(m + 2)
                rhs = w.value(m + 1) + q ** (m + 1) * w.value(m)
                scale = max(abs(lhs), ctx.mpf(1))
                assert abs(lhs - rhs) <= 16 * ctx.eps * scale
            assert w.residual_max <= ctx.mpf("1e-60")

    def test_range_enforced(self, ctx_half):
        w = lattice_weight(6, 8, ctx_half)
        with pytest.raises(DomainError):
            w.value(-7)
        with pytest.raises(DomainError):
            w.value(9)

    def test_parameter_validation(self, ctx_half):
        with pytest.raises(DomainError):
            lattice_weight(3, 40, ctx_half)
        with pytest.raises(DomainError):
            lattice_weight(12, 3, ctx_half)


class TestTailDoubling:
    @pytest.mark.parametrize(
        "q, bits", [(Fraction(1, 2), 256), (Fraction(63, 64), 128)], ids=str
    )
    def test_check_normalizer_is_deeper_and_agrees(self, q, bits):
        # In both cases the precision floor sets m_top, so a check at the
        # tail index for 2M would land on m_top itself.
        ctx = PrecisionContext(q, bits)
        buf = _default_buffer(ctx)
        _, (m_top, g_top), (m_check, g_check) = _raw_sweep(61, 120, ctx, buf)
        assert m_top == lattice_weight(61, 120, ctx).tail_init_index
        assert m_top > 2 * 120 + 2
        assert m_check == 2 * m_top
        top, check = ctx.mp.make_mpf(g_top), ctx.mp.make_mpf(g_check)
        assert abs(check - top) / top < ctx.mpf(ctx.series_tol)

    def test_sweep_stops_near_the_tail_index(self, monkeypatch):
        # Once the weight is stationary the sweep stops instead of
        # running on to the check index 2 m_top.
        ctx = PrecisionContext(Fraction(29, 30), 128)
        exponents = []

        def run(start, stop, ctx):
            for n, power in zip(range(start, stop), q_power_run(start, stop, ctx)):
                exponents.append(n)
                yield power

        monkeypatch.setattr(qmeasure, "q_power_run", run)
        _, (m_top, _), (m_check, _) = _sweep(61, 120, ctx, _default_buffer(ctx))
        assert m_top - 100 < exponents[-1] < m_top + 100 < m_check


class TestSweepKernel:
    """The sweep forms powers, products and sums on integers."""

    @pytest.mark.parametrize("guard, certified", [(64, True), (2, False)])
    def test_mpf_arithmetic_only_where_the_certificate_fails(
        self, monkeypatch, guard, certified
    ):
        # Where the power certificate decides, the sweep asks q_power_raw,
        # which forms the exact power and an mpf of it, only for the
        # powers with at most prec bits (n = 0 and 1 here); with two
        # guard bits it decides nothing, every power falls back to
        # q_power_raw, and that retries with prec + 2 guard bits.
        q, bits = Fraction(29, 30), 128
        ctx = PrecisionContext(q, bits)
        buf = _default_buffer(ctx)
        want = _ref_sweep(61, 120, PrecisionContext(q, bits), buf)
        exact, calls, mpf = [], [], []

        def counted(record, module, name):
            original = getattr(module, name)

            def call(*args):
                record.append(args[0] if name == "q_power_raw" else args[1])
                return original(*args)

            monkeypatch.setattr(module, name, call)

        counted(calls, qkernel, "q_power_raw")
        counted(exact, _pairs, "_exact_power")
        counted(mpf, qkernel, "from_man_exp")
        monkeypatch.setattr(_pairs, "_GUARD", guard)
        got = _raw_sweep(61, 120, ctx, buf)
        monkeypatch.undo()
        assert got == want
        assert len(mpf) == len(calls)
        if certified:
            assert calls == exact == [0, 1]
        else:
            assert calls == list(range(-61 - buf, calls[-1] + 1))
            assert exact == [n for n in calls if abs(n) * ctx.qm._mpf_[3] <= 2 * bits]
        fresh = PrecisionContext(q, bits)
        for n, value in ctx.tables[("q^n", bits)].items():
            assert value == q_power_raw(n, fresh), n


class TestStreamedSweep:
    """The one-sweep weight is bitwise the two-pass mpf reference."""

    @pytest.mark.parametrize(
        "q, bits",
        [
            (q, bits)
            for q in (
                Fraction(1, 64),
                Fraction(1, 5),
                Fraction(1, 2),
                Fraction(3, 4),
                Fraction(29, 30),
            )
            for bits in (64, 128, 256)
        ]
        # Deep sweeps near q = 1 at 512 bits, where most steps descend.
        + [(Fraction(63, 64), 512), (Fraction(45, 46), 512)],
        ids=str,
    )
    def test_matches_reference(self, q, bits):
        ctx = PrecisionContext(q, bits)
        _assert_bitwise_reference(61, 120, ctx)
        _assert_sweep_reference(61, 120, ctx)
        # A window that reaches past the early stop, which fills it.
        _assert_sweep_reference(8, 600, ctx)

    def test_matches_reference_near_q_one(self):
        ctx = PrecisionContext(Fraction(63, 64), 64)
        _assert_bitwise_reference(61, 120, ctx)
        _assert_sweep_reference(61, 120, ctx)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        q=st.fractions(Fraction(1, 64), Fraction(63, 64), max_denominator=64),
        bits=st.integers(min_value=64, max_value=512),
        K=st.integers(min_value=4, max_value=24),
        M=st.integers(min_value=4, max_value=48),
    )
    def test_matches_reference_property(self, q, bits, K, M):
        ctx = PrecisionContext(q, bits)
        _assert_bitwise_reference(K, M, ctx)
        _assert_sweep_reference(K, M, ctx)


class TestMoments:
    def test_matches_closed_form_to_target(self, ctx_q3, ctx_half, weight_half):
        for n in range(9):
            res = moment_In(n, ctx_half, K=60, M=120, weight=weight_half)
            assert res.rel_deviation < ctx_half.mpf("1e-8"), n
        for n in range(9):
            res = moment_In(n, ctx_q3, K=60, M=120)
            assert res.rel_deviation < ctx_q3.mpf("1e-8"), n

    def test_shallow_lattice_honest_at_slow_decay(self, ctx_q8):
        # At q = 4/5 the shrinking-branch tail q^{K+3}/(1-q) at K=60 sits
        # near 5e-6, so the 1e-8 target needs the deeper lattice.
        shallow = moment_In(0, ctx_q8, K=60, M=120)
        assert shallow.rel_deviation > ctx_q8.mpf("1e-8")
        deep = moment_In(0, ctx_q8, K=140, M=282)
        assert deep.rel_deviation < ctx_q8.mpf("1e-8")

    def test_telescoping_ratio(self, ctx_half, weight_half):
        q = ctx_half.q
        for n in range(1, 9):
            assert moment_In_exact(n, q) == (
                bn_squared_exact(n - 1, q) * moment_In_exact(n - 1, q)
            )
            hi = moment_In(n, ctx_half, K=60, M=120, weight=weight_half)
            lo = moment_In(n - 1, ctx_half, K=60, M=120, weight=weight_half)
            ratio = hi.lattice_value / lo.lattice_value
            want = ctx_half.mpf(bn_squared_exact(n - 1, q))
            assert abs(ratio - want) / want < ctx_half.mpf("1e-8")

    def test_parameter_validation(self, ctx_half, weight_half):
        with pytest.raises(DomainError):
            moment_In(-1, ctx_half)
        with pytest.raises(DomainError):
            moment_In(0, ctx_half, K=60, M=40)
        shallow = lattice_weight(10, 30, ctx_half)
        with pytest.raises(DomainError):
            moment_In(0, ctx_half, K=60, M=120, weight=shallow)


class TestFormalSeries:
    def test_zero_point_is_exact(self, ctx_half):
        res = formal_series_partial(0, 100, ctx_half)
        assert res.value == 1
        assert not res.diverging
        assert res.error_estimate == 0

    def test_divergence_reported_with_smallest_term(self, ctx_half):
        res = formal_series_partial(Fraction(1, 4), 400, ctx_half)
        assert res.diverging
        assert res.optimal_index >= 1
        assert res.error_estimate > 0

    def test_optimal_index_shrinks_as_y_grows(self, ctx_half):
        small = formal_series_partial(Fraction(1, 1024), 400, ctx_half)
        large = formal_series_partial(Fraction(4), 400, ctx_half)
        assert small.optimal_index > large.optimal_index

    def test_asymptotic_to_lattice_weight_at_small_y(self, ctx_half, weight_half):
        # Optimal truncation tracks the true weight down to roughly the
        # smallest-term scale; allow a generous multiple of it.
        m = 10
        res = formal_series_partial(Fraction(1, 2) ** m, 400, ctx_half)
        true = weight_half.value(m)
        assert abs(res.value - true) <= 1000 * res.error_estimate

    def test_parameter_validation(self, ctx_half):
        with pytest.raises(DomainError):
            formal_series_partial(-1, 100, ctx_half)
        with pytest.raises(DomainError):
            formal_series_partial(Fraction(1, 4), 0, ctx_half)


def _ref_formal_series_partial(y, n_terms, ctx):
    """The optimal-truncation loop with each 1 - q^(n+1) formed afresh."""
    mp = ctx.mp
    yv = ctx.mpf(y)
    if yv == 0:
        return mp.mpf(1), 1, mp.mpf(0), False
    total = mp.mpf(0)
    term = mp.mpf(1)
    n = 0
    while n < n_terms:
        nxt = term * (-yv) * q_power(-n, ctx) / (1 - q_power(n + 1, ctx))
        if abs(nxt) >= abs(term):
            break
        total = total + term
        term = nxt
        n += 1
    return total, n, abs(term), True


def _formal_series_bits(value, optimal_index, error_estimate, diverging):
    return value._mpf_, optimal_index, error_estimate._mpf_, diverging


@pytest.mark.parametrize(
    "q, bits",
    [
        pytest.param(Fraction(q), bits, id=f"{q}-{bits}")
        for q in ("1/64", "1/2", "63/64")
        for bits in (64, 256)
    ],
)
def test_formal_series_reads_shared_complements_bitwise(q, bits):
    ctx = PrecisionContext(q, bits)
    for y in (0, Fraction(1, 1024), Fraction(1, 4), Fraction(4)):
        want = _formal_series_bits(*_ref_formal_series_partial(y, 400, ctx))
        for _ in range(2):  # the list grown, then read
            got = formal_series_partial(y, 400, ctx)
            assert _formal_series_bits(*vars(got).values()) == want, y
            if y:
                assert len(ctx.tables[("1-q^(n+1)", bits)]) >= got.optimal_index
    with ctx.mp.workprec(bits + 40):  # the list of this precision
        want = _formal_series_bits(*_ref_formal_series_partial(Fraction(1, 4), 400, ctx))
        got = formal_series_partial(Fraction(1, 4), 400, ctx)
        assert _formal_series_bits(*vars(got).values()) == want
        assert len(ctx.tables[("1-q^(n+1)", bits + 40)]) >= got.optimal_index


class TestBuildMeasure:
    def test_branches_are_monotone_and_disjoint(self, ctx_half, weight_half):
        for target in MEASURE_TARGETS:
            mu = build_measure(target, ctx_half, K=60, M=120, weight=weight_half)
            split = mu.branch_split
            grow = mu.support[:split]
            shrink = mu.support[split:]
            assert all(a < b for a, b in zip(grow, grow[1:]))
            assert all(a > b for a, b in zip(shrink, shrink[1:]))
            assert len(set(mu.exponents)) == len(mu.exponents)
            assert all(w > 0 for w in mu.weights)

    def test_y_measure_reproduces_moments(self, ctx_half, weight_half):
        mu = build_measure("y-variable", ctx_half, K=60, M=120, weight=weight_half)
        for n in range(5):
            got = mu.moment(n, ctx_half)
            want = ctx_half.mpf(moment_In_exact(n, ctx_half.q))
            assert abs(got - want) / want < ctx_half.mpf("1e-8")
        assert abs(mu.total_mass - 1) < ctx_half.mpf("1e-8")

    def test_x_measure_gram_normalization(self, ctx_half, weight_half):
        # The measure path, pi / rho_n! times the x-measure moment, is the
        # independent reference for unity_check's I_n(lattice)/I_n.  Both
        # add the same 122 positive terms in the same order and round each
        # term differently (under 16 roundings), so at p bits they agree
        # within 2^(8-p) (measured at 256 bits: at most 8 * 2^-256, at n = 3).
        mu = build_measure("x-variable", ctx_half, K=60, M=120, weight=weight_half)
        diagonal = unity_check(4, ctx_half, K=60, M=120).diagonal
        for n in range(5):
            g = ctx_half.mp.pi / rho_factorial(n, ctx_half) * mu.moment(n, ctx_half)
            assert abs(g - 1) < ctx_half.mpf("1e-6")
            bound = ctx_half.mpf(2) ** (8 - ctx_half.precision_bits)
            assert abs(g - diagonal[n]) <= bound, n

    def test_moment_of_undecayed_lattice_raises(self, ctx_half):
        # At K = 8 the growing branch of moment 8 has not decayed; the
        # measure moment goes through the hat sum and its certificate.
        mu = build_measure("y-variable", ctx_half, K=8, M=16)
        with pytest.raises(
            NoConvergenceError,
            match=r"^DiscreteMeasure\.moment: growing-abscissa branch not decaying "
            r"at K=8 \(last term ",
        ):
            mu.moment(8, ctx_half)

    @pytest.mark.parametrize(
        "q, want",
        [
            (Fraction(1, 2), "38.786613509863448344535766995523299128"),
            (Fraction(3, 10), "68.110447217750246983494868015555705768"),
        ],
        ids=str,
    )
    def test_moment_of_negative_order(self, q, want):
        # s^-1 is the exact 1/s rounded once, so the moment adds the terms
        # (1 / s) w; the digits are those of the binary power it replaced.
        ctx = PrecisionContext(q, 128)
        mu = build_measure("y-variable", ctx, K=20, M=60)
        got = mu.moment(-1, ctx)
        assert str(got) == want
        plain = ctx.mpf(0)
        for s, w in zip(mu.support, mu.weights):
            plain += (1 / s) * w
        assert abs(got - plain) <= ctx.mpf(2) ** -100 * plain

    def test_radial_masses_absorb_normalizer(self, ctx_half, weight_half):
        flat = build_measure("x-variable", ctx_half, K=60, M=120, weight=weight_half)
        ring = build_measure(
            "z-plane-radial", ctx_half, K=60, M=120, weight=weight_half
        )
        assert ring.support == flat.support
        for k in (0, 30, 61, 100):
            want = (
                ctx_half.mp.pi
                * cs_norm_sq(flat.support[k], ctx_half)
                * flat.weights[k]
            )
            assert abs(ring.weights[k] - want) <= 16 * ctx_half.eps * want

    def test_radial_masses_take_the_ring_normalizers(self, ctx_half, weight_half):
        flat = build_measure("x-variable", ctx_half, K=60, M=120, weight=weight_half)
        ring = build_measure("z-plane-radial", ctx_half, K=60, M=120, weight=weight_half)
        norms = dict(zip(range(62, -60, -1), _ring_normalizers(60, ctx_half)))
        for m, nu, mass in zip(ring.exponents, flat.weights, ring.weights):
            assert mass == ctx_half.mp.pi * _pairs._mpf(norms[m], ctx_half) * nu, m

    def test_constants_documented(self, ctx_half, weight_half):
        for target in MEASURE_TARGETS:
            mu = build_measure(target, ctx_half, K=60, M=120, weight=weight_half)
            assert "mass_formula" in mu.constants

    def test_unknown_target_rejected(self, ctx_half):
        with pytest.raises(DomainError):
            build_measure("w-variable", ctx_half)


class TestUnityCheck:
    def test_diagonal_near_one_at_binary_q(self, ctx_half):
        report = unity_check(6, ctx_half)
        assert report.max_abs_deviation < ctx_half.mpf("1e-6")
        assert len(report.diagonal) == 7
        assert "exact zero" in report.off_diagonal

    @pytest.mark.parametrize("q", ["1/64", "1/5", "1/2", "3/4", "63/64"])
    def test_rho_factorial_is_c_power_times_moment(self, q):
        # rho_n! = c^n I_n with c = q/(1-q) turns the Gram diagonal into
        # I_n(lattice)/I_n; the ladder product c^n b_0^2 ... b_{n-1}^2
        # gives the same exact value.
        q = Fraction(q)
        c = q / (1 - q)
        ladder = Fraction(1)
        for n in range(13):
            assert rho_factorial_exact(n, q) == c**n * moment_In_exact(n, q) == ladder
            ladder *= c * bn_squared_exact(n, q)

    @pytest.mark.parametrize(
        "q, bits, K",
        [
            pytest.param(q, bits, K, id=f"{q}-{bits}-K{K}")
            for q, bits, K in (
                ("1/2", 256, 60), ("3/4", 128, 60), ("1/5", 64, 60),
                ("29/30", 256, 60), ("1/2", 256, 8),
            )
        ],
    )
    def test_diagonal_is_lattice_moment_over_closed_form(self, q, bits, K):
        ctx = PrecisionContext(Fraction(q), bits)
        report = unity_check(6, ctx, K=K, M=120)
        weight = lattice_weight(K + 1, 120, ctx)
        for n, g in enumerate(report.diagonal):
            res = moment_In(n, ctx, K=K, M=120, weight=weight)
            assert g._mpf_ == (res.lattice_value / res.closed_form)._mpf_, n
        assert report.max_abs_deviation == max(abs(g - 1) for g in report.diagonal)

    def test_parameter_validation(self, ctx_half):
        with pytest.raises(DomainError):
            unity_check(-1, ctx_half)
        with pytest.raises(DomainError, match="tail depth M=8 too small for K=10"):
            unity_check(3, ctx_half, K=10, M=8)


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
@pytest.mark.parametrize(
    "q", [Fraction(1, 64), Fraction(1, 3), Fraction(3, 4), Fraction(29, 30), Fraction(40, 41), Fraction(63, 64)], ids=str
)
def test_ring_normalizers_within_their_bound(q, bits):
    """Each ring normalizer E(q^m) of the q-difference recurrence lies
    within the bound of ``_ring_normalizers``: the larger relative error
    s of its two seeds plus 2 (j + 1) 2^-bits, j steps above them, against
    gen_exponential at three times the precision, at the exact powers
    of the rounded q."""
    ctx = PrecisionContext(q, bits)
    K = HAT_DEPTH
    norms = _ring_normalizers(K, ctx)
    ref_ctx = PrecisionContext(Fraction(*to_rational(ctx.qm._mpf_)), 3 * bits)
    errors = []
    for m, norm in zip(range(K + 2, -K, -1), norms):
        want = gen_exponential(q_power(m, ref_ctx), ref_ctx)
        errors.append(abs(ref_ctx.mpf(_pairs._mpf(norm, ctx)) - want) / want)
    seeds = max(errors[:2])
    unit = ref_ctx.mpf(2) ** -bits
    for j, error in enumerate(errors[2:], 1):
        assert error <= seeds + 2 * (j + 1) * unit, (K + 1 - j, error / unit, seeds / unit)
