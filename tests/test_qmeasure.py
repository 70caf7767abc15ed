"""Lattice weight, moments, discrete measures, resolution of unity."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from mpmath.ctx_mp import MPContext
from mpmath.libmp import to_rational

from qhermite2 import PrecisionContext, _pairs, qmeasure
from qhermite2.coherent import cs_norm_sq
from qhermite2.errors import DomainError, NoConvergenceError
from qhermite2.exact import bn_squared_exact, moment_In_exact, rho_factorial_exact
from qhermite2.qcalculus import HAT_DEPTH
from qhermite2.qkernel import gen_exponential, q_power, rho_factorial
from qhermite2.qmeasure import (
    MEASURE_TARGETS,
    _ring_normalizers,
    build_measure,
    formal_series_partial,
    lattice_weight,
    moment_In,
    unity_check,
)


@pytest.fixture(scope="module")
def weight_half(ctx_half):
    return lattice_weight(61, 120, ctx_half)


def _closed_form_reference(K, M, ctx, s=0):
    """f_s(q^n) for n in [-K, M] at the exact q = ctx.qm, each from its own
    series ((q; q)_inf / theta_s) sum_i q^(i(i+s)) / (q; q)_(n+s+2i), with
    theta_s = sum_{i in Z} q^(i(i+s)) and no recursion in n, in mpmath at
    prec + 200 bits and as many more as Euler's pentagonal series for
    (q; q)_inf cancels (pi^2 / (6 ln 2 (1 - q))).  s = 0 is the theta_3
    member of ``lattice_weight``, s = 1 the theta_2 member.  Returns
    mpf values of that precision."""
    cancel = math.ceil(math.pi**2 / (6 * math.log(2) * (1 - float(ctx.q))))
    mp = MPContext()
    mp.prec = ctx.mp.prec + 200 + cancel
    q = mp.mpf(ctx.qm)
    eps = mp.mpf(2) ** -mp.prec
    euler, k, term = mp.mpf(1), 1, 1
    while term > eps:
        term = q ** (k * (3 * k - 1) // 2) * (1 + q**k)
        euler += (-1) ** k * term
        k += 1
    cache = {}

    def power(i):  # q^(i(i+s))
        if i not in cache:
            cache[i] = q ** (i * (i + s))
        return cache[i]

    theta, i = power(0), 1
    while power(i) > eps:
        theta += power(i) + power(-i)
        i += 1
    recips = [mp.mpf(1)]  # 1/(q; q)_j
    out = {}
    for n in range(-K, M + 1):
        # The term ratio falls, so past a term at most half the one before
        # the rest is at most twice the last.
        total, prev, i = None, None, -((n + s) // 2)
        while True:
            j = n + s + 2 * i
            while len(recips) <= j:
                recips.append(recips[-1] / (1 - q ** len(recips)))
            t = power(i) * recips[j]
            if prev is not None and 2 * t <= prev and t < eps * total:
                break
            total = t if total is None else total + t
            prev, i = t, i + 1
        out[n] = euler / theta * total
    return out


def _ref_lattice_weight(K, M, ctx):
    """The closed-form reference rounded once to the working precision."""
    return {m: ctx.mp.mpf(v) for m, v in _closed_form_reference(K, M, ctx).items()}


def _assert_bitwise_reference(K, M, ctx):
    w = lattice_weight(K, M, ctx)
    assert (w.m_min, w.m_max) == (-K, M)
    assert {m: v._mpf_ for m, v in w.values.items()} == {
        m: v._mpf_ for m, v in _ref_lattice_weight(K, M, ctx).items()
    }


class TestLatticeWeight:
    def test_positive_and_tail_normalized(self, all_ctx):
        for ctx in all_ctx:
            w = lattice_weight(12, 40, ctx)
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

    def test_q_rounding_to_one_is_refused(self, monkeypatch):
        # q = 1 - 2^-70 rounds to 1 at 64 bits: every theta_3 term is 1,
        # and the series never stopped.
        def entered(*args):
            raise AssertionError("the theta_3 series was entered")

        monkeypatch.setattr(qmeasure, "_series", entered)
        ctx = PrecisionContext(Fraction(2**70 - 1, 2**70), 64)
        with pytest.raises(DomainError, match=r"rounds to 1 at 64 bits"):
            lattice_weight(8, 8, ctx)

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


@pytest.mark.parametrize("K", [8, 61, 301])
@pytest.mark.parametrize("bits", [64, 128, 256, 512])
@pytest.mark.parametrize(
    "q", ["1/64", "3/10", "1/2", "3/4", "26/27", "45/46", "63/64", "99/100"]
)
def test_window_is_the_closed_form_rounded_once(q, bits, K):
    # Every value of the window, the two seeds and the whole upward run,
    # is the direct series for its own n rounded once.
    ctx = PrecisionContext(Fraction(q), bits)
    want = _closed_form_reference(K, 8, ctx)
    got = lattice_weight(K, 8, ctx).values
    assert {n: v._mpf_ for n, v in got.items()} == {n: ctx.mp.mpf(v)._mpf_ for n, v in want.items()}


class TestMember:
    """The weight is one member of the family at every depth and
    precision, where a deep seed's parity used to pick it."""

    @pytest.mark.parametrize("q, bits", [("1/2", 256), ("3/4", 128), ("1/64", 192), ("4/5", 128)])
    def test_masses_do_not_depend_on_the_depth(self, q, bits):
        ctx = PrecisionContext(Fraction(q), bits)
        shallow, odd, deep = (
            dict(zip(mu.exponents, mu.weights))
            for mu in (build_measure("y-variable", ctx, K=K) for K in (20, 21, 60))
        )
        for m, mass in shallow.items():
            assert mass._mpf_ == odd[m]._mpf_ == deep[m]._mpf_, m

    @pytest.mark.parametrize(
        "q, bits", [("3/4", 129), ("1/64", 192), ("4/5", 192), ("1/2", 256)]
    )
    def test_masses_do_not_depend_on_the_precision(self, q, bits):
        # At 128 bits and more the masses agree to about the coarser
        # precision; at the parent the mass at y = 1 and q = 1/64 read
        # 0.0078 at 128 bits and 0.954 at 192, the other member's.
        low, high = (
            build_measure("y-variable", PrecisionContext(Fraction(q), b)) for b in (128, bits)
        )
        assert low.exponents == high.exponents
        for m, a, b in zip(low.exponents, low.weights, high.weights):
            a, b = Fraction(*to_rational(a._mpf_)), Fraction(*to_rational(b._mpf_))
            assert abs(a - b) <= Fraction(1, 2**110) * b, m


class TestIndeterminacy:
    """The theta_2 member mu^(1), built here from its closed form, solves
    the same lattice equation and moment problem as the package's theta_3
    member, and differs from it: a signed measure with vanishing moments."""

    @pytest.fixture(scope="class")
    def members(self):
        ctx = PrecisionContext(Fraction(1, 2), 256)
        K = HAT_DEPTH
        other = {m: ctx.mp.mpf(v) for m, v in _closed_form_reference(K + 1, K, ctx, s=1).items()}
        return ctx, lattice_weight(K + 1, K, ctx), qmeasure.LatticeWeight(
            ctx.q, -(K + 1), K, other
        )

    def test_solves_the_lattice_equation(self, members):
        ctx, _, other = members
        for m in range(-HAT_DEPTH - 1, HAT_DEPTH - 1):
            g0, g1, g2 = (other.value(m + k) for k in range(3))
            assert abs(g2 - g1 - q_power(m + 1, ctx) * g0) <= 4 * ctx.eps * g2, m
        # f(0+) = 1: 1 - f(q^m) ~ q^m/(1-q), as for the theta_3 member.
        assert abs(other.value(HAT_DEPTH) - 1) < 2 * ctx.mpf(ctx.q**HAT_DEPTH / (1 - ctx.q))

    def test_reproduces_the_moments(self, members):
        ctx, weight, other = members
        for n in range(7):
            ours = moment_In(n, ctx, K=HAT_DEPTH, weight=weight)
            theirs = moment_In(n, ctx, K=HAT_DEPTH, weight=other)
            assert theirs.rel_deviation < ctx.mpf("1e-18"), n
            # Both miss the same hat-sum tail beyond depth K (4e-19 at
            # n = 0), so the moments of mu^(1) - mu^(0) vanish to working
            # precision (measured: at most 9e-77 at 256 bits).
            gap = abs(theirs.lattice_value - ours.lattice_value) / ours.closed_form
            assert gap < ctx.mpf(2) ** (16 - ctx.precision_bits), n

    def test_differs_from_the_package_member(self, members):
        ctx, weight, other = members
        # The masses q^(m-1) f(q^(m-2)) at y = 1 (m = 0) and y = 2 (m = -1).
        for m in (-2, -3):
            gap = abs(other.value(m) - weight.value(m)) / weight.value(m)
            assert gap > ctx.mpf("0.1"), m


class TestStreamedSweep:
    """The window's upward run from the two closed-form seeds is bitwise
    the closed form rounded once."""

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
        + [(Fraction(63, 64), 512), (Fraction(45, 46), 512)],
        ids=str,
    )
    def test_matches_reference(self, q, bits):
        _assert_bitwise_reference(61, 120, PrecisionContext(q, bits))

    def test_matches_reference_near_q_one(self):
        _assert_bitwise_reference(61, 120, PrecisionContext(Fraction(63, 64), 64))

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
        _assert_bitwise_reference(K, M, PrecisionContext(q, bits))


class TestSweepKernel:
    """The window's enclosures are retried wider only where Ziv's test
    fails, and the values are the same either way."""

    @pytest.mark.parametrize("guard, certified", [(64, True), (2, False)])
    def test_enclosures_widen_only_where_ziv_fails(self, monkeypatch, guard, certified):
        # With 64 guard bits every value is decided at once.  With two
        # guard bits the enclosures at prec + 2 bits decide no value, so
        # the window is formed again at 2 prec + 2 bits.
        q, bits = Fraction(29, 30), 128
        ctx = PrecisionContext(q, bits)
        want = _ref_lattice_weight(61, 120, PrecisionContext(q, bits))
        widths = []
        enclosures = qmeasure._enclosures

        def counted(*args):
            widths.append(args[3])
            return enclosures(*args)

        monkeypatch.setattr(qmeasure, "_enclosures", counted)
        monkeypatch.setattr(_pairs, "_GUARD", guard)
        got = lattice_weight(61, 120, ctx)
        monkeypatch.undo()
        assert {m: v._mpf_ for m, v in got.values.items()} == {m: v._mpf_ for m, v in want.items()}
        assert widths == ([bits + 64] if certified else [bits + 2, 2 * bits + 2])


class TestMoments:
    def test_matches_closed_form_to_target(self, ctx_q3, ctx_half, weight_half):
        for n in range(9):
            res = moment_In(n, ctx_half, K=60, weight=weight_half)
            assert res.rel_deviation < ctx_half.mpf("1e-8"), n
        for n in range(9):
            res = moment_In(n, ctx_q3, K=60)
            assert res.rel_deviation < ctx_q3.mpf("1e-8"), n

    def test_shallow_lattice_honest_at_slow_decay(self, ctx_q8):
        # At q = 4/5 the shrinking-branch tail q^{K+3}/(1-q) at K=60 sits
        # near 5e-6, so the 1e-8 target needs the deeper lattice.
        shallow = moment_In(0, ctx_q8, K=60)
        assert shallow.rel_deviation > ctx_q8.mpf("1e-8")
        deep = moment_In(0, ctx_q8, K=140)
        assert deep.rel_deviation < ctx_q8.mpf("1e-8")

    def test_telescoping_ratio(self, ctx_half, weight_half):
        q = ctx_half.q
        for n in range(1, 9):
            assert moment_In_exact(n, q) == (
                bn_squared_exact(n - 1, q) * moment_In_exact(n - 1, q)
            )
            hi = moment_In(n, ctx_half, K=60, weight=weight_half)
            lo = moment_In(n - 1, ctx_half, K=60, weight=weight_half)
            ratio = hi.lattice_value / lo.lattice_value
            want = ctx_half.mpf(bn_squared_exact(n - 1, q))
            assert abs(ratio - want) / want < ctx_half.mpf("1e-8")

    def test_parameter_validation(self, ctx_half, weight_half):
        with pytest.raises(DomainError):
            moment_In(-1, ctx_half)
        shallow = lattice_weight(10, 30, ctx_half)
        with pytest.raises(DomainError):
            moment_In(0, ctx_half, K=60, weight=shallow)


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
            mu = build_measure(target, ctx_half, K=60, weight=weight_half)
            split = mu.branch_split
            grow = mu.support[:split]
            shrink = mu.support[split:]
            assert all(a < b for a, b in zip(grow, grow[1:]))
            assert all(a > b for a, b in zip(shrink, shrink[1:]))
            assert len(set(mu.exponents)) == len(mu.exponents)
            assert all(w > 0 for w in mu.weights)

    def test_y_measure_reproduces_moments(self, ctx_half, weight_half):
        mu = build_measure("y-variable", ctx_half, K=60, weight=weight_half)
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
        mu = build_measure("x-variable", ctx_half, K=60, weight=weight_half)
        diagonal = unity_check(4, ctx_half, K=60).diagonal
        for n in range(5):
            g = ctx_half.mp.pi / rho_factorial(n, ctx_half) * mu.moment(n, ctx_half)
            assert abs(g - 1) < ctx_half.mpf("1e-6")
            bound = ctx_half.mpf(2) ** (8 - ctx_half.precision_bits)
            assert abs(g - diagonal[n]) <= bound, n

    def test_moment_of_undecayed_lattice_raises(self, ctx_half):
        # At K = 8 the growing branch of moment 8 has not decayed; the
        # measure moment goes through the hat sum and its certificate.
        mu = build_measure("y-variable", ctx_half, K=8)
        with pytest.raises(
            NoConvergenceError,
            match=r"^DiscreteMeasure\.moment: growing-abscissa branch not decaying "
            r"at K=8 \(last term ",
        ):
            mu.moment(8, ctx_half)

    @pytest.mark.parametrize(
        "q, want",
        [
            (Fraction(1, 2), "38.786613509863448344535766995523299127"),
            (Fraction(3, 10), "68.110447217750246983494868015555705768"),
        ],
        ids=str,
    )
    def test_moment_of_negative_order(self, q, want):
        # s^-1 is the exact 1/s rounded once, so the moment adds the terms
        # (1 / s) w; the digits were those of the binary power it replaced,
        # and the last 1/2 digit moved when the weight became the closed
        # form rounded once (the same member).
        ctx = PrecisionContext(q, 128)
        mu = build_measure("y-variable", ctx, K=20)
        got = mu.moment(-1, ctx)
        assert str(got) == want
        plain = ctx.mpf(0)
        for s, w in zip(mu.support, mu.weights):
            plain += (1 / s) * w
        assert abs(got - plain) <= ctx.mpf(2) ** -100 * plain

    def test_radial_masses_absorb_normalizer(self, ctx_half, weight_half):
        flat = build_measure("x-variable", ctx_half, K=60, weight=weight_half)
        ring = build_measure(
            "z-plane-radial", ctx_half, K=60, weight=weight_half
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
        flat = build_measure("x-variable", ctx_half, K=60, weight=weight_half)
        ring = build_measure("z-plane-radial", ctx_half, K=60, weight=weight_half)
        norms = dict(zip(range(62, -60, -1), _ring_normalizers(60, ctx_half)))
        for m, nu, mass in zip(ring.exponents, flat.weights, ring.weights):
            assert mass == ctx_half.mp.pi * _pairs._mpf(norms[m], ctx_half) * nu, m

    def test_constants_documented(self, ctx_half, weight_half):
        for target in MEASURE_TARGETS:
            mu = build_measure(target, ctx_half, K=60, weight=weight_half)
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
        report = unity_check(6, ctx, K=K)
        weight = lattice_weight(K + 1, 120, ctx)
        for n, g in enumerate(report.diagonal):
            res = moment_In(n, ctx, K=K, weight=weight)
            assert g._mpf_ == (res.lattice_value / res.closed_form)._mpf_, n
        assert report.max_abs_deviation == max(abs(g - 1) for g in report.diagonal)

    def test_parameter_validation(self, ctx_half):
        with pytest.raises(DomainError):
            unity_check(-1, ctx_half)


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
