"""Coherent states: normalizer, ratio law, eigen-residual."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
from correctly_rounded import mul, size
from hypothesis import HealthCheck, given, settings, strategies as st

from qhermite2.coherent import (
    CoherentStateVector,
    EigenResidual,
    cs_coeffs,
    cs_eigen_residual,
    cs_norm_sq,
)
from qhermite2.context import PrecisionContext
from qhermite2.errors import DomainError, TruncationError
from qhermite2.qkernel import b_coeff
from qhermite2.qoscillator import build_ladder


NORM_SQ_ORACLES = [
    (Fraction(1, 4), Fraction(1, 2), "1.260509866479123024396096"),
    (Fraction(1, 16), Fraction(3, 10), "1.062770531189395903751024"),
    (Fraction(9, 4), Fraction(4, 5), "5.8820030468347505781907"),
]


class TestNormalizer:
    def test_reference_values(self, ctx_by_q):
        for t, q, want in NORM_SQ_ORACLES:
            ctx = ctx_by_q[q]
            got = cs_norm_sq(t, ctx)
            digits = len(want.replace(".", ""))
            assert ctx.mp.nstr(got, digits) == want

    def test_at_origin_and_monotone(self, all_ctx):
        for ctx in all_ctx:
            assert cs_norm_sq(0, ctx) == 1
            values = [cs_norm_sq(Fraction(k, 4), ctx) for k in range(8)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_negative_rejected(self, ctx_half):
        with pytest.raises(DomainError):
            cs_norm_sq(-1, ctx_half)


class TestCoefficients:
    def test_ratio_law(self, all_ctx):
        # The eigenvector condition forces
        # c_{n+1} sqrt(q/(1-q)) b_n = z c_n entry by entry.
        for ctx in all_ctx:
            z = ctx.mpc(complex(0.7, -0.4))
            state = cs_coeffs(z, 40, ctx)
            root = ctx.mp.sqrt(ctx.mpf(ctx.q / (1 - ctx.q)))
            for n in range(12):
                lhs = state.coeffs[n + 1] * root * b_coeff(n, ctx)
                rhs = z * state.coeffs[n]
                assert abs(lhs - rhs) <= 16 * ctx.eps * abs(rhs)

    def test_unit_norm_within_tail_bound(self, all_ctx):
        for ctx in all_ctx:
            state = cs_coeffs(ctx.mpc(complex(1.5, 0.5)), 60, ctx)
            mass = sum(abs(c) ** 2 for c in state.coeffs)
            assert mass <= 1 + 8 * ctx.eps
            assert mass >= 1 - state.tail_bound - 8 * ctx.eps

    def test_truncation_certificate_raises_when_unreachable(self, ctx_half):
        with pytest.raises(TruncationError):
            cs_coeffs(ctx_half.mpc(50), 4, ctx_half)

    def test_trunc_validation(self, ctx_half):
        with pytest.raises(DomainError):
            cs_coeffs(ctx_half.mpc(1), 0, ctx_half)

    def test_q_rounding_to_one_is_refused(self):
        # 1 - q is 0 at 64 bits for q = 1 - 2^-70; it used to divide by it.
        ctx = PrecisionContext(Fraction(2**70 - 1, 2**70), 64)
        with pytest.raises(DomainError, match=r"rounds to 1 at 64 bits"):
            cs_coeffs(ctx.mpc(1), 20, ctx)


class TestEigenResidual:
    def test_residual_below_bound_across_grid(self, all_ctx):
        for ctx in all_ctx:
            for zc in (complex(0.5, 0), complex(0, 2), complex(1.2, -1.1)):
                rep = cs_eigen_residual(ctx.mpc(zc), 60, ctx)
                assert rep.residual <= rep.bound
                assert rep.bound < ctx.mpf("1e-30")

    def test_matrix_method_consistent_down_to_noise_floor(self, ctx_half):
        z = ctx_half.mpc(complex(0.9, 0.3))
        analytic = cs_eigen_residual(z, 30, ctx_half, method="analytic")
        literal = cs_eigen_residual(z, 30, ctx_half, method="matrix")
        assert literal.residual <= max(
            4 * analytic.residual, 8 * literal.noise_floor
        )

    def test_method_validation(self, ctx_half):
        with pytest.raises(DomainError):
            cs_eigen_residual(ctx_half.mpc(1), 60, ctx_half, method="exact")
        with pytest.raises(DomainError):
            cs_eigen_residual(ctx_half.mpc(1), 2, ctx_half)


def test_truncation_default_is_declared_once():
    # The ``cs --trunc`` default is coherent.CS_TRUNC, which the ``cs``
    # config echoes as 60.
    from qhermite2 import cli, coherent

    assert coherent.CS_TRUNC == 60
    assert cli.CS_TRUNC is coherent.CS_TRUNC
    assert cli._build_parser().parse_args(["cs"]).trunc == coherent.CS_TRUNC


# -- bitwise reference: the coherent layer on mpf/mpc operators -----------


def _ref_cs_coeffs(z, trunc, ctx):
    """cs_coeffs as computed with mpf/mpc operators and one b_coeff call
    per index, the complex products and moduli correctly rounded."""
    mp = ctx.mp
    q = ctx.qm
    zv = ctx.mpc(z)
    zabs2 = size(zv) ** 2
    norm_sq = cs_norm_sq(zabs2, ctx)
    norm = mp.sqrt(norm_sq)
    root_c = mp.sqrt(q / (1 - q))
    coeffs = [1 / norm + mp.mpc(0)]
    for n in range(trunc):
        coeffs.append(mul(coeffs[n], zv) / (root_c * b_coeff(n, ctx)))
    t = zabs2 ** (trunc + 1)
    for n in range(trunc + 1):
        t = t / ((q / (1 - q)) * b_coeff(n, ctx) ** 2)
    r = zabs2 * (1 - q) * q ** (2 * (trunc + 1)) / (1 - q ** (trunc + 2))
    if r >= 1:
        raise TruncationError(
            f"tail ratio {mp.nstr(r, 6)} >= 1 at trunc={trunc}; "
            "increase trunc for this |z|"
        )
    tail_bound = t / (1 - r) / norm_sq
    if tail_bound >= ctx.mpf(ctx.series_tol):
        raise TruncationError(
            f"tail bound {mp.nstr(tail_bound, 6)} exceeds series_tol at "
            f"trunc={trunc}; increase trunc"
        )
    return CoherentStateVector(zv, trunc, tuple(coeffs), tail_bound, norm_sq)


def _ref_cs_eigen_residual(z, trunc, ctx, method):
    mp = ctx.mp
    q = ctx.qm
    state = _ref_cs_coeffs(z, trunc, ctx)
    zv = state.z
    root_c = mp.sqrt(q / (1 - q))
    c_last = size(state.coeffs[trunc])
    bound = c_last * root_c * b_coeff(trunc - 1, ctx) + state.tail_bound * size(zv)
    noise_floor = ctx.eps * (1 + size(zv)) * mp.sqrt(mp.mpf(trunc + 1))
    if method == "analytic":
        residual = size(zv) * c_last
    else:
        lowering, _ = build_ladder(trunc + 1, ctx)
        image = lowering.apply(list(state.coeffs))
        acc = mp.mpf(0)
        for n in range(trunc + 1):
            acc = acc + abs(image[n] - zv * state.coeffs[n]) ** 2
        residual = mp.sqrt(acc)
    return EigenResidual(zv, trunc, method, residual, bound, noise_floor, state)


def _state_bits(state):
    return (
        state.z._mpc_,
        state.trunc,
        tuple(c._mpc_ for c in state.coeffs),
        state.tail_bound._mpf_,
        state.norm_sq._mpf_,
    )


def _outcome(fn, *args):
    """The raw bits of fn's result, or its TruncationError message."""
    try:
        got = fn(*args)
    except TruncationError as err:
        return "TruncationError", str(err)
    if isinstance(got, CoherentStateVector):
        return _state_bits(got)
    return (
        got.z._mpc_, got.trunc, got.method, got.residual._mpf_, got.bound._mpf_,
        got.noise_floor._mpf_, _state_bits(got.state),
    )


@lru_cache(maxsize=None)
def _context(q, bits):
    return PrecisionContext(q, bits)


def _z(ctx, re, im):
    # As the ``cs`` command forms z.
    return ctx.mpf(re) + ctx.mp.mpc(0, 1) * ctx.mpf(im)


def _assert_bitwise(ctx, z, trunc):
    assert _outcome(cs_coeffs, z, trunc, ctx) == _outcome(_ref_cs_coeffs, z, trunc, ctx)
    for method in ("analytic", "matrix"):
        assert _outcome(cs_eigen_residual, z, trunc, ctx, method) == _outcome(
            _ref_cs_eigen_residual, z, trunc, ctx, method
        )


_Z_POINTS = {
    "zero": (Fraction(0), Fraction(0)),
    "real": (Fraction(3, 2), Fraction(0)),
    "imaginary": (Fraction(0), Fraction(-5, 4)),
    "complex": (Fraction(-7, 8), Fraction(9, 5)),
    "large": (Fraction(40), Fraction(-3)),
}


class TestBitwiseReference:
    @pytest.mark.parametrize("bits", [64, 128, 256, 512])
    @pytest.mark.parametrize("q", ["1/64", "3/10", "1/2", "4/5", "26/27"])
    def test_grid(self, q, bits):
        ctx = _context(Fraction(q), bits)
        for re, im in _Z_POINTS.values():
            for trunc in (4, 30, 60):
                _assert_bitwise(ctx, _z(ctx, re, im), trunc)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        q_den=st.integers(2, 64),
        q_frac=st.floats(0, 1, exclude_max=True),
        bits=st.integers(64, 512),
        parts=st.tuples(st.integers(-24, 24), st.integers(-24, 24), st.integers(1, 8)),
        trunc=st.integers(4, 60),
    )
    def test_property_rational_z(self, q_den, q_frac, bits, parts, trunc):
        ctx = PrecisionContext(Fraction(1 + int(q_frac * (q_den - 1)), q_den), bits)
        re, im, den = parts
        _assert_bitwise(ctx, _z(ctx, Fraction(re, den), Fraction(im, den)), trunc)

    def test_non_finite_z_refused(self, ctx_half):
        for z in (ctx_half.mp.nan, ctx_half.mp.mpc(1, ctx_half.mp.inf)):
            with pytest.raises(ValueError):
                cs_coeffs(z, 10, ctx_half)
