"""Truncated ladder operators, commutation identities, spectrum."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest
from correctly_rounded import mul
from hypothesis import HealthCheck, given, settings, strategies as st

from qhermite2 import PrecisionContext, qoscillator
from qhermite2.errors import AlgebraViolation, DomainError
from qhermite2._pairs import _as_pair, _plus
from qhermite2.exact import bn_squared_exact, lambda_exact, qbracket
from qhermite2.qkernel import b_coeff
from qhermite2.qoscillator import (
    TruncatedOperator,
    _combine,
    _diag_operator,
    build_hamiltonian,
    build_ladder,
    build_momentum,
    build_position,
    mat_mul,
    mat_scale,
    mat_sub,
    spectrum,
    verify_algebra,
)

# q's whose running powers and levels are checked up to n = 200.
_LEVEL_QS = [Fraction(1, 64), Fraction(3, 10), Fraction(1, 2), Fraction(37, 64), Fraction(4, 5), Fraction(99, 100)]


class TestOperatorConstruction:
    def test_position_is_symmetric_tridiagonal(self, ctx_half):
        X = build_position(8, ctx_half)
        for i in range(8):
            for j in range(8):
                assert X.entry(i, j) == X.entry(j, i)
                if abs(i - j) > 1:
                    assert X.entry(i, j) == 0
        assert abs(X.entry(0, 1) - b_coeff(0, ctx_half)) == 0

    def test_momentum_is_antisymmetric_imaginary(self, ctx_half):
        P = build_momentum(8, ctx_half)
        for i in range(8):
            for j in range(8):
                assert P.entry(i, j) == -P.entry(j, i)
                assert P.entry(i, j).real == 0

    def test_lowering_annihilates_ground_state(self, all_ctx):
        for ctx in all_ctx:
            lowering, raising = build_ladder(6, ctx)
            for i in range(6):
                assert lowering.entry(i, 0) == 0
            # structural zeros away from the single working diagonal
            for i in range(6):
                for j in range(6):
                    if j != i + 1:
                        assert lowering.entry(i, j) == 0
                    if j != i - 1:
                        assert raising.entry(i, j) == 0

    def test_dimension_validation(self, ctx_half):
        with pytest.raises(DomainError):
            build_position(1, ctx_half)
        with pytest.raises(DomainError):
            verify_algebra(2, ctx_half)


class TestAlgebraIdentities:
    @pytest.mark.parametrize("dim", [4, 8, 16, 32])
    def test_all_identities_within_ulp_budget(self, all_ctx, dim):
        for ctx in all_ctx:
            report = verify_algebra(dim, ctx)
            assert report.passed
            assert report.valid_block == dim - 1
            assert set(report.max_residuals) == {
                "lowering-raising-product",
                "raising-lowering-product",
                "q-commutator-inverse-q",
                "q-commutator-inverse-q2",
                "hamiltonian-quadrature",
                "hamiltonian-diagonal",
            }
            for name, worst in report.max_residuals.items():
                bound = report.ulp_bound * report.scales[name] * ctx.eps
                assert worst <= bound, name

    @pytest.mark.parametrize("dim", [3, 16, 32])
    @pytest.mark.parametrize("q", [Fraction(9, 10), Fraction(99, 100), Fraction(23, 24)], ids=str)
    def test_passes_near_q_one(self, q, dim):
        # The quadrature prefactor q/(1-q) is rounded once from the exact
        # rational; forming it from the rounded q broke the 4-ulp budget.
        assert verify_algebra(dim, PrecisionContext(q=q, precision_bits=256)).passed

    @pytest.mark.parametrize("bound", [-1, True, False, None, 4.0, "4", Fraction(4)], ids=repr)
    def test_refuses_an_invalid_ulp_bound(self, ctx_half, bound):
        # An invalid budget is a usage error, not a failed gate.
        with pytest.raises(DomainError, match="ulp_bound must be an int >= 0"):
            verify_algebra(4, ctx_half, ulp_bound=bound)

    def test_block_maxima_formed_once_per_operator(self, ctx_half, monkeypatch):
        # six reference operators and five distinct operands: a- a+,
        # a+ a-, the two scalings of a+ a-, and H
        calls = []
        measure = qoscillator._block_max_abs

        def spy(op, block):
            calls.append(id(op))
            return measure(op, block)

        monkeypatch.setattr(qoscillator, "_block_max_abs", spy)
        verify_algebra(8, ctx_half)
        assert len(calls) == 11
        assert len(set(calls)) == 11

    def test_hamiltonian_diagonal_matches_exact_levels(self, ctx_half):
        dim = 10
        H = build_hamiltonian(dim, ctx_half)
        for n in range(dim - 1):
            lam = ctx_half.mpf(lambda_exact(n, ctx_half.q))
            scale = max(abs(lam), ctx_half.mpf(1))
            assert abs(H.entry(n, n) - lam) <= 64 * ctx_half.eps * scale


class TestSpectrum:
    def test_reference_levels_at_half(self, ctx_half):
        table = spectrum(3, ctx_half)
        got = [float(v) for _, v in table.levels]
        assert got == [1.0, 7.0, 34.0, 148.0]

    def test_strictly_increasing(self, all_ctx):
        for ctx in all_ctx:
            table = spectrum(12, ctx)
            values = [v for _, v in table.levels]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_matches_two_path_closed_form(self, all_ctx):
        for ctx in all_ctx:
            q = ctx.q
            for n, v in spectrum(8, ctx).levels:
                two_path = (q / (1 - q)) * (
                    bn_squared_exact(n - 1, q) + bn_squared_exact(n, q)
                )
                assert lambda_exact(n, q) == two_path
                assert v == ctx.mpf(lambda_exact(n, q))

    @pytest.mark.parametrize("q", _LEVEL_QS, ids=str)
    def test_running_levels_round_as_the_closed_form(self, q):
        for bits in (64, 256):
            ctx = PrecisionContext(q=q, precision_bits=bits)
            for n, v in spectrum(200, ctx).levels:
                assert v._mpf_ == ctx.mpf(lambda_exact(n, q))._mpf_, (bits, n)


# Dense references: the full-matrix loops the banded layer must match
# bitwise, entry by entry, including the exact zeros off its bands.


def _dense(op):
    return [[op.entry(i, j) for j in range(op.dim)] for i in range(op.dim)]


def _dense_ladder(X, P, ctx):
    """(a-, a+) entrywise from the literal combination of dense X, P."""
    mp = ctx.mp
    half_root = mp.sqrt(ctx.mpf(ctx.q / (1 - ctx.q))) / 2
    i = mp.mpc(0, 1)
    x, p = _dense(X), _dense(P)
    n = X.dim
    lowering = [[half_root * (x[r][c] + i * p[r][c]) for c in range(n)] for r in range(n)]
    raising = [[half_root * (x[r][c] - i * p[r][c]) for c in range(n)] for r in range(n)]
    return lowering, raising


def _dense_mul(a, b, times=operator.mul):
    """Dense product, each entry summed over ascending k from k = 0."""
    n = len(a)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = times(a[i][0], b[0][j])
            for k in range(1, n):
                acc = acc + times(a[i][k], b[k][j])
            out[i][j] = acc
    return out


def _dense_entrywise(op, a, b):
    return [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _dense_scale(s, a):
    return [[s * x for x in row] for row in a]


def _dense_apply(a, vector):
    out = []
    for row in a:
        acc = row[0] * vector[0]
        for j in range(1, len(row)):
            acc = acc + row[j] * vector[j]
        out.append(acc)
    return out


def _assert_matches_dense(op, ref):
    for i in range(op.dim):
        for j in range(op.dim):
            assert op.entry(i, j) == ref[i][j], (i, j)
            if j - i not in op.bands:
                assert ref[i][j] == 0, (i, j)


def _assert_banded_layer_is_dense(dim, ctx, seed=0):
    X = build_position(dim, ctx)
    P = build_momentum(dim, ctx)
    lowering, raising = build_ladder(dim, ctx)
    dense_lo, dense_ra = _dense_ladder(X, P, ctx)
    _assert_matches_dense(lowering, dense_lo)
    _assert_matches_dense(raising, dense_ra)
    _assert_matches_dense(mat_mul(lowering, raising, ctx), _dense_mul(dense_lo, dense_ra))
    _assert_matches_dense(mat_mul(raising, lowering, ctx), _dense_mul(dense_ra, dense_lo))
    _assert_matches_dense(mat_mul(X, X, ctx), _dense_mul(_dense(X), _dense(X)))
    _assert_matches_dense(mat_mul(P, P, ctx), _dense_mul(_dense(P), _dense(P)))
    minus_plus = _dense_mul(dense_lo, dense_ra)
    plus_minus = _dense_mul(dense_ra, dense_lo)
    _assert_matches_dense(
        build_hamiltonian(dim, ctx), _dense_entrywise(operator.add, plus_minus, minus_plus)
    )
    _assert_matches_dense(
        _combine(mat_mul(X, X, ctx), mat_mul(P, P, ctx), _plus),
        _dense_entrywise(operator.add, _dense_mul(_dense(X), _dense(X)), _dense_mul(_dense(P), _dense(P))),
    )
    rnd = random.Random(seed)
    vector = [ctx.mp.mpc(rnd.uniform(-1, 1), rnd.uniform(-1, 1)) for _ in range(dim)]
    for op in (lowering, raising, X, P):
        assert op.apply(vector) == _dense_apply(_dense(op), vector)
    for s in (ctx.mpf(1 / ctx.q), ctx.mpf(ctx.q / (1 - ctx.q)) / 2, ctx.mp.mpf(rnd.uniform(-4, 4))):
        scaled = _dense_scale(s, plus_minus)
        _assert_matches_dense(mat_scale(mat_mul(raising, lowering, ctx), s), scaled)
        _assert_matches_dense(mat_scale(X, s), _dense_scale(s, _dense(X)))
        _assert_matches_dense(
            mat_sub(mat_mul(lowering, raising, ctx), mat_scale(mat_mul(raising, lowering, ctx), s)),
            _dense_entrywise(operator.sub, minus_plus, scaled),
        )
    _assert_matches_dense(mat_sub(X, P), _dense_entrywise(operator.sub, _dense(X), _dense(P)))


class TestBandedLayer:
    @pytest.mark.parametrize("bits", [64, 256])
    @pytest.mark.parametrize("dim", [3, 4, 17])
    @pytest.mark.parametrize("q", [Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)], ids=str)
    def test_products_and_apply_match_dense_bitwise(self, q, dim, bits):
        _assert_banded_layer_is_dense(dim, PrecisionContext(q=q, precision_bits=bits))

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        q=st.fractions(Fraction(1, 1000), Fraction(999, 1000), max_denominator=1000),
        dim=st.integers(min_value=3, max_value=12),
        bits=st.integers(min_value=64, max_value=512),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_matches_dense_bitwise(self, q, dim, bits, seed):
        _assert_banded_layer_is_dense(dim, PrecisionContext(q=q, precision_bits=bits), seed)

    def test_growing_dim_leaves_valid_block_unchanged(self, all_ctx):
        def products(dim, ctx):
            X = build_position(dim, ctx)
            P = build_momentum(dim, ctx)
            lowering, raising = build_ladder(dim, ctx)
            return (
                mat_mul(lowering, raising, ctx),
                mat_mul(raising, lowering, ctx),
                mat_mul(X, X, ctx),
                mat_mul(P, P, ctx),
                build_hamiltonian(dim, ctx),
            )

        for ctx in all_ctx:
            for small, large in zip(products(8, ctx), products(40, ctx)):
                block = small.dim - 1
                for i in range(block):
                    for j in range(block):
                        assert small.entry(i, j) == large.entry(i, j), (ctx.q, i, j)

    @pytest.mark.parametrize(
        "q, dim, message",
        [
            (
                Fraction(1, 2),
                8,
                "lowering-raising-product: entry (1,1) residual 6.9089348e-77 "
                "exceeds 0 ulp of scale 8128.0 at dim=8",
            ),
            (
                Fraction(4, 5),
                5,
                "lowering-raising-product: entry (2,2) residual 6.9089348e-77 "
                "exceeds 0 ulp of scale 11.260986 at dim=5",
            ),
        ],
        ids=str,
    )
    def test_violation_message_names_first_offending_entry(self, q, dim, message):
        ctx = PrecisionContext(q=q, precision_bits=256)
        with pytest.raises(AlgebraViolation) as excinfo:
            verify_algebra(dim, ctx, ulp_bound=0)
        assert str(excinfo.value) == message

    def test_entry_outside_dim_raises(self, ctx_half):
        X = build_position(4, ctx_half)
        with pytest.raises(IndexError):
            X.entry(4, 3)
        with pytest.raises(IndexError):
            X.entry(-1, 0)


def _sections(dim, ctx):
    """(name, section) of every section verify_algebra forms or compares."""
    X = build_position(dim, ctx)
    P = build_momentum(dim, ctx)
    lowering, raising = build_ladder(dim, ctx)
    return [
        ("X", X),
        ("P", P),
        ("a-", lowering),
        ("a+", raising),
        ("a-a+", mat_mul(lowering, raising, ctx)),
        ("a+a-", mat_mul(raising, lowering, ctx)),
        ("X^2", mat_mul(X, X, ctx)),
        ("P^2", mat_mul(P, P, ctx)),
        ("H", build_hamiltonian(dim, ctx)),
        ("diag", _diag_operator([(n + 1, 3) for n in range(dim)], ctx)),
    ]


def _is_real_pair(value):
    return type(value[0]) is int


class TestRealBands:
    """Sections whose imaginary parts are exactly 0 store real pairs, and
    the mpc boundary (entry, row, apply) hides the difference."""

    @pytest.mark.parametrize("dim", [3, 6])
    def test_storage_kind_of_each_section(self, ctx_half, dim):
        for name, op in _sections(dim, ctx_half):
            values = [v for band in op.bands.values() for v in band]
            assert values, name
            if name == "P":
                assert not any(map(_is_real_pair, values)), name
                assert all(v[0][0] == 0 for v in values), name  # purely imaginary
            else:
                assert all(map(_is_real_pair, values)), name

    def test_boundary_hands_out_mpc(self, ctx_half):
        mpc = ctx_half.mp.mpc
        vector = [ctx_half.mpf(n + 1) / 3 for n in range(6)]
        for name, op in _sections(6, ctx_half):
            for i in range(op.dim):
                assert all(type(op.entry(i, j)) is mpc for j in range(op.dim)), name
                assert all(type(value) is mpc for _, value in op.row(i)), name
            assert all(type(value) is mpc for value in op.apply(vector)), name

    @pytest.mark.parametrize("bits", [64, 256])
    def test_apply_takes_real_int_and_complex_vectors(self, bits):
        ctx = PrecisionContext(q=Fraction(2, 7), precision_bits=bits)
        mp = ctx.mp
        rnd = random.Random(bits)
        vectors = [
            [mp.mpf(rnd.uniform(-3, 3)) for _ in range(7)],
            [rnd.randint(-(2**90), 2**90) for _ in range(7)],
            [mp.mpc(rnd.uniform(-1, 1), rnd.uniform(-1, 1)) for _ in range(7)],
        ]
        for name, op in _sections(7, ctx):
            for vector in vectors:
                assert op.apply(vector) == _dense_apply(_dense(op), vector), name

    @pytest.mark.parametrize("bits", [64, 256])
    def test_mixed_real_and_complex_operations_match_dense(self, bits):
        ctx = PrecisionContext(q=Fraction(5, 8), precision_bits=bits)
        mp = ctx.mp
        X = build_position(6, ctx)
        P = build_momentum(6, ctx)
        for s in (mp.mpc(ctx.mpf(1) / 3, -ctx.mpf(2) / 7), mp.mpc(ctx.mpf(3) / 5, 0)):
            _assert_matches_dense(mat_scale(X, s), _dense_scale(s, _dense(X)))
        _assert_matches_dense(
            _combine(X, P, _plus), _dense_entrywise(operator.add, _dense(X), _dense(P))
        )
        _assert_matches_dense(mat_mul(X, P, ctx), _dense_mul(_dense(X), _dense(P)))
        _assert_matches_dense(mat_mul(P, X, ctx), _dense_mul(_dense(P), _dense(X)))

    @pytest.mark.parametrize("bits", [64, 256])
    def test_real_and_mixed_bands_match_dense(self, bits):
        # Real sections take the real-pair paths of _combine, mat_sub,
        # mat_scale and mat_mul; bands mixing real and complex entries
        # the general ones.  Each is the dense result, rounded once a part.
        ctx = PrecisionContext(q=Fraction(3, 7), precision_bits=bits)
        mp = ctx.mp
        rnd = random.Random(bits)
        dim = 7
        sections = [
            _synthetic(dim, ctx, rnd, (-1, 0, 2), 1 / 2),
            _synthetic(dim, ctx, rnd, (-2, 0, 1), 1 / 2),
            _synthetic(dim, ctx, rnd, (-1, 0, 1), 0),
            _synthetic(dim, ctx, rnd, (0, 2), 0),
        ]
        assert sum(map(_is_real_pair, [v for op in sections[:2] for b in op.bands.values() for v in b])) > 5
        for a in sections:
            dense_a = _dense(a)
            for b in sections:
                dense_b = _dense(b)
                _assert_matches_dense(_combine(a, b, _plus), _dense_entrywise(operator.add, dense_a, dense_b))
                _assert_matches_dense(mat_sub(a, b), _dense_entrywise(operator.sub, dense_a, dense_b))
                _assert_matches_dense(mat_mul(a, b, ctx), _dense_mul(dense_a, dense_b, mul))
            for s in (ctx.mpf(3) / 7, -5, mp.mpc(ctx.mpf(1) / 3, -ctx.mpf(2) / 5), mp.mpc(0, ctx.mpf(2) / 3)):
                _assert_matches_dense(mat_scale(a, s), [[mul(s, x) for x in row] for row in dense_a])


def _synthetic(dim, ctx, rnd, offsets, complex_share):
    """A section with random entries of at most prec bits on ``offsets``,
    each complex (a nonzero imaginary part, the real part 0 in a third of
    them) with probability ``complex_share``, else real; exponents spread
    so that some addends lie far below others."""
    prec = ctx.mp.prec

    def part():
        man = rnd.getrandbits(prec) | 1 << (prec - 1) if rnd.random() < 0.8 else rnd.getrandbits(9)
        return rnd.choice((1, -1)) * man, rnd.choice((-prec, -prec - 3, -prec + 5, -3 * prec))

    def value():
        if rnd.random() >= complex_share:
            return part()
        re = (0, rnd.randint(-9, 9)) if rnd.random() < 1 / 3 else part()
        im = part()
        return re, (im[0] or 1, im[1])

    return TruncatedOperator(dim, {d: tuple(value() for _ in range(dim - abs(d))) for d in offsets}, ctx)


class TestResidualScan:
    """verify_algebra names the row-major first entry over its tolerance,
    whatever band the sweep meets first."""

    @pytest.mark.parametrize("bands_first", [(1, 0, -1), (-1, 0, 1), (0, 1, -1)], ids=str)
    def test_names_row_major_first_offender(self, ctx_half, monkeypatch, bands_first):
        dim = 8
        block = dim - 1
        mp = ctx_half.mp
        scale = verify_algebra(dim, ctx_half).scales["lowering-raising-product"]
        tol = qoscillator.ULP_BUDGET * scale * ctx_half.eps
        small = _as_pair(tol / 2)
        values = {
            # offenders: (2,2) in band 0, (2,3) and (4,5) in band +1, (3,2)
            # in band -1; the largest at (4,5); entries past the block
            # (row or column 7) are ignored however large
            0: {0: small, 2: (3, 0), 7: (1, 80)},
            1: {0: small, 2: ((5, 0), (-1, -1)), 4: (7, 0), 6: (1, 90)},
            -1: {0: small, 2: (-11, -2), 6: (1, 70)},
        }
        residual = TruncatedOperator(
            dim,
            {d: tuple(values[d].get(k, (0, 0)) for k in range(dim - abs(d))) for d in bands_first},
            ctx_half,
        )
        monkeypatch.setattr(qoscillator, "mat_sub", lambda a, b: residual)
        # the dense row-major scan of the block
        first = next(
            (i, j)
            for i in range(block)
            for j in range(block)
            if abs(residual.entry(i, j)) > tol
        )
        assert first == (2, 2)
        i, j = first
        message = (
            f"lowering-raising-product: entry ({i},{j}) residual "
            f"{mp.nstr(abs(residual.entry(i, j)), 8)} exceeds 4 ulp of scale "
            f"{mp.nstr(scale, 8)} at dim={dim}"
        )
        with pytest.raises(AlgebraViolation) as excinfo:
            verify_algebra(dim, ctx_half)
        assert str(excinfo.value) == message

    def test_worst_residual_is_the_dense_block_maximum(self, ctx_half, monkeypatch):
        dim = 6
        tiny = _as_pair(ctx_half.mpf(2) ** -400)
        residual = TruncatedOperator(
            dim,
            {
                -1: ((0, 0), tiny, (3, -410), (0, 0), (9, -380)),
                0: ((5, -405), (0, 0), (-7, -402), (0, 0), (1, -404), (0, 0)),
                1: (((1, -401), (-3, -401)), (0, 0), (0, 0), (0, 0), (1, -300)),
            },
            ctx_half,
        )
        monkeypatch.setattr(qoscillator, "mat_sub", lambda a, b: residual)
        worst = max(abs(residual.entry(i, j)) for i in range(dim - 1) for j in range(dim - 1))
        report = verify_algebra(dim, ctx_half)
        assert set(report.max_residuals.values()) == {worst}


# Reference: verify_algebra on mpc values, bands as dicts offset ->
# tuple of mpc and each operation the mpc operator.  The pair layer must
# reproduce its residuals, scales and messages bit for bit.


def _mpc_verify_algebra(dim, ctx, ulp_bound=4):
    mp, q = ctx.mp, ctx.q
    zero = mp.mpc(0)
    block = dim - 1

    def row(m, i):
        for d in sorted(m):
            if 0 <= i + d < dim:
                yield i + d, m[d][min(i, i + d)]

    def ascending_sum(terms):
        acc = None
        for term in terms:
            acc = term if acc is None else acc + term
        return zero if acc is None else acc

    def mul(a, b):
        return {
            d: tuple(
                ascending_sum(x * b[i + d - k][min(k, i + d)] for k, x in row(a, i) if i + d - k in b)
                for i in range(max(0, -d), dim - max(0, d))
            )
            for d in sorted({da + db for da in a for db in b})
        }

    def combine(a, b, op):
        out = {}
        for d in sorted(set(a) | set(b)):
            absent = (zero,) * (dim - abs(d))
            out[d] = tuple(map(op, a.get(d, absent), b.get(d, absent)))
        return out

    def scale(a, s):
        return {d: tuple(s * x for x in band) for d, band in a.items()}

    def diag(values):
        return {0: tuple(mp.mpc(ctx.mpf(v)) for v in values)}

    def entries(m):
        for i in range(block):
            for j, value in row(m, i):
                if j < block:
                    yield i, j, value

    def max_abs(m):
        return max((abs(v) for _, _, v in entries(m)), default=abs(zero))

    b = [mp.sqrt(ctx.mpf(bn_squared_exact(n, q))) for n in range(dim - 1)]
    X = {-1: tuple(mp.mpc(x) for x in b), 1: tuple(mp.mpc(x) for x in b)}
    P = {-1: tuple(mp.mpc(0, 1) * x for x in b), 1: tuple(mp.mpc(0, -1) * x for x in b)}
    half_root = mp.sqrt(ctx.mpf(q / (1 - q))) / 2
    i = mp.mpc(0, 1)
    lowering = {1: tuple(half_root * (x + i * p) for x, p in zip(X[1], P[1]))}
    raising = {-1: tuple(half_root * (x - i * p) for x, p in zip(X[-1], P[-1]))}
    minus_plus = mul(lowering, raising)
    plus_minus = mul(raising, lowering)
    h_direct = combine(plus_minus, minus_plus, operator.add)
    h_quadrature = scale(combine(mul(X, X), mul(P, P), operator.add), ctx.mpf(q / (1 - q)) / 2)
    scaled_pm1 = scale(plus_minus, ctx.mpf(1 / q))
    scaled_pm2 = scale(plus_minus, ctx.mpf(q**-2))
    ns = range(dim)
    checks = {
        "lowering-raising-product": (
            minus_plus,
            diag(q ** (-2 * n) * qbracket(n + 1, q) for n in ns),
            (minus_plus,),
        ),
        "raising-lowering-product": (
            plus_minus,
            diag(q ** (2 - 2 * n) * qbracket(n, q) for n in ns),
            (plus_minus,),
        ),
        "q-commutator-inverse-q": (
            combine(minus_plus, scaled_pm1, operator.sub),
            diag(q ** (-2 * n) for n in ns),
            (minus_plus, scaled_pm1),
        ),
        "q-commutator-inverse-q2": (
            combine(minus_plus, scaled_pm2, operator.sub),
            diag(q ** (-n) for n in ns),
            (minus_plus, scaled_pm2),
        ),
        "hamiltonian-quadrature": (h_direct, h_quadrature, (h_direct,)),
        "hamiltonian-diagonal": (h_direct, diag(lambda_exact(n, q) for n in ns), (h_direct,)),
    }
    eps = mp.mpf(2) ** (-ctx.precision_bits)
    max_residuals, scales = {}, {}
    for name, (lhs, rhs, operands) in checks.items():
        scale_ = max(max_abs(rhs), max(max_abs(m) for m in operands), mp.mpf(1))
        tol = ulp_bound * scale_ * eps
        worst = mp.mpf(0)
        for i, j, value in entries(combine(lhs, rhs, operator.sub)):
            diff = abs(value)
            if diff > tol:
                raise AlgebraViolation(
                    f"{name}: entry ({i},{j}) residual {mp.nstr(diff, 8)} "
                    f"exceeds {ulp_bound} ulp of scale {mp.nstr(scale_, 8)} "
                    f"at dim={dim}"
                )
            worst = max(worst, diff)
        max_residuals[name] = worst
        scales[name] = scale_
    return max_residuals, scales


def _assert_matches_mpc_reference(dim, ctx, ulp_bound=4):
    try:
        max_residuals, scales = _mpc_verify_algebra(dim, ctx, ulp_bound)
    except AlgebraViolation as exc:
        with pytest.raises(AlgebraViolation) as excinfo:
            verify_algebra(dim, ctx, ulp_bound)
        assert str(excinfo.value) == str(exc)
        return
    report = verify_algebra(dim, ctx, ulp_bound)
    assert report.max_residuals == max_residuals
    assert report.scales == scales


class TestMpcReference:
    @pytest.mark.parametrize("bits", [64, 256])
    @pytest.mark.parametrize("dim", [3, 4, 17])
    @pytest.mark.parametrize("q", [Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)], ids=str)
    def test_verify_algebra_matches_mpc_reference(self, q, dim, bits):
        ctx = PrecisionContext(q=q, precision_bits=bits)
        _assert_matches_mpc_reference(dim, ctx)
        _assert_matches_mpc_reference(dim, ctx, ulp_bound=0)

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        q=st.fractions(Fraction(1, 1000), Fraction(999, 1000), max_denominator=1000),
        dim=st.integers(min_value=3, max_value=48),
        bits=st.integers(min_value=64, max_value=512),
        ulp_bound=st.integers(min_value=0, max_value=8),
    )
    def test_property_matches_mpc_reference(self, q, dim, bits, ulp_bound):
        _assert_matches_mpc_reference(dim, PrecisionContext(q=q, precision_bits=bits), ulp_bound)

    # Cases where the arithmetic exceeds the 4-ulp budget (each a+- entry,
    # the rounded sqrt(q/(1-q)) and the products all round before the
    # comparison).  They stay failures with the messages the mpc layer
    # printed until that arithmetic is fixed; the budget does not move.
    @pytest.mark.parametrize(
        "q, bits, dim, message",
        [
            (
                Fraction(2, 17), 256, 32,
                "q-commutator-inverse-q2: entry (30,30) residual 2.5410988e-21 "
                "exceeds 4 ulp of scale 6.5992291e+55 at dim=32",
            ),
            (
                Fraction(7, 9), 256, 24,
                "q-commutator-inverse-q2: entry (22,22) residual 9.9643422e-72 "
                "exceeds 4 ulp of scale 284594.17 at dim=24",
            ),
            (
                Fraction(3, 10), 128, 64,
                "raising-lowering-product: entry (62,62) residual 1.1605688e+26 "
                "exceeds 4 ulp of scale 8.8330133e+63 at dim=64",
            ),
            (
                Fraction(9, 10), 64, 3,
                "lowering-raising-product: entry (1,1) residual 6.505213e-19 "
                "exceeds 4 ulp of scale 2.345679 at dim=3",
            ),
            (
                Fraction(99, 100), 64, 48,
                "hamiltonian-diagonal: entry (43,43) residual 4.1633363e-17 "
                "exceeds 4 ulp of scale 186.369 at dim=48",
            ),
        ],
        ids=str,
    )
    def test_known_over_budget_messages(self, q, bits, dim, message):
        ctx = PrecisionContext(q=q, precision_bits=bits)
        with pytest.raises(AlgebraViolation) as excinfo:
            verify_algebra(dim, ctx)
        assert str(excinfo.value) == message
