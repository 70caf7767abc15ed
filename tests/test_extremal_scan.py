"""The screened carrier sign scan finds exactly the roots of the full scan.

``carrier_roots`` sets grid signs from a double-precision screen and
evaluates the carrier at working precision only at the ends of cells
the screen cannot exclude.  The reference below is the scan it
replaced: every grid point evaluated with ``_carrier_value``, the same
bracket test and the same Newton closure.  Roots and their metadata
are compared with ``==``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from qhermite2 import PrecisionContext
from qhermite2 import extremal
from qhermite2.errors import AlgebraViolation, NoConvergenceError
from qhermite2.extremal import (
    _carrier_coefficients,
    _carrier_value,
    _rational,
    _root_free_radius,
    _scan_grid,
    _screen,
    _screen_sum,
    _screened_sign,
    _shrink_bracket,
    carrier_roots,
)
from qhermite2.qkernel import b_table


def _full_scan_roots(bound, ctx, k_terms=None):
    """Positive roots as (x, residual, width, terms, tail), full mpf scan."""
    grid = _scan_grid(ctx.mpf(bound), 512, ctx)
    tol_root = ctx.mp.mpf(10) ** (-(ctx.precision_bits // 4))
    values = [_carrier_value(g, ctx, k_terms)[0] for g in grid]
    roots = []
    for a, b, fa, fb in zip(grid, grid[1:], values, values[1:]):
        if fa == 0 or fa * fb > 0:
            continue
        lo, hi = _shrink_bracket(a, b, fa, tol_root, ctx, k_terms)
        root = (lo + hi) / 2
        residual, used, tail, _ = _carrier_value(root, ctx, k_terms)
        roots.append((root, abs(residual), hi - lo, used, tail))
    return roots


def _positive(points):
    return [
        (p.x, p.carrier_residual, p.bracket_width, p.terms_used, p.tail_estimate)
        for p in points
        if p.x > 0
    ]


# (q, search bound, positive roots inside it, precision bits).  Each
# reference scan costs 1,024 working-precision evaluations, so 256 bits
# and the slowly converging q = 2/3 and 4/5 appear only where cheap.
CASES = (
    (Fraction(1, 64), Fraction(1, 2), 0, 64),
    (Fraction(1, 64), Fraction(1, 2), 0, 128),
    (Fraction(1, 64), Fraction(1000), 1, 64),
    (Fraction(1, 64), Fraction(1000), 1, 256),
    (Fraction(3, 10), Fraction(30), 2, 64),
    (Fraction(3, 10), Fraction(30), 2, 128),
    (Fraction(3, 10), Fraction(30), 2, 256),
    (Fraction(3, 10), Fraction(300), 3, 64),
    (Fraction(3, 10), Fraction(300), 3, 128),
    (Fraction(1, 2), Fraction(6), 2, 64),
    (Fraction(1, 2), Fraction(6), 2, 128),
    (Fraction(1, 2), Fraction(100), 4, 64),
    (Fraction(2, 3), Fraction(40), 5, 64),
    (Fraction(4, 5), Fraction(12), 6, 64),
)


@pytest.mark.parametrize(
    "q, bound, count, bits", CASES, ids=[f"q={q}-bound={b}-{n}bits" for q, b, _, n in CASES]
)
def test_screened_scan_matches_full_scan(q, bound, count, bits):
    ctx = PrecisionContext(q=q, precision_bits=bits)
    want = _full_scan_roots(bound, ctx)
    assert len(want) == count
    assert _positive(carrier_roots(bound, ctx)) == want


@pytest.mark.parametrize("k_terms", (20, 40))
def test_screened_scan_matches_full_scan_forced_terms(k_terms):
    ctx = PrecisionContext(q=Fraction(1, 2), precision_bits=256)
    want = _full_scan_roots(Fraction(6), ctx, k_terms)
    assert len(want) == 2
    assert _positive(carrier_roots(Fraction(6), ctx, k_terms=k_terms)) == want


def _count_evaluations(monkeypatch):
    calls = []
    plain = extremal._carrier_value

    def counting(*args, **kwargs):
        calls.append(args[0])
        return plain(*args, **kwargs)

    monkeypatch.setattr(extremal, "_carrier_value", counting)
    return calls


def test_root_free_search_makes_no_evaluations(monkeypatch):
    # The bound lies below 2 r0 = 1/4, where D >= 1/2 is proven.
    ctx = PrecisionContext(q=Fraction(1, 2), precision_bits=256)
    calls = _count_evaluations(monkeypatch)
    assert carrier_roots(Fraction(1, 200), ctx) == ()
    assert calls == []


@pytest.mark.parametrize("q", (Fraction(1, 64), Fraction(1, 2), Fraction(9, 10)), ids=str)
def test_bound_up_to_twice_r0_evaluates_nothing(q, monkeypatch):
    ctx = PrecisionContext(q=q, precision_bits=128)
    calls = _count_evaluations(monkeypatch)
    monkeypatch.setattr(extremal, "_scan_grid", None)  # no grid is built
    assert carrier_roots(2 * _root_free_radius(q), ctx) == ()
    assert carrier_roots(_root_free_radius(q) / 1000, ctx) == ()
    assert calls == []


def test_working_precision_evaluations_stay_few(monkeypatch):
    # The full scan made 1,045 evaluations here: the 1,023 grid points
    # (both grids hold the bound), 4 evenness probes and 18 in the two
    # Newton closures.  The screened scan makes 22: both ends of the
    # two sign-change cells and the same 18.
    ctx = PrecisionContext(q=Fraction(1, 2), precision_bits=256)
    calls = _count_evaluations(monkeypatch)
    assert len(carrier_roots(Fraction(6), ctx)) == 4
    assert len(calls) <= 40


def test_contradicted_screen_raises(monkeypatch):
    # A screen that claims a sign change in every cell forces working-
    # precision values at both ends of each, and the first contradicted
    # sign must raise rather than be overruled silently.
    ctx = PrecisionContext(q=Fraction(1, 2), precision_bits=64)
    monkeypatch.setattr(
        extremal,
        "_screen",
        lambda grid, ctx, k_terms: [((-1.0) ** i, 0.0) for i in range(len(grid))],
    )
    with pytest.raises(AlgebraViolation, match="sign screen contradicts"):
        carrier_roots(Fraction(1, 2), ctx)


def _sign(value) -> int:
    return (value > 0) - (value < 0)


# (q, bits, k_terms): each shape unforced and with 20 and 40 forced terms.
BOUND_CASES = [
    (q, bits, k_terms)
    for k_terms in (None, 20, 40)
    for q, bits in ((Fraction(1, 64), 64), (Fraction(3, 10), 64), (Fraction(1, 2), 64),
                    (Fraction(4, 5), 64), (Fraction(3, 10), 256), (Fraction(1, 2), 256))
]


@pytest.mark.parametrize(
    "q, bits, k_terms",
    BOUND_CASES,
    ids=[f"{q}-{bits}" + (f"-k_terms={k}" if k else "") for q, bits, k in BOUND_CASES],
)
def test_screen_bound_covers_working_precision_value(q, bits, k_terms):
    # The bound alone, without the margin the sign test adds, must cover
    # the distance of the double sum from the working-precision value,
    # wherever the screen stops; a screened sign is that value's sign.
    ctx = PrecisionContext(q=q, precision_bits=bits)
    for bound in (Fraction(1, 100), Fraction(3), Fraction(40)):
        grid = _scan_grid(ctx.mpf(bound), 24, ctx)
        for g, (total, limit) in zip(grid, _screen(grid, ctx, k_terms)):
            value = _carrier_value(g, ctx, k_terms)[0]
            assert math.isfinite(limit), float(g)
            assert abs(ctx.mpf(total) - value) <= limit, float(g)
            sign = _screened_sign(total, limit)
            assert sign in (0, _sign(value)), float(g)


class _Reads:
    """A sequence read through, counting its reads."""

    def __init__(self, items):
        self.items, self.count = items, 0

    def __getitem__(self, i):
        self.count += 1
        return self.items[i]


# The benchmark's extremal searches at q = 1/2: one root at 192 bits and
# four roots at 128 bits, on the 512 + 512 point grid of carrier_roots.
@pytest.mark.parametrize("bound, bits", [(Fraction(9, 2), 192), (Fraction(97), 128)], ids=str)
def test_screen_decides_benchmark_grids_in_few_terms(bound, bits, monkeypatch):
    # The screen reads c_k once per term k, so the reads of the
    # coefficients count its terms.  Every point above 2 r0 gets the sign
    # of its working-precision value, and the screen stops at the first
    # term that settles it; summing on until the tail bound falls below
    # the rounding error takes about 25 terms a point here.
    ctx = PrecisionContext(q=Fraction(1, 2), precision_bits=bits)
    terms = []
    screen_sum = extremal._screen_sum

    def counting(x, q, log_tol, cap, forced, bs, cs):
        reads = _Reads(cs)
        pair = screen_sum(x, q, log_tol, cap, forced, bs, reads)
        terms.append(reads.count)
        return pair

    monkeypatch.setattr(extremal, "_screen_sum", counting)
    root_free = 2 * _root_free_radius(ctx.q)
    grid = [g for g in _scan_grid(ctx.mpf(bound), 512, ctx) if _rational(g) > root_free]
    for g, (total, limit) in zip(grid, _screen(grid, ctx, None)):
        value = _carrier_value(g, ctx, None)[0]
        assert abs(ctx.mpf(total) - value) <= limit, float(g)
        assert _screened_sign(total, limit) == _sign(value), float(g)
    assert len(terms) == len(grid) > 500
    assert sum(terms) / len(terms) <= 10


@pytest.mark.parametrize("x", (Fraction(1, 2), Fraction(3), Fraction(12), Fraction(50)), ids=str)
def test_screen_stops_once_the_sign_is_settled(x):
    # Given 24 b_n and 12 coefficients, the screen must settle the sign
    # within those 12 terms; summing on until the tail bound falls below
    # the rounding error would take about 25 and read past the tables.
    ctx = PrecisionContext(q=Fraction(1, 2), precision_bits=128)
    bs = [float(b) for b in b_table(24, ctx)[:24]]
    cs = [float(c) for c in _carrier_coefficients(12, ctx)[:12]]
    tol = ctx.series_tol
    log_tol = tol.numerator.bit_length() - tol.denominator.bit_length()
    total, limit = _screen_sum(float(x), 0.5, log_tol, ctx.max_terms, False, bs, cs)
    value = _carrier_value(ctx.mpf(x), ctx, None)[0]
    assert _screened_sign(total, limit) == _sign(value) != 0


@pytest.mark.parametrize("log_tol", [-30, -60])
def test_screen_reads_series_tol_from_context(log_tol, monkeypatch):
    # The screen's stop allowance and cap prediction use the context's
    # series_tol, whatever power of two it holds, not a copy of its rule.
    ctx = PrecisionContext(q=Fraction(1, 2), precision_bits=64)
    object.__setattr__(ctx, "series_tol", Fraction(2) ** log_tol)
    seen = []
    screen_sum = extremal._screen_sum

    def spy(x, q, tol, *rest):
        seen.append(tol)
        return screen_sum(x, q, tol, *rest)

    monkeypatch.setattr(extremal, "_screen_sum", spy)
    grid = _scan_grid(ctx.mpf(3), 8, ctx)
    list(_screen(grid, ctx, None))
    assert seen and set(seen) == {log_tol}


def test_unconverged_grid_point_raises_as_full_scan():
    # With a 26-term budget the grid point 3 * 139/512 does not
    # converge, so the screen must leave it to the working-precision
    # pass, which raises there as the full scan did.
    ctx = PrecisionContext(q=Fraction(1, 2), precision_bits=64, max_terms=26)
    with pytest.raises(NoConvergenceError) as want:
        _full_scan_roots(Fraction(3), ctx)
    assert "x=0.81445313" in str(want.value)
    with pytest.raises(NoConvergenceError) as got:
        carrier_roots(Fraction(3), ctx)
    assert str(got.value) == str(want.value)
