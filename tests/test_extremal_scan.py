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
    _carrier_value,
    _root_free_radius,
    _scan_grid,
    _screen,
    _shrink_bracket,
    carrier_roots,
)


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


@pytest.mark.parametrize(
    "q, bits",
    [(Fraction(1, 64), 64), (Fraction(3, 10), 64), (Fraction(1, 2), 64), (Fraction(4, 5), 64),
     (Fraction(3, 10), 256), (Fraction(1, 2), 256)],
    ids=str,
)
def test_screen_bound_covers_working_precision_value(q, bits):
    # The bound alone, without the margin the sign test adds, must cover
    # the distance of the double sum from the working-precision value.
    ctx = PrecisionContext(q=q, precision_bits=bits)
    for bound in (Fraction(1, 100), Fraction(3), Fraction(40)):
        grid = _scan_grid(ctx.mpf(bound), 24, ctx)
        for g, (total, limit) in zip(grid, _screen(grid, ctx, None)):
            value = _carrier_value(g, ctx, None)[0]
            assert math.isfinite(limit), float(g)
            assert abs(ctx.mpf(total) - value) <= limit, float(g)


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
