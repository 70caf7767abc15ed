"""Work the carrier-root search skips, and the facts that let it skip.

- D is even bit for bit, so no evenness probe is evaluated;
- D >= 1/2 at every grid point up to 2 r0, so those points are signed
  without evaluation (``tests/test_extremal_scan.py`` counts the
  evaluations);
- the geometric grid takes log(bound/lo_edge) once, bitwise as ``**``;
- sigma_0 and the kernel mass are even bit for bit, so ``loadings``
  evaluates them once per +- root pair;
- the b_n and carrier-coefficient tables grow only as far as they are
  read, each entry bitwise the value built from its exact rational.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from mpmath.libmp import mpf_neg

from qhermite2 import PrecisionContext
from qhermite2 import extremal
from qhermite2.exact import extremal_bracket_exact
from qhermite2.extremal import (
    _carrier_coefficients,
    _carrier_value,
    _kernel_mass,
    _loading_at,
    _root_free_radius,
    _scan_grid,
    carrier_roots,
    loadings,
)
from qhermite2.qkernel import b_table


def _raw(value):
    return value._mpf_ if value is not None else None


def _bits(result):
    """(value, terms, last, slope) of ``_carrier_value`` as raw tuples."""
    value, terms, last, slope = result
    return _raw(value), terms, _raw(last), _raw(slope)


@pytest.mark.parametrize("bits", (64, 128, 256))
@pytest.mark.parametrize(
    "q", (Fraction(1, 64), Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)), ids=str
)
def test_carrier_is_even_bit_for_bit(q, bits):
    # Negating x negates Psi_{2k-1}(x) and x exactly, so every term, the
    # stop decision and the value are unchanged and the slope negates.
    ctx = PrecisionContext(q=q, precision_bits=bits)
    xs = (Fraction(1, 7), Fraction(7, 8), Fraction(5, 2), Fraction(9), Fraction(61, 3))
    for x in xs:
        for k_terms in (None, 12, 40):
            plus = _bits(_carrier_value(x, ctx, k_terms, slope=True))
            minus = _bits(_carrier_value(-x, ctx, k_terms, slope=True))
            assert minus[:3] == plus[:3], (x, k_terms)
            assert minus[3] == mpf_neg(plus[3]), (x, k_terms)
        # Num and Den' negate and each Psi_n^2 keeps its value, so the
        # loading, its term count and last term, and the kernel mass do
        # not change: ``loadings`` relies on this.
        assert _loading_bits(-x, ctx) == _loading_bits(x, ctx), x


def _loading_bits(x, ctx):
    """(sigma0, terms, last) of ``_loading_at`` and the kernel mass with
    its term count, as raw tuples."""
    sigma, terms, last = _loading_at(x, ctx)
    mass, mass_terms = _kernel_mass(x, ctx)
    return _raw(sigma), terms, _raw(last), _raw(mass), mass_terms


@pytest.fixture(scope="module")
def roots_97():
    """The 8 carrier roots in [-97, 97] at q = 1/2 and 128 bits."""
    ctx = PrecisionContext(q=Fraction(1, 2), precision_bits=128)
    roots = carrier_roots(Fraction(97), ctx)
    assert len(roots) == 8
    return ctx, roots


def _point_bits(point):
    return (
        _raw(point.sigma0),
        _raw(point.kernel_mass),
        point.terms_used,
        _raw(point.tail_estimate),
    )


def _separately(points, ctx):
    """What ``loadings`` attaches to each point, from calls of its own."""
    out = []
    for point in points:
        sigma, used, last = _loading_at(point.x, ctx)
        mass, _ = _kernel_mass(point.x, ctx)
        out.append((_raw(sigma), _raw(mass), max(point.terms_used, used), _raw(last)))
    return out


def test_loadings_evaluate_each_root_pair_once(roots_97, monkeypatch):
    ctx, roots = roots_97
    calls = {"loading": 0, "mass": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(extremal, "_loading_at", counted("loading", _loading_at))
    monkeypatch.setattr(extremal, "_kernel_mass", counted("mass", _kernel_mass))
    points = loadings(roots, ctx)
    assert calls == {"loading": 4, "mass": 4}
    monkeypatch.undo()
    assert [_point_bits(p) for p in points] == _separately(roots, ctx)


def test_loadings_of_unpaired_points_match_separate_calls(roots_97):
    ctx, roots = roots_97
    positive = [p for p in roots if p.x > 0]
    mixed = [roots[0], extremal.CarrierPoint(x=ctx.mpf(Fraction(7, 3)))]
    for points in (positive, mixed):
        got = [_point_bits(p) for p in loadings(points, ctx)]
        assert got == _separately(points, ctx)


def _grid_by_powers(bound, grid_points, ctx):
    """The scan grid with every geometric point formed by mpf ``**``."""
    lo_edge = bound * ctx.mpf(Fraction(1, 10000))
    first = 0
    r0 = ctx.mpf(_root_free_radius(ctx.q))
    if r0 < lo_edge:
        first = -(math.floor((grid_points - 1) * math.log(lo_edge / r0) / math.log(10000)) + 1)
    grid = [lo_edge * (bound / lo_edge) ** (ctx.mpf(Fraction(i, grid_points - 1)))
            for i in range(first, grid_points)]
    grid += [bound * ctx.mpf(Fraction(i, grid_points)) for i in range(1, grid_points + 1)]
    return sorted(set(grid))


@pytest.mark.parametrize("bits", (64, 100, 192, 256, 512))
@pytest.mark.parametrize(
    "q", (Fraction(1, 64), Fraction(1, 2), Fraction(9, 10), Fraction(99, 100)), ids=str
)
def test_grid_matches_powers_bit_for_bit(q, bits):
    # grid_points 17 puts t = 1/2 (binary exponent -1, the square-root
    # branch of **) on the grid; the larger bounds extend the grid
    # below bound/10^4 down to r0.
    ctx = PrecisionContext(q=q, precision_bits=bits)
    extended = 0
    for bound in (Fraction(1, 1000), Fraction(9, 2), Fraction(97), Fraction(123456, 7)):
        bound = ctx.mpf(bound)
        for grid_points in (16, 17, 512):
            want = _grid_by_powers(bound, grid_points, ctx)
            assert [g._mpf_ for g in _scan_grid(bound, grid_points, ctx)] == [
                g._mpf_ for g in want
            ], (bound, grid_points)
            extended += want[0] < bound / 10000
    assert extended


@pytest.mark.parametrize("bits", (64, 256))
@pytest.mark.parametrize(
    "q",
    (Fraction(1, 64), Fraction(1, 5), Fraction(1, 2), Fraction(4, 5), Fraction(9, 10)),
    ids=str,
)
def test_grid_points_up_to_twice_r0_are_positive(q, bits):
    # D falls no faster than 1 - x/(1 - q), so the points nearest 2 r0
    # are the tightest: the grid for bound 10^6 steps through (r0, 2 r0]
    # at ratio 1.018, the one for bound 1 puts linear points there too.
    ctx = PrecisionContext(q=q, precision_bits=bits)
    root_free = 2 * _root_free_radius(q)
    checked = set()
    for bound, grid_points in ((Fraction(10 ** 6), 512), (Fraction(1), 64)):
        for g in _scan_grid(ctx.mpf(bound), grid_points, ctx):
            if extremal._rational(g) <= root_free and g not in checked:
                checked.add(g)
                assert _carrier_value(g, ctx, None)[0] >= 0.5, float(g)
    assert len(checked) > 30


def test_root_free_bound_needs_no_term_budget():
    # With 16 terms the former evenness probe at bound/3 raised
    # NoConvergenceError; the r0 proof certifies that no root exists.
    ctx = PrecisionContext(q=Fraction(1, 2), precision_bits=256, max_terms=16)
    assert carrier_roots(Fraction(1, 8), ctx) == ()


@pytest.mark.parametrize("q, bits", [(Fraction(1, 3), 128), (Fraction(9, 10), 64)], ids=str)
def test_tables_grown_one_at_a_time_match_one_build(q, bits):
    steps = PrecisionContext(q=q, precision_bits=bits)
    for count in range(1, 81):
        b_table(count, steps)
        _carrier_coefficients(count, steps)
    bulk = PrecisionContext(q=q, precision_bits=bits)
    assert [v._mpf_ for v in b_table(0, steps)] == [v._mpf_ for v in b_table(80, bulk)]
    assert [v._mpf_ for v in _carrier_coefficients(0, steps)] == [
        v._mpf_ for v in _carrier_coefficients(80, bulk)
    ]


def test_one_root_search_grows_tables_only_as_read():
    # Doubling left 512 b_n and 256 coefficients here; the search reads
    # about 352 and 176 of them.
    ctx = PrecisionContext(q=Fraction(1, 2), precision_bits=192)
    assert len(carrier_roots(Fraction(9, 2), ctx)) == 2
    assert len(b_table(0, ctx)) < 512
    assert len(_carrier_coefficients(0, ctx)) < 256


def _coefficients_by_brackets(count, ctx):
    """The carrier coefficients from the ratio of bracket double
    factorials, each bracket formed from powers of q."""
    q, out = ctx.q, []
    ratio = Fraction(1) / extremal_bracket_exact(1, q)
    for j in range(1, count + 1):
        if j > 1:
            ratio *= extremal_bracket_exact(2 * j - 2, q) / extremal_bracket_exact(2 * j - 1, q)
        sign = 1 if j % 2 == 1 else -1
        out.append(sign * ctx.mp.sqrt(ctx.mpf(ratio)))
    return out


@pytest.mark.parametrize("bits", (64, 128, 256, 512))
@pytest.mark.parametrize(
    "q",
    (Fraction(1, 64), Fraction(3, 10), Fraction(1, 2), Fraction(4, 5), Fraction(9, 10),
     Fraction(99, 100)),
    ids=str,
)
def test_coefficients_match_bracket_ratios(q, bits):
    ctx = PrecisionContext(q=q, precision_bits=bits)
    want = [v._mpf_ for v in _coefficients_by_brackets(97, ctx)]
    for count in (1, 33, 97):
        got = [v._mpf_ for v in _carrier_coefficients(count, ctx)]
        assert got == want[:count], count
