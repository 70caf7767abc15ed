"""Reference arithmetic for the bitwise tests: each result formed exactly
with ``mpmath.libmp`` at prec 0 and rounded once to nearest, ties to
even, at the given precision.  A square root rounds once from the exact
sum of squares (``mpf_sqrt``); a quotient is one ``mpf_div`` of exact
operands, and so is a negative integer power, 1 over the exact power.

These pin correct rounding, the rule of ``qhermite2._pairs`` and of the
powers of q in ``qhermite2.qkernel``, not the steps of one library:
mpmath's ``mpc_div`` and ``mpc_abs`` truncate intermediates,
``mpf_add`` (so ``mpc_mul``) shortcuts an addend far below a long one,
and ``mpf_pow_int`` (so ``x ** n``) truncates its squarings and rounds
the reciprocal of a negative power twice, which can each move the last
bit.
"""

from __future__ import annotations

from mpmath.libmp import (
    fone,
    from_man_exp,
    fzero,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_pos,
    mpf_sqrt,
    mpf_sub,
    round_ceiling,
    round_floor,
    round_nearest,
)


def rounded(exact: tuple, prec: int) -> tuple:
    """The raw mpf ``exact`` rounded to prec bits."""
    return mpf_pos(exact, prec, round_nearest)


def _bracket(x: tuple, n: int, wp: int) -> tuple:
    """(low, high) with low <= x^n <= high, x > 0 a raw mpf: a binary
    power in directed roundings at wp bits, and for n < 0 their
    reciprocals."""
    low = high = fone
    base_low = base_high = x
    k = abs(n)
    while k:
        if k & 1:
            low = mpf_mul(low, base_low, wp, round_floor)
            high = mpf_mul(high, base_high, wp, round_ceiling)
        k >>= 1
        if k:
            base_low = mpf_mul(base_low, base_low, wp, round_floor)
            base_high = mpf_mul(base_high, base_high, wp, round_ceiling)
    if n < 0:
        return mpf_div(fone, high, wp, round_floor), mpf_div(fone, low, wp, round_ceiling)
    return low, high


def power(x: tuple, n: int, prec: int) -> tuple:
    """x^n of a raw mpf x > 0.  Where the exact power is long, a bracket
    of it at prec + 64 bits decides, when both ends round to one float;
    else the exact power, rounded once."""
    _, man, exp, bc = x
    if abs(n) * bc > 4 * prec:
        low, high = _bracket(x, n, prec + 64)
        if rounded(low, prec) == rounded(high, prec):
            return rounded(low, prec)
    exact = from_man_exp(man ** abs(n), exp * abs(n))
    if n < 0:
        return mpf_div(fone, exact, prec, round_nearest)
    return rounded(exact, prec)


def powers(x: tuple, start: int, stop: int, prec: int) -> list:
    """[power(x, n, prec) for n in range(start, stop)], from one bracket
    carried along by a directed product per end and step."""
    wp = prec + 64
    low, high = _bracket(x, start, wp)
    out = []
    for n in range(start, stop):
        value = rounded(low, prec)
        out.append(value if value == rounded(high, prec) else power(x, n, prec))
        low = mpf_mul(low, x, wp, round_floor)
        high = mpf_mul(high, x, wp, round_ceiling)
    return out


def power_of_q(ctx, n: int):
    """q^n of the rounded q of ``ctx``, at its working precision, as an
    mpf."""
    return ctx.mp.make_mpf(power(ctx.qm._mpf_, n, ctx.mp.prec))


def product(za: tuple, zb: tuple, prec: int) -> tuple:
    """a b of raw complex values (re, im)."""
    (a, b), (c, d) = za, zb
    return (
        rounded(mpf_sub(mpf_mul(a, c), mpf_mul(b, d)), prec),
        rounded(mpf_add(mpf_mul(a, d), mpf_mul(b, c)), prec),
    )


def quotient(za: tuple, zb: tuple, prec: int) -> tuple:
    """a / b of raw complex values, b nonzero: the exact numerators over
    the exact |b|^2."""
    (a, b), (c, d) = za, zb
    mag = mpf_add(mpf_mul(c, c), mpf_mul(d, d))
    return (
        mpf_div(mpf_add(mpf_mul(a, c), mpf_mul(b, d)), mag, prec, round_nearest),
        mpf_div(mpf_sub(mpf_mul(b, c), mpf_mul(a, d)), mag, prec, round_nearest),
    )


def modulus(za: tuple, prec: int) -> tuple:
    """|a| of a raw complex value."""
    re, im = za
    return mpf_sqrt(mpf_add(mpf_mul(re, re), mpf_mul(im, im)), prec, round_nearest)


def _parts(x) -> tuple:
    return x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, fzero)


def mul(x, y):
    """x y of mpf/mpc values at their context's working precision; the
    operator where a factor is real, since it rounds each part once."""
    if not (hasattr(x, "_mpc_") and hasattr(y, "_mpc_")):
        return x * y
    return x.context.make_mpc(product(x._mpc_, y._mpc_, x.context.prec))


def div(x, y):
    """x / y of mpf/mpc values; the operator where y is real."""
    if not hasattr(y, "_mpc_"):
        return x / y
    return y.context.make_mpc(quotient(_parts(x), y._mpc_, y.context.prec))


def size(x):
    """|x| of an mpf/mpc value; the operator, exact, for a real x."""
    if not hasattr(x, "_mpc_"):
        return abs(x)
    return x.context.make_mpf(modulus(x._mpc_, x.context.prec))
