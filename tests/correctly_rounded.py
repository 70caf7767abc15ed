"""Reference arithmetic for the bitwise tests: each result formed exactly
with ``mpmath.libmp`` at prec 0 and rounded once to nearest, ties to
even, at the given precision.  A square root rounds once from the exact
sum of squares (``mpf_sqrt``); a quotient is one ``mpf_div`` of exact
operands.

These pin correct rounding, the rule of ``qhermite2._pairs``, not the
steps of one library: mpmath's ``mpc_div`` and ``mpc_abs`` truncate
intermediates, and ``mpf_add`` (so ``mpc_mul``) shortcuts an addend far
below a long one, which can each move the last bit.
"""

from __future__ import annotations

from mpmath.libmp import fzero, mpf_add, mpf_div, mpf_mul, mpf_pos, mpf_sqrt, mpf_sub, round_nearest


def rounded(exact: tuple, prec: int) -> tuple:
    """The raw mpf ``exact`` rounded to prec bits."""
    return mpf_pos(exact, prec, round_nearest)


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
