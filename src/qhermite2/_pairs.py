"""Correctly rounded arithmetic on integer pairs (man, exp), value man 2^exp.

Each operation forms its exact result on Python integers and rounds it
once to prec bits, to nearest, ties to even (:func:`_round_even`); a
square root, the one result that is not a dyadic, rounds from its
floor root with the remainder as the sticky bit, and a long integer
power (:func:`_power`) from a truncated power whose error bound lies
inside one rounding cell, the exact power only where it does not.
That is the module's one rounding rule, real and complex alike: every
part of every result is within half an ulp of the exact value, and a
real operand gives the value of a complex one with a zero imaginary
part.  ``mpf_mul``, ``mpf_div`` and ``mpf_sqrt`` round the same way, so
those operations give their floats; ``mpf_add``, which shortcuts an
addend far below a longer one, ``mpf_pow_int``, which truncates its
squarings and rounds a negative power twice, and the libmpc routines,
which truncate intermediates, can differ in the last bit.  A result is
a value, not a normalized mantissa; :func:`_mpf` normalizes.  This
module imports only ``mpmath.libmp``, so every layer can use it.

A complex value is a pair of pairs (re, im).  :func:`_times`,
:func:`_over`, :func:`_plus` and :func:`_size` are ``*``, ``/``, ``+``
and ``abs`` on real or complex values of at most prec bits a part; the
branches they take for real operands only save work.  :func:`_operand`
converts an operand as the mpf/mpc operators do.
"""

from __future__ import annotations

from math import isqrt

from mpmath.libmp import MPZ_ONE, from_man_exp, to_str

# 0 and 1 as integer pairs.
_ZERO = (0, 0)
_ONE = (1, 0)

# Guard bits of the truncated powers that _power tests, above the
# precision it rounds to.
_GUARD = 64


def _round_even(x: int, prec: int, sticky: bool = False) -> tuple:
    """(man, shift): the integer x, plus a positive amount below 1 if
    ``sticky`` (then x >= 2^prec), rounded to prec bits, ties to even,
    as man 2^shift.  An x of at most prec bits is returned as it is.

    A negative x needs no case of its own: the floor shifts leave a
    nonnegative remainder, so the halfway test reads the same bits.  A
    mantissa of prec + 1 bits (a carry to a power of two, or the floor
    -2^prec of a negative x) is a power of two and is halved.
    """
    shift = x.bit_length() - prec
    if shift <= 0:
        return x, 0
    half = x >> (shift - 1)
    man = half >> 1
    if half & 1 and (sticky or man & 1 or x & ((1 << (shift - 1)) - 1)):
        man += 1
    if man.bit_length() > prec:
        man >>= 1
        shift += 1
    return man, shift


def _product(a: tuple, b: tuple, prec: int) -> tuple:
    """a b rounded to prec bits: ``mpf_mul``."""
    man, shift = _round_even(a[0] * b[0], prec)
    return man, a[1] + b[1] + shift


def _exact(a: tuple, b: tuple) -> tuple:
    """a + b exactly; a zero addend, whatever its exponent, returns the
    other."""
    am, ae = a
    bm, be = b
    if not am:
        return b
    if not bm:
        return a
    if ae < be:
        return am + (bm << (be - ae)), ae
    return (am << (ae - be)) + bm, be


def _sum(a: tuple, b: tuple, prec: int) -> tuple:
    """a + b rounded to prec bits.

    An addend far below the other is not shifted in.  A larger addend
    of at most prec bits is the result.  Write a longer one as M 2^f,
    with M its odd mantissa, shifted left to prec + 2 bits if it is
    shorter: a smaller addend below 2^f puts the exact sum strictly
    between (M - 1) 2^f and (M + 1) 2^f, where no rounding boundary falls
    but M 2^f itself, so the sum rounds as M 2^f with a sticky bit on
    the smaller addend's side.  The exact sum is written out, because a
    call of :func:`_exact` made a sum of 128-bit addends 11% slower.
    """
    am, ae = a
    bm, be = b
    if not am or not bm:
        man, shift = _round_even(am or bm, prec)
        return man, (ae if am else be) + shift
    lead = am.bit_length() + ae - bm.bit_length() - be
    if not -1 - prec <= lead <= prec + 1:  # else no addend lies below 2^f
        if lead < 0:
            am, ae, bm, be = bm, be, am, ae
        if am.bit_length() <= prec:
            return am, ae
        low = (am & -am).bit_length() - 1
        pad = max(0, prec + 2 - am.bit_length() + low)
        if bm.bit_length() + be <= ae + low - pad:
            mag = (abs(am) >> low) << pad
            man, shift = _round_even(mag - ((am < 0) != (bm < 0)), prec, True)
            return (-man if am < 0 else man), ae + low - pad + shift
    if ae < be:
        man, shift = _round_even(am + (bm << (be - ae)), prec)
        return man, ae + shift
    man, shift = _round_even((am << (ae - be)) + bm, prec)
    return man, be + shift


def _quotient(a: tuple, b: tuple, prec: int) -> tuple:
    """a / b rounded to prec bits, b nonzero: ``mpf_div``."""
    am, ae = a
    bm, be = b
    if not am:
        return 0, 0
    negative = (am < 0) != (bm < 0)
    am, bm = abs(am), abs(bm)
    shift = prec + 1 + bm.bit_length() - am.bit_length()  # quotient >= 2^prec
    if shift < 0:
        quot, rem = divmod(am, bm << -shift)
    else:
        quot, rem = divmod(am << shift, bm)
    man, low = _round_even(quot, prec, rem)
    return (-man if negative else man), ae - be - shift + low


def _rational(num: int, den: int, prec: int) -> tuple:
    """num / den, den > 0, as ``PrecisionContext.mpf`` rounds the Fraction
    num/den in lowest terms: num rounded to prec bits (``from_int``),
    then the quotient rounded (``mpf_div``)."""
    return _quotient(_round_even(num, prec), (den, 0), prec)


def _power(a: tuple, n: int, prec: int, chain: tuple = ()) -> tuple:
    """a^n rounded to prec bits, a nonzero if n < 0: the exact power
    rounded once, to nearest, ties to even (a mantissa of prec + 1 bits
    where that carries to a power of two).

    A power of at most 2 prec bits, or of a power of two, is formed
    exactly (:func:`_exact_power`).  For a longer one, a value of
    W = prec + _GUARD bits from a chain of squarings at W bits
    (:func:`_start`; ``chain``, where the caller keeps one, of |a| at W
    bits with at least bit_length(|n|) entries) lies within 4 (|n| + 3)
    units of its last bit of |a|^n.  Where that interval lies strictly
    between two neighbouring boundaries of the rounding to prec bits (a
    float and a midpoint), all of it rounds to one float, which is a^n
    rounded once (Ziv's test).  Elsewhere a value with prec + _GUARD
    guard bits is tried, then the exact power: for a power that is not
    exactly representable the test fails with a chance under 2^-40 for
    |n| up to a million.
    """
    man, exp = a
    mag, count = abs(man), abs(n)
    if mag > 1 and count * mag.bit_length() > 2 * prec:
        error = 4 * (count + 3)
        for guard in (_GUARD, prec + _GUARD):
            width = prec + guard
            if guard != _GUARD or len(chain) < count.bit_length():
                chain = _squarings(mag, exp, count.bit_length(), width)
            pm, pe = _start(n, chain, width)
            block = 1 << (guard - 1)
            if error < pm & (block - 1) < block - error:
                pm = ((pm >> (guard - 1)) + 1) >> 1
                return (-pm if man < 0 and n & 1 else pm), pe + guard
    return _exact_power(a, n, prec)


def _exact_power(a: tuple, n: int, prec: int) -> tuple:
    """a^n rounded to prec bits from the exact integer power, and for
    n < 0 one quotient of 1 by it."""
    man, exp = a
    if n < 0:
        return _quotient(_ONE, (man**-n, -exp * n), prec)
    man, shift = _round_even(man**n, prec)
    return man, exp * n + shift


def _start(n: int, chain: tuple, width: int) -> tuple:
    """(pm, pe), pm of ``width`` bits: x^n within a factor (1 - u)^(+-c),
    u = 2^(1-width), from the ``chain`` of x > 0 at width bits.  Entry k
    of the chain carries 2^k - 1 truncations and the product one per set
    bit of |n|, so c <= |n|; for n < 0, one floored integer division of
    a quotient above 2^(width-2) adds a loss under 2u <= 1 - (1 - u)^3,
    so c <= |n| + 3.  As pm < 2^width and c u <= 1/2 for any |n| that
    fits in memory, |pm 2^pe - x^n| < 4c 2^pe."""
    pm, pe = _chain_power(abs(n), chain, width)
    if n < 0:  # 2^t / A floored, of width - 1 or width bits
        t = width + pm.bit_length() - 2
        pm, pe = (MPZ_ONE << t) // pm, -t - pe
    pad = width - pm.bit_length()
    return pm << pad, pe - pad


def _chain_power(n: int, chain: tuple, width: int) -> tuple:
    """(man, exp) of the product of the ``chain`` entries of the set bits
    of n, truncated to ``width`` bits after each multiply."""
    pm, pe = MPZ_ONE, 0
    for bit, (cm, ce) in zip(bin(n)[:1:-1], chain):  # least significant bit first
        if bit == "1":
            pm *= cm
            pe += ce
            excess = pm.bit_length() - width
            if excess > 0:
                pm >>= excess
                pe += excess
    return pm, pe


def _squarings(man, exp: int, count: int, width: int) -> tuple:
    """(man, exp) of x^(2^k), k < count, x = man 2^exp > 0, each square
    truncated to ``width`` bits."""
    chain = [(man, exp)]
    for _ in range(count - 1):
        man *= man
        exp += exp
        excess = man.bit_length() - width
        if excess > 0:
            man >>= excess
            exp += excess
        chain.append((man, exp))
    return tuple(chain)


def _finish_step(rise: tuple, drop: tuple, p0: tuple, b: tuple, prec: int) -> tuple:
    """(round(rise) + drop p0) / b, b > 0: the end of a recurrence step,
    ``_quotient(_sum(_product(x, p), _product(drop, p0)), b)`` for a rise
    that is the exact x p, or already rounded to at most prec bits.

    Written out on integers because routing it through those three calls
    raised the extremal job medians by 6-8% (faster in only 9-12 of 40
    interleaved runs; -2% to +9%, faster in 21 of 52, in a later check).
    A zero addend, or one far below the other, goes to ``_sum``.
    """
    rm, re = rise
    if rm.bit_length() > prec:
        rm, shift = _round_even(rm, prec)
        re += shift
    fm, shift = _round_even(drop[0] * p0[0], prec)
    fe = drop[1] + p0[1] + shift
    gap = re - fe
    if not rm or not fm or not -2 * prec <= gap <= 2 * prec:
        sm, se = _sum((rm, re), (fm, fe), prec)
    elif gap < 0:
        sm, shift = _round_even(rm + (fm << -gap), prec)
        se = re + shift
    else:
        sm, shift = _round_even((rm << gap) + fm, prec)
        se = fe + shift
    bm, be = b
    negative = sm < 0
    shift = prec + 1 + bm.bit_length() - sm.bit_length()  # quotient >= 2^prec
    quot, rem = divmod((-sm if negative else sm) << shift, bm)
    man, low = _round_even(quot, prec, rem)
    return (-man if negative else man), se - be - shift + low


def _less(a: tuple, b: tuple) -> bool:
    """a < b for pairs of nonnegative values."""
    am, ae = a
    bm, be = b
    if not am or not bm:
        return bm > 0 and not am
    top_a, top_b = am.bit_length() + ae, bm.bit_length() + be
    if top_a != top_b:
        return top_a < top_b
    if ae < be:
        return am < bm << (be - ae)
    return am << (ae - be) < bm


def _magnitude(a: tuple) -> tuple:
    """|a| of a pair."""
    return abs(a[0]), a[1]


def _larger(a: tuple, b: tuple) -> tuple:
    """max(a, b) of nonnegative pairs, picking as the builtin max does."""
    return b if _less(a, b) else a


def _as_pair(value) -> tuple:
    """The mpf ``value`` as a pair."""
    sign, man, exp, _ = value._mpf_
    return -man if sign else man, exp


def _mpf(a: tuple, ctx):
    """The pair a as an mpf of the context ``ctx``."""
    return ctx.mp.make_mpf(from_man_exp(*a))


def _raw_pair(raw: tuple) -> tuple:
    """The raw mpf tuple ``raw`` as a pair."""
    sign, man, exp, _ = raw
    return -man if sign else man, exp


def _root(a: tuple, prec: int) -> tuple:
    """sqrt(a) rounded to prec bits, a > 0: ``mpf_sqrt``, the floor root
    of at least prec + 2 bits with its remainder as the sticky bit."""
    man, exp = a
    if exp & 1:
        man, exp = man << 1, exp - 1
    shift = max(4, 2 * prec - man.bit_length() + 4)
    shift += shift & 1
    root = isqrt(man << shift)
    man, low = _round_even(root, prec, root * root != man << shift)
    return man, (exp - shift) // 2 + low


def _hypot(a: tuple, prec: int) -> tuple:
    """|a| of a complex value: the square root of the exact x^2 + y^2,
    rounded to prec bits (:func:`_root`)."""
    (xm, xe), (ym, ye) = a
    if not xm or not ym:
        man, shift = _round_even(abs(xm or ym), prec)
        return man, (xe if xm else ye) + shift
    return _root(_exact((xm * xm, 2 * xe), (ym * ym, 2 * ye)), prec)


def _complex_product(a: tuple, b: tuple, prec: int) -> tuple:
    """a b of complex values, each part rounded once from the exact
    products (of two imaginary values, the one product -b d)."""
    (am, ae), (bm, be) = a
    (cm, ce), (dm, de) = b
    if not am and not cm:
        return _product((-bm, be), (dm, de), prec), _ZERO
    return (
        _sum((am * cm, ae + ce), (-bm * dm, be + de), prec),
        _sum((am * dm, ae + de), (bm * cm, be + ce), prec),
    )


def _complex_quotient(a: tuple, b: tuple, prec: int) -> tuple:
    """a / b of complex values, b nonzero: the exact numerators over the
    exact |b|^2, each part rounded once."""
    (am, ae), (bm, be) = a
    (cm, ce), (dm, de) = b
    mag = _exact((cm * cm, 2 * ce), (dm * dm, 2 * de))
    re = _exact((am * cm, ae + ce), (bm * dm, be + de))
    im = _exact((bm * cm, be + ce), (-am * dm, ae + de))
    return _quotient(re, mag, prec), _quotient(im, mag, prec)


def _times(a: tuple, b: tuple, prec: int) -> tuple:
    """a b; a real factor scales each part of a complex one."""
    if type(a[0]) is tuple:
        if type(b[0]) is tuple:
            return _complex_product(a, b, prec)
        return _product(a[0], b, prec), _product(a[1], b, prec)
    if type(b[0]) is tuple:
        return _product(b[0], a, prec), _product(b[1], a, prec)
    return _product(a, b, prec)


def _over(a: tuple, b: tuple, prec: int) -> tuple:
    """a / b, b nonzero; each part of a complex a over a real b."""
    if type(b[0]) is tuple:
        if type(a[0]) is not tuple:
            a = (a, _ZERO)
        return _complex_quotient(a, b, prec)
    if type(a[0]) is tuple:
        return _quotient(a[0], b, prec), _quotient(a[1], b, prec)
    return _quotient(a, b, prec)


def _plus(a: tuple, b: tuple, prec: int) -> tuple:
    """a + b; a real addend joins the real part of a complex one, whose
    imaginary part is kept as it is."""
    if type(a[0]) is tuple:
        if type(b[0]) is tuple:
            return _sum(a[0], b[0], prec), _sum(a[1], b[1], prec)
        return _sum(a[0], b, prec), a[1]
    if type(b[0]) is tuple:
        return _sum(a, b[0], prec), b[1]
    return _sum(a, b, prec)


def _negative(a: tuple) -> tuple:
    """-a, exactly: a - b is ``_plus(a, _negative(b))``."""
    if type(a[0]) is tuple:
        return (-a[0][0], a[0][1]), (-a[1][0], a[1][1])
    return -a[0], a[1]


def _size(a: tuple, prec: int) -> tuple:
    """|a| as a nonnegative pair: exactly for a real value, which has at
    most prec bits, by :func:`_hypot` for a complex one."""
    if type(a[0]) is tuple:
        return _hypot(a, prec)
    return _magnitude(a)


def _finite(raw: tuple) -> tuple:
    """The raw mpf tuple ``raw`` as a pair; ValueError for a NaN or an
    infinity, which no pair holds."""
    sign, man, exp, bc = raw
    if not man and (exp or bc):
        raise ValueError(f"{to_str(raw, 8)} is not finite")
    return -man if sign else man, exp


def _operand(x, ctx) -> tuple:
    """x as a real or complex value, as the mpf/mpc operators take an
    operand: an int exactly, as (n, 0), an mpf or mpc as it is, anything
    else as ``ctx.mp.convert`` makes it (a Fraction rounded to the
    working precision); ValueError for a NaN or an infinity.  A value
    (a tuple) is returned as it is."""
    if type(x) is tuple:
        return x
    if type(x) is int:
        return x, 0
    if not hasattr(x, "_mpf_") and not hasattr(x, "_mpc_"):
        x = ctx.mp.convert(x, strings=False)
    if hasattr(x, "_mpc_"):
        re, im = x._mpc_
        return _finite(re), _finite(im)
    return _finite(x._mpf_)


def _mp(a: tuple, ctx):
    """The real or complex value a as an mpf or mpc of ``ctx``."""
    if type(a[0]) is tuple:
        return ctx.mp.make_mpc((from_man_exp(*a[0]), from_man_exp(*a[1])))
    return _mpf(a, ctx)
