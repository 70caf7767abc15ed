"""Correctly rounded arithmetic on integer pairs (man, exp), value man 2^exp.

Each operation forms the exact result on Python integers and rounds it
once to prec bits, to nearest, ties to even (:func:`_round_even`).
``mpf_mul``, ``mpf_add`` and ``mpf_div`` round their exact results
correctly in that mode, so each operation here gives their float.  A
result is a value, not a normalized mantissa; :func:`_mpf` normalizes.
This module imports only ``mpmath.libmp``, so every layer can use it.

A complex value is a pair of pairs (re, im).  The complex operations
follow ``mpmath.libmp.libmpc`` step by step, intermediate roundings
included: those are at the default ``round_fast``, which truncates
(:func:`_truncated_sum`).  :func:`_times`, :func:`_over`, :func:`_plus`
and :func:`_size` are the mpf/mpc operators ``*``, ``/``, ``+`` and
``abs`` on real or complex values: like the operators, they pick the
mpmath routine by the types of their operands, which a complex value
with a zero imaginary part does not change.  :func:`_operand` converts
an operand as the operators do.
"""

from __future__ import annotations

from math import isqrt

from mpmath.libmp import from_man_exp, to_str

# 0 and 1 as integer pairs.
_ZERO = (0, 0)
_ONE = (1, 0)


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


def _sum(a: tuple, b: tuple, prec: int) -> tuple:
    """a + b rounded to prec bits: ``mpf_add`` (``mpf_sub`` with -b).

    Where the smaller addend lies wholly below the prec + 4 leading
    bits of the larger one, ``mpf_add`` replaces it by one unit below
    those bits when the normalized exponents differ by more than 100.
    A larger addend of at most prec bits rounds to itself either way;
    a longer one takes that branch here as well.
    """
    am, ae = a
    bm, be = b
    if not am or not bm:
        man, shift = _round_even(am or bm, prec)
        return man, (ae if am else be) + shift
    lead = am.bit_length() + ae - bm.bit_length() - be
    if not -4 - prec <= lead <= prec + 4:
        if lead < 0:
            am, ae, bm, be = bm, be, am, ae
        if am.bit_length() <= prec:
            return am, ae
        low_a = (am & -am).bit_length() - 1  # the normalized exponents
        low_b = (bm & -bm).bit_length() - 1
        if ae + low_a - be - low_b > 100:
            nudged = ((am >> low_a) << (prec + 4)) + (1 if bm > 0 else -1)
            man, shift = _round_even(nudged, prec)
            return man, ae + low_a - prec - 4 + shift
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
    if not rm or not fm or not -2 * prec - 4 <= gap <= 2 * prec + 4:
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


def _pair(value: tuple, prec: int) -> tuple:
    """(man, exp) of the positive raw mpf ``value``, man of prec bits."""
    _, man, exp, bc = value
    return man << (prec - bc), exp - (prec - bc)


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


def _truncated_sum(a: tuple, b: tuple, prec: int) -> tuple:
    """a + b truncated toward zero to prec bits: ``mpf_add`` at
    ``round_down``, its shortcut for an addend more than 100 bits below
    the other included (see :func:`_sum`), which truncation does not
    make idle for a short larger addend."""
    am, ae = a
    bm, be = b
    if am and bm:
        lead = am.bit_length() + ae - bm.bit_length() - be
        if not -4 - prec <= lead <= prec + 4:
            if lead < 0:
                am, ae, bm, be = bm, be, am, ae
            low_a = (am & -am).bit_length() - 1
            low_b = (bm & -bm).bit_length() - 1
            if ae + low_a - be - low_b > 100:
                am = ((am >> low_a) << (prec + 4)) + (1 if bm > 0 else -1)
                ae += low_a - prec - 4
                bm = 0
        if bm:
            if ae < be:
                am, be = am + (bm << (be - ae)), ae
            else:
                am, ae = (am << (ae - be)) + bm, be
    elif not am:
        am, ae = bm, be
    shift = abs(am).bit_length() - prec
    if shift <= 0:
        return am, ae
    return (am >> shift if am > 0 else -(-am >> shift)), ae + shift


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
    """|a| of a complex value, rounded to prec bits: ``mpc_abs``, that
    is ``mpf_hypot``, whose sum of the exact squares is truncated at
    prec + 4 bits before :func:`_root`."""
    (xm, xe), (ym, ye) = a
    if not xm or not ym:
        man, shift = _round_even(abs(xm or ym), prec)
        return man, (xe if xm else ye) + shift
    return _root(_truncated_sum((xm * xm, 2 * xe), (ym * ym, 2 * ye), prec + 4), prec)


def _complex_product(a: tuple, b: tuple, prec: int) -> tuple:
    """a b of complex values: ``mpc_mul``, each part rounded once from
    the exact products."""
    (am, ae), (bm, be) = a
    (cm, ce), (dm, de) = b
    return (
        _sum((am * cm, ae + ce), (-bm * dm, be + de), prec),
        _sum((am * dm, ae + de), (bm * cm, be + ce), prec),
    )


def _complex_quotient(a: tuple, b: tuple, prec: int) -> tuple:
    """a / b of complex values, b nonzero: ``mpc_div``, which truncates
    |b|^2 and the two numerators at prec + 10 bits from the exact
    products and divides them."""
    (am, ae), (bm, be) = a
    (cm, ce), (dm, de) = b
    wp = prec + 10
    mag = _truncated_sum((cm * cm, 2 * ce), (dm * dm, 2 * de), wp)
    re = _truncated_sum((am * cm, ae + ce), (bm * dm, be + de), wp)
    im = _truncated_sum((bm * cm, be + ce), (-am * dm, ae + de), wp)
    return _quotient(re, mag, prec), _quotient(im, mag, prec)


def _real_over_complex(x: tuple, b: tuple, prec: int) -> tuple:
    """x / b for a real x and a nonzero complex b: ``mpc_mpf_div``, which
    truncates |b|^2 at prec + 10 bits and divides the exact products."""
    xm, xe = x
    (cm, ce), (dm, de) = b
    mag = _truncated_sum((cm * cm, 2 * ce), (dm * dm, 2 * de), prec + 10)
    return _quotient((xm * cm, xe + ce), mag, prec), _quotient((-xm * dm, xe + de), mag, prec)


def _times(a: tuple, b: tuple, prec: int) -> tuple:
    """a b: ``mpf_mul``, ``mpc_mul_mpf`` (a real factor scales each part)
    or ``mpc_mul``."""
    if type(a[0]) is tuple:
        if type(b[0]) is tuple:
            return _complex_product(a, b, prec)
        return _product(a[0], b, prec), _product(a[1], b, prec)
    if type(b[0]) is tuple:
        return _product(b[0], a, prec), _product(b[1], a, prec)
    return _product(a, b, prec)


def _over(a: tuple, b: tuple, prec: int) -> tuple:
    """a / b, b nonzero: ``mpf_div``, ``mpc_div_mpf`` (each part over a
    real b), ``mpc_mpf_div`` or ``mpc_div``."""
    if type(b[0]) is tuple:
        if type(a[0]) is tuple:
            return _complex_quotient(a, b, prec)
        return _real_over_complex(a, b, prec)
    if type(a[0]) is tuple:
        return _quotient(a[0], b, prec), _quotient(a[1], b, prec)
    return _quotient(a, b, prec)


def _plus(a: tuple, b: tuple, prec: int) -> tuple:
    """a + b: ``mpf_add``, ``mpc_add_mpf`` (a real addend joins the real
    part; the imaginary part is kept as it is) or ``mpc_add``."""
    if type(a[0]) is tuple:
        if type(b[0]) is tuple:
            return _sum(a[0], b[0], prec), _sum(a[1], b[1], prec)
        return _sum(a[0], b, prec), a[1]
    if type(b[0]) is tuple:
        return _sum(a, b[0], prec), b[1]
    return _sum(a, b, prec)


def _negative(a: tuple) -> tuple:
    """-a, exactly: a - b is ``_plus(a, _negative(b))``, as ``mpf_sub``
    and ``mpc_sub`` add the negated subtrahend (``mpf - mpc`` rounds the
    negated imaginary part, which changes nothing at most prec bits)."""
    if type(a[0]) is tuple:
        return (-a[0][0], a[0][1]), (-a[1][0], a[1][1])
    return -a[0], a[1]


def _size(a: tuple, prec: int) -> tuple:
    """|a| as a nonnegative pair: ``mpf_abs`` of a real value of at most
    prec bits, :func:`_hypot` of a complex one."""
    if type(a[0]) is tuple:
        return _hypot(a, prec)
    return _magnitude(a)


def _is_zero(a: tuple) -> bool:
    """Whether the real or complex value a is 0."""
    if type(a[0]) is tuple:
        return not (a[0][0] or a[1][0])
    return not a[0]


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
