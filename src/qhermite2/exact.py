"""Exact arithmetic layer: rational q-arithmetic, Gaussian rationals,
and dense polynomials over them.

The verification routines in this package prove polynomial identities by
exact arithmetic rather than by sampling floats.  Everything here works
over Q(i), so results are exact for every rational q.  The only
operations are ring/field arithmetic, evaluation, and composition with
x + c; no external computer algebra system is needed for that.  Poly and
the closed forms in q = a/b compute on integers and make Fractions only
where they hand a value out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, zip_longest
from math import gcd, lcm
from typing import Iterable, Union

from ._pairs import _ONE, _ZERO, _as_pair, _mp, _mpf, _operand, _plus, _product, _rational, _sum, _times
from .errors import DomainError

__all__ = [
    "GaussianRational",
    "Poly",
    "Ratio",
    "qbracket",
    "qpochhammer_exact",
    "qfactorial_exact",
    "bn_squared_exact",
    "moment_In_exact",
    "rho_factorial_exact",
    "lambda_exact",
    "extremal_bracket_exact",
    "jackson_monomial_exact",
]

ScalarLike = Union["GaussianRational", Fraction, int]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class GaussianRational:
    """Exact element of Q(i): ``re + im*i`` with Fraction parts.

    The constructor validates its parts.  Internal results skip that
    re-validation: they are built by :func:`_gaussian`, since Fraction
    arithmetic already returns Fractions.  +, - and * also skip the sums
    and products of an exact-zero imaginary part, so a product of real
    values costs one Fraction product, not four products and two sums.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def coerce(value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return _gaussian(_as_fraction(value), _FRACTION_ZERO)

    # -- ring/field operations ---------------------------------------------

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return _gaussian(self.re + o.re, self.im + o.im if o.im else self.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return _gaussian(self.re - o.re, self.im - o.im if o.im else self.im)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        if not b:
            return _gaussian(a * c, a * d if d else b)
        if not d:
            return _gaussian(a * c, b * c)
        return _gaussian(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        denom = o.re * o.re + o.im * o.im
        if denom == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _gaussian(
            (self.re * o.re + self.im * o.im) / denom,
            (self.im * o.re - self.re * o.im) / denom,
        )

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) / self

    def __neg__(self) -> "GaussianRational":
        return _gaussian(-self.re, -self.im)

    def __pow__(self, n: int) -> "GaussianRational":
        if not isinstance(n, int) or n < 0:
            raise TypeError("GaussianRational powers must be nonnegative ints")
        out = GaussianRational.ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return _gaussian(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re} {sign} {abs(self.im)}*i)"


_FRACTION_ZERO = Fraction(0)


def _gaussian(re: Fraction, im: Fraction) -> GaussianRational:
    """re + im*i from Fraction parts, without the constructor's checks."""
    out = object.__new__(GaussianRational)
    fields = out.__dict__
    fields["re"] = re
    fields["im"] = im
    return out


GaussianRational.ZERO = GaussianRational()
GaussianRational.ONE = GaussianRational(Fraction(1))
GaussianRational.I = GaussianRational(Fraction(0), Fraction(1))


class Poly:
    """Dense polynomial over Q(i), coefficients in ascending order.

    Held on integers: the tuple ``_num`` of Gaussian-integer numerators
    (re, im) over one denominator ``_den`` > 0, reduced once per result
    so that their gcd is 1 and no trailing zero is kept; ``==`` and
    ``hash`` compare integers, and ``coeffs``, :meth:`coefficient` and
    ``str`` make GaussianRational views.  Immutable.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[ScalarLike] = ()) -> None:
        parts = [_parts(c) for c in coeffs]
        den = lcm(*(d for _, _, d in parts))
        _poly([(re * (den // d), im * (den // d)) for re, im, d in parts], den, self)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _poly([], 1)

    @staticmethod
    def one() -> "Poly":
        return _poly([(1, 0)], 1)

    @staticmethod
    def x() -> "Poly":
        return _poly([(0, 0), (1, 0)], 1)

    @staticmethod
    def monomial(k: int, coeff: ScalarLike = 1) -> "Poly":
        if k < 0:
            raise DomainError(f"monomial degree must be >= 0, got {k}")
        return Poly([0] * k + [coeff])

    # -- structure --------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return tuple(_gaussian(Fraction(re, self._den), Fraction(im, self._den)) for re, im in self._num)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._num) - 1

    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, k: int) -> GaussianRational:
        if 0 <= k < len(self._num):
            return _gaussian(Fraction(self._num[k][0], self._den), Fraction(self._num[k][1], self._den))
        return GaussianRational.ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        g = gcd(self._den, other._den)
        fp, fr = other._den // g, self._den // g  # to the lcm of the denominators
        pairs = zip_longest(self._num, other._num, fillvalue=(0, 0))
        return _poly([(x * fp + u * fr, y * fp + v * fr) for (x, y), (u, v) in pairs], self._den * fp)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        return _poly([(-re, -im) for re, im in self._num], self._den)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self._num, other._num
        re = [0] * max(len(a) + len(b) - 1, 0)
        im = re[:]
        for i, (ar, ai) in enumerate(a):
            for j, (br, bi) in enumerate(b, i):
                re[j] += ar * br - ai * bi
                im[j] += ar * bi + ai * br
        return _poly(list(zip(re, im)), self._den * other._den)

    def scale(self, c: ScalarLike) -> "Poly":
        cr, ci, cd = _parts(c)
        return _poly([(re * cr - im * ci, re * ci + im * cr) for re, im in self._num], self._den * cd)

    # -- evaluation and composition -----------------------------------------

    def __call__(self, x: ScalarLike) -> GaussianRational:
        """p(x), exactly: Horner on the numerators of x = (xr + xi i)/xd."""
        (xr, xi, xd), re, im = _parts(x), 0, 0
        for k, (a, b) in enumerate(reversed(self._num)):  # a_(n-k) times xd^k
            re, im = re * xr - im * xi + a * xd**k, re * xi + im * xr + b * xd**k
        den = self._den * xd ** max(self.degree, 0)
        return _gaussian(Fraction(re, den), Fraction(im, den))

    def mp_evaluator(self, ctx):
        """Horner evaluator at points of any kind the mpf/mpc operators
        take (mpf, mpc, int, Fraction, ...), in ctx's precision: the
        point is converted as they convert it, and :meth:`pair_evaluator`
        evaluates; the value is an mpf, or an mpc when a coefficient or
        the point is complex."""
        horner = self.pair_evaluator(ctx)
        return lambda x: _mp(horner(_operand(x, ctx)), ctx)

    def pair_evaluator(self, ctx):
        """Horner evaluator at a real or complex pair value x
        (:mod:`qhermite2._pairs`), returning a pair value.

        The coefficients are rounded once, here, not on every call, as
        ``ctx.mpf`` rounds their Fraction parts.  Each step
        ``acc * x + c`` rounds its product and its sum correctly at
        the caller's precision ``mp.prec``; the accumulator is complex
        when a coefficient or the point is.  Steps that are exact are
        skipped: 0 x (the top coefficient is rounded at the caller's
        precision), 1 x for a real x of at most prec bits, and + 0.
        """
        mp, den = ctx.mp, self._den

        def rounded(part: int) -> tuple:  # ctx.mpf(Fraction(part, den)), normalized
            g = gcd(part, den)
            return _as_pair(_mpf(_rational(part // g, den // g, mp.prec), ctx))

        complex_coeffs = any(im for _, im in self._num)
        coeffs = [rounded(re) if not im else (rounded(re), rounded(im)) for re, im in reversed(self._num)]

        def horner(x: tuple) -> tuple:
            prec = mp.prec
            if complex_coeffs or type(x[0]) is tuple:
                acc = zero = (_ZERO, _ZERO)
                times, plus, short = _times, _plus, False
            else:
                acc = zero = _ZERO
                times, plus, short = _product, _sum, x[0].bit_length() <= prec
            for c in coeffs:
                if acc is not zero:
                    acc = x if short and acc == _ONE else times(acc, x, prec)
                if c != _ZERO:
                    acc = plus(acc, c, prec)
            return acc

        return horner

    def shift(self, c: ScalarLike) -> "Poly":
        """Compose with x + c, returning p(x + c), exactly: for c = C/cd it
        is s(cd x) / cd^n, s(y) = cd^n p(y/cd) shifted by the Gaussian
        integer C, so a shift by +-i is integer work throughout."""
        (cr, ci, cd), n = _parts(c), len(self._num) - 1
        s = [(a * cd ** (n - k), b * cd ** (n - k)) for k, (a, b) in enumerate(self._num)]
        # Taylor shift in place: pass k divides s[k:] by (y - C) and
        # leaves the remainder, the k-th Taylor coefficient at C, in s[k].
        for k in range(n):
            for j in range(n - 1, k - 1, -1):
                (a, b), (u, v) = s[j], s[j + 1]
                s[j] = (a + cr * u - ci * v, b + cr * v + ci * u)
        return _poly([(a * cd**k, b * cd**k) for k, (a, b) in enumerate(s)], self._den * cd ** max(n, 0))

    def scale_argument(self, s: ScalarLike) -> "Poly":
        """Return p(s*x), exactly: for s = S/sd, coefficient k times
        S^k sd^(n-k), over sd^n."""
        (sr, si, sd), n, num, pr, pi = _parts(s), len(self._num) - 1, [], 1, 0  # pr + pi i = S^k
        for k, (a, b) in enumerate(self._num):
            num.append(((a * pr - b * pi) * sd ** (n - k), (a * pi + b * pr) * sd ** (n - k)))
            pr, pi = pr * sr - pi * si, pr * si + pi * sr
        return _poly(num, self._den * sd ** max(n, 0))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{k}")
        return " + ".join(parts)

    __repr__ = __str__


def _parts(c: ScalarLike) -> tuple:
    """(re, im, den) of the exact scalar c = (re + im i) / den, den > 0."""
    if type(c) is int or type(c) is Fraction:
        return c.numerator, 0, c.denominator
    c = GaussianRational.coerce(c)
    den = lcm(c.re.denominator, c.im.denominator)
    return c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator), den


def _poly(num: list, den: int, p: Poly = None) -> Poly:
    """The Poly num / den, den > 0, in canonical form (formed in p, the
    constructor's instance, when given): one gcd pass over its parts."""
    while num and num[-1] == (0, 0):
        num.pop()
    g = gcd(den, *chain.from_iterable(num))
    if g != 1:
        num, den = [(re // g, im // g) for re, im in num], den // g
    p = object.__new__(Poly) if p is None else p
    object.__setattr__(p, "_num", tuple(num))
    object.__setattr__(p, "_den", den)
    return p


def _over_x(p: Poly) -> Poly:
    """p(x) / x of a polynomial with p(0) = 0."""
    return _poly(list(p._num[1:]), p._den)


class Ratio:
    """The rational function num / den of two real polynomials, such as
    the integrands of the exact infinite integration by parts
    (:func:`~qhermite2.qcalculus.ibp_ratio_residual`)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly) -> None:
        if any(im for _, im in chain(num._num, den._num)):
            raise DomainError("a Ratio takes real polynomials")
        self.num, self.den = num, den


# -- exact q-arithmetic ----------------------------------------------------


def qbracket(n: int, q: Fraction) -> Fraction:
    """q-bracket [n]_q = (1 - q^n)/(1 - q), exactly; [0] = 0.  For
    q = a/b it is (b^n - a^n) / ((b - a) b^(n-1))."""
    if n < 0:
        raise DomainError(f"q-bracket needs n >= 0, got {n}")
    q = _as_fraction(q)
    a, b = q.numerator, q.denominator
    return Fraction((b**n - a**n) // (b - a), b ** max(n - 1, 0))


def _poch_parts(a: Fraction, q: Fraction, n: int) -> tuple:
    """(numerator, denominator) of (a; q)_n for a = r/s, q = u/v: the
    products of s v^j - r u^j and of s v^j, j < n, on running powers."""
    r, s, u, v = a.numerator, a.denominator, q.numerator, q.denominator
    num = den = uj = vj = 1
    for _ in range(n):
        num, den, uj, vj = num * (s * vj - r * uj), den * s * vj, uj * u, vj * v
    return num, den


def qpochhammer_exact(a: Fraction, q: Fraction, n: int) -> Fraction:
    """(a; q)_n = prod_{j=0}^{n-1} (1 - a q^j), exactly; empty product 1."""
    if n < 0:
        raise DomainError(f"finite q-Pochhammer needs n >= 0, got {n}")
    return Fraction(*_poch_parts(_as_fraction(a), _as_fraction(q), n))


def qfactorial_exact(n: int, q: Fraction) -> Fraction:
    """(q; q)_n, exactly."""
    return qpochhammer_exact(q, q, n)


def bn_squared_exact(n: int, q: Fraction) -> Fraction:
    """Square of the recurrence coefficient: b_n^2 = q^{-(2n+1)} (1 - q^{n+1}).

    b_{-1} = 0 by convention, so ``bn_squared_exact(-1, q) == 0``.
    """
    if n < -1:
        raise DomainError(f"recurrence coefficient index must be >= -1, got {n}")
    if n == -1:
        return Fraction(0)
    return Fraction(*next(_bn_squared_rows(_as_fraction(q), n)))


def _bn_squared_rows(q: Fraction, start: int = 0):
    """b_n^2, n = start, start + 1, ..., as (numerator, denominator) in
    lowest terms, b^n (b^(n+1) - a^(n+1)) / a^(2n+1) for q = a/b, from
    the running a^n and b^n."""
    a, b = q.numerator, q.denominator
    an, bn = a**start, b**start
    while True:
        yield bn * (b * bn - a * an), a * an * an
        an, bn = an * a, bn * b


def moment_In_exact(n: int, q: Fraction) -> Fraction:
    """Closed-form lattice moment I_n = q^{-n^2} (q; q)_n, exactly: for
    q = a/b, b^(n(n-1)/2) prod_{j=1..n} (b^j - a^j) over a^(n^2)."""
    if n < 0:
        raise DomainError(f"moment order must be >= 0, got {n}")
    q = _as_fraction(q)
    return Fraction(q.denominator ** (n * (n - 1) // 2) * _poch_parts(q, q, n)[0], q.numerator ** (n * n))


def rho_factorial_exact(n: int, q: Fraction) -> Fraction:
    """rho_n! = (q/(1-q))^n q^{-n^2} (q; q)_n, exactly.

    This is the normalization factorial of the ladder: rho_0! = 1 and
    rho_{n+1}! = rho_n! * (q/(1-q)) * b_n^2.
    """
    q, moment = _as_fraction(q), moment_In_exact(n, q)
    return Fraction(moment.numerator * q.numerator**n, moment.denominator * (q.denominator - q.numerator) ** n)


def lambda_exact(n: int, q: Fraction) -> Fraction:
    """Exact oscillator level: lambda_n = q^{-2n}[n+1]_q + q^{-2(n-1)}[n]_q,
    formed as :func:`_spectrum_mismatch` writes it for q = a/b."""
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    q = _as_fraction(q)
    a, b = q.numerator, q.denominator
    an, bn = a**n, b**n
    return Fraction(b * bn * (b * bn - a * an) + a * a * bn * (bn - an), an * an * b * (b - a))


def _oscillator_rows(q: Fraction, start: int = 0):
    """The exact diagonals of the oscillator at n = start, start + 1, ...

    Yields, per n, (q^-n, q^-2n, q^-2n [n+1]_q, lambda_n), each as a
    pair (numerator, denominator), from one pass over the running
    integer powers a^n, b^n of q = a/b and t = b^n [n+1]_q, which is
    the integer (b^(n+1) - a^(n+1))/(b - a) and steps to b t + a^(n+1).
    t is prime to a and to b, so every pair is in lowest terms: it is
    the numerator and denominator of the Fraction :func:`lambda_exact`
    or the powers and :func:`qbracket` give.
    lambda_n = q^-2n [n+1]_q + q^-2(n-1) [n]_q adds the product of the
    row before, brought to the denominator a^2n.
    """
    a, b = q.numerator, q.denominator
    an, bn = a**start, b**start
    t = (b * bn - a * an) // (b - a)
    below = a * a * (bn // b) * ((bn - an) // (b - a))  # 0 at n = 0
    while True:
        den = an * an
        top = bn * t
        yield (bn, an), (bn * bn, den), (top, den), (top + below, den)
        below = a * a * top
        t = b * t + a * an
        an *= a
        bn *= b


def _spectrum_mismatch(a_pow, b_pow) -> int:
    """The largest n < len(a_pow) // 2 at which two exact paths to lambda_n
    disagree, or -1, from a_pow[k] = a^k and b_pow[k] = b^k of q = a/b:
    the closed form q^-2n [n+1]_q + q^-2(n-1) [n]_q, which is
    (b^(n+1) (b^(n+1) - a^(n+1)) + a^2 b^n (b^n - a^n)) / (a^2n b (b - a)),
    and (q/(1-q))(b_{n-1}^2 + b_n^2) with b_{-1}^2 = 0 and
    b_n^2 = q^-(2n+1) (1 - q^(n+1)) = b^n (b^(n+1) - a^(n+1)) / a^(2n+1),
    compared cross-multiplied, the common factor 1/(b - a) taken out.
    """
    a, b = a_pow[1], b_pow[1]
    worst, prev_num, prev_den = -1, 0, 1
    for n in range(len(a_pow) // 2):
        closed = b_pow[n + 1] * (b_pow[n + 1] - a_pow[n + 1]) + a * a * b_pow[n] * (b_pow[n] - a_pow[n])
        num, den = b_pow[n] * (b_pow[n + 1] - a_pow[n + 1]), a_pow[2 * n + 1]
        if closed * prev_den * den != a * (prev_num * den + num * prev_den) * a_pow[2 * n] * b:
            worst = n
        prev_num, prev_den = num, den
    return worst


def extremal_bracket_exact(s: int, q: Fraction) -> Fraction:
    """Rescaled bracket [s] = q^{-2(s-1)} (1 - q^s)/(1 - q) = b_{s-1}^2 / b_0^2."""
    if s < 1:
        raise DomainError(f"bracket index must be >= 1, got {s}")
    q = _as_fraction(q)
    return q ** (-2 * (s - 1)) * qbracket(s, q)


def jackson_monomial_exact(k: int, x: Fraction, q: Fraction) -> Fraction:
    """Exact Jackson integral of t^k from 0 to x: x^{k+1} / [k+1]_q."""
    if k < 0:
        raise DomainError(f"monomial degree must be >= 0, got {k}")
    x = _as_fraction(x)
    return x ** (k + 1) / qbracket(k + 1, q)
