"""Exact arithmetic layer: rational q-arithmetic, Gaussian rationals,
and dense polynomials over them.

The verification routines in this package prove polynomial identities by
exact arithmetic rather than by sampling floats.  Everything here works
over Q(i) with :class:`fractions.Fraction` components, so results are
exact for every rational q.  The only operations are ring/field
arithmetic, evaluation, and composition with x + c; no external computer
algebra system is needed for that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DomainError

__all__ = [
    "GaussianRational",
    "Poly",
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
    """Exact element of Q(i): ``re + im*i`` with Fraction parts."""

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
        return GaussianRational(_as_fraction(value), Fraction(0))

    # -- ring/field operations ---------------------------------------------

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        denom = o.re * o.re + o.im * o.im
        if denom == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / denom,
            (self.im * o.re - self.re * o.im) / denom,
        )

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) / self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, n: int) -> "GaussianRational":
        if not isinstance(n, int) or n < 0:
            raise TypeError("GaussianRational powers must be nonnegative ints")
        out = GaussianRational(Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re} {sign} {abs(self.im)}*i)"


GaussianRational.ZERO = GaussianRational()
GaussianRational.ONE = GaussianRational(Fraction(1))
GaussianRational.I = GaussianRational(Fraction(0), Fraction(1))


class Poly:
    """Dense polynomial over Q(i), coefficients in ascending order.

    Immutable; all operations return new instances with trailing zero
    coefficients stripped.  The zero polynomial has ``coeffs == ()``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()) -> None:
        cs = [GaussianRational.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((GaussianRational.ONE,))

    @staticmethod
    def x() -> "Poly":
        return Poly((GaussianRational.ZERO, GaussianRational.ONE))

    @staticmethod
    def monomial(k: int, coeff: ScalarLike = 1) -> "Poly":
        if k < 0:
            raise DomainError(f"monomial degree must be >= 0, got {k}")
        return Poly([GaussianRational.ZERO] * k + [GaussianRational.coerce(coeff)])

    # -- structure --------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> GaussianRational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return GaussianRational.ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            [self.coefficient(k) - other.coefficient(k) for k in range(n)]
        )

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [GaussianRational.ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def scale(self, c: ScalarLike) -> "Poly":
        cc = GaussianRational.coerce(c)
        return Poly([cc * a for a in self.coeffs])

    # -- evaluation and composition -----------------------------------------

    def __call__(self, x: ScalarLike) -> GaussianRational:
        acc = GaussianRational.ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mp(self, ctx, x):
        """Evaluate at an mpf/mpc point by Horner in ctx's precision."""
        mp = ctx.mp
        complex_needed = isinstance(x, mp.mpc) or any(
            c.im != 0 for c in self.coeffs
        )
        acc = mp.mpc(0) if complex_needed else mp.mpf(0)
        for c in reversed(self.coeffs):
            if c.im == 0:
                cv = ctx.mpf(c.re)
            else:
                cv = mp.mpc(ctx.mpf(c.re), ctx.mpf(c.im))
            acc = acc * x + cv
        return acc

    def shift(self, c: ScalarLike) -> "Poly":
        """Compose with x + c, returning p(x + c), exactly."""
        cc = GaussianRational.coerce(c)
        result = Poly.zero()
        # Horner on the shifted variable: p(x+c) built from the top down.
        for coeff in reversed(self.coeffs):
            result = result * Poly((cc, GaussianRational.ONE)) + Poly((coeff,))
        return result

    def scale_argument(self, s: ScalarLike) -> "Poly":
        """Return p(s*x), exactly."""
        ss = GaussianRational.coerce(s)
        power = GaussianRational.ONE
        out = []
        for c in self.coeffs:
            out.append(c * power)
            power = power * ss
        return Poly(out)

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


# -- exact q-arithmetic ----------------------------------------------------


def qbracket(n: int, q: Fraction) -> Fraction:
    """q-bracket [n]_q = (1 - q^n)/(1 - q), exactly; [0] = 0."""
    if n < 0:
        raise DomainError(f"q-bracket needs n >= 0, got {n}")
    q = _as_fraction(q)
    return (1 - q**n) / (1 - q)


def qpochhammer_exact(a: Fraction, q: Fraction, n: int) -> Fraction:
    """(a; q)_n = prod_{j=0}^{n-1} (1 - a q^j), exactly; empty product 1."""
    if n < 0:
        raise DomainError(f"finite q-Pochhammer needs n >= 0, got {n}")
    a = _as_fraction(a)
    q = _as_fraction(q)
    out = Fraction(1)
    aqj = a
    for _ in range(n):
        out *= 1 - aqj
        aqj *= q
    return out


def qfactorial_exact(n: int, q: Fraction) -> Fraction:
    """(q; q)_n, exactly."""
    return qpochhammer_exact(_as_fraction(q), q, n)


def bn_squared_exact(n: int, q: Fraction) -> Fraction:
    """Square of the recurrence coefficient: b_n^2 = q^{-(2n+1)} (1 - q^{n+1}).

    b_{-1} = 0 by convention, so ``bn_squared_exact(-1, q) == 0``.
    """
    if n < -1:
        raise DomainError(f"recurrence coefficient index must be >= -1, got {n}")
    if n == -1:
        return Fraction(0)
    q = _as_fraction(q)
    return q ** (-(2 * n + 1)) * (1 - q ** (n + 1))


def moment_In_exact(n: int, q: Fraction) -> Fraction:
    """Closed-form lattice moment I_n = q^{-n^2} (q; q)_n, exactly."""
    if n < 0:
        raise DomainError(f"moment order must be >= 0, got {n}")
    q = _as_fraction(q)
    return q ** (-(n * n)) * qfactorial_exact(n, q)


def rho_factorial_exact(n: int, q: Fraction) -> Fraction:
    """rho_n! = (q/(1-q))^n q^{-n^2} (q; q)_n, exactly.

    This is the normalization factorial of the ladder: rho_0! = 1 and
    rho_{n+1}! = rho_n! * (q/(1-q)) * b_n^2.
    """
    q = _as_fraction(q)
    return (q / (1 - q)) ** n * moment_In_exact(n, q)


def lambda_exact(n: int, q: Fraction) -> Fraction:
    """Exact oscillator level: lambda_n = q^{-2n}[n+1]_q + q^{-2(n-1)}[n]_q."""
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    q = _as_fraction(q)
    first = q ** (-2 * n) * qbracket(n + 1, q)
    second = Fraction(0) if n == 0 else q ** (-2 * (n - 1)) * qbracket(n, q)
    return first + second


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
