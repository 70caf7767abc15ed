"""Shared numeric context: the deformation parameter q and the working
precision.

Every numeric routine in the package takes a :class:`PrecisionContext`
(or builds a default one) instead of touching mpmath's global state.
Each context owns a private mpmath context object, so two computations
at different precisions never interfere, and results are reproducible:
the same ``PrecisionContext`` inputs always give bitwise-identical
outputs.

q is stored as an exact :class:`fractions.Fraction`.  All q-dependent
prefactors (q-brackets, q-Pochhammer start values, lattice ratios) are
formed from this exact value inside the context's own precision, never
from a double-rounded float.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import mpmath
from mpmath.ctx_mp import MPContext

from .errors import DomainError

__all__ = ["PrecisionContext", "default_context", "as_fraction"]

ENV_PRECISION = "QH_PRECISION_BITS"

Rational = Union[Fraction, int, str, float]


def as_fraction(value: Rational) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Strings accept both "1/2" and decimal forms like "0.3" (read as the
    exact decimal 3/10).  Floats convert via their exact binary value.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse rational from {value!r}") from exc
    if isinstance(value, float):
        return Fraction(value)
    if hasattr(value, "_mpf_"):  # mpmath mpf: exact binary rational
        from mpmath.libmp import to_rational

        p, d = to_rational(value._mpf_)
        return Fraction(p, d)
    raise DomainError(f"cannot interpret {type(value).__name__} as a rational")


def _resolve_precision(precision_bits: int | None) -> int:
    if precision_bits is None:
        raw = os.environ.get(ENV_PRECISION, "").strip()
        if raw:
            try:
                precision_bits = int(raw)
            except ValueError as exc:
                raise DomainError(
                    f"{ENV_PRECISION} must be an integer, got {raw!r}"
                ) from exc
        else:
            precision_bits = 256
    return precision_bits


@dataclass(frozen=True)
class PrecisionContext:
    """Bundle of q, binary working precision, and series controls.

    Parameters
    ----------
    q : Fraction | int | str | float
        Deformation parameter, must satisfy 0 < q < 1.  Kept exact.
    precision_bits : int, optional
        Binary working precision (>= 64).  Defaults to the
        ``QH_PRECISION_BITS`` environment variable, else 256.
    max_terms : int, optional
        Hard cap on series terms before :class:`NoConvergenceError`.

    Attributes
    ----------
    series_tol : Fraction
        Default series stopping tolerance, 2**-(precision_bits - 20).
    mp : mpmath context
        Private mpmath context at ``precision_bits`` working precision.
    tables : dict
        Tuples of derived constants (such as the b_n of
        :func:`qhermite2.qkernel.b_table`), filled on demand and never
        changed once computed.  Not part of equality or hashing.
    """

    q: Fraction
    precision_bits: int = None  # type: ignore[assignment]
    max_terms: int = 4000
    series_tol: Fraction = field(init=False)
    mp: MPContext = field(init=False, repr=False, compare=False)
    tables: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q = as_fraction(self.q)
        if not (0 < q < 1):
            raise DomainError(f"q must lie strictly inside (0, 1), got {q}")
        object.__setattr__(self, "q", q)

        bits = _resolve_precision(self.precision_bits)
        if not isinstance(bits, int) or bits < 64:
            raise DomainError(f"precision_bits must be an int >= 64, got {bits!r}")
        object.__setattr__(self, "precision_bits", bits)

        if not isinstance(self.max_terms, int) or self.max_terms < 16:
            raise DomainError(f"max_terms must be an int >= 16, got {self.max_terms!r}")

        object.__setattr__(self, "series_tol", Fraction(1, 2 ** (bits - 20)))

        ctx = MPContext()
        ctx.prec = bits
        object.__setattr__(self, "mp", ctx)
        object.__setattr__(self, "tables", {})

    # -- conversions -----------------------------------------------------

    @property
    def qm(self):
        """q as an mpf in this context's precision."""
        return self.mp.mpf(self.q.numerator) / self.q.denominator

    @property
    def eps(self):
        """One unit in the last place of 1.0 at working precision."""
        return self.mp.mpf(2) ** (-self.precision_bits)

    @property
    def decimal_digits(self) -> int:
        """Decimal digits that round-trip the working precision."""
        return int(self.precision_bits * 0.30103) + 5

    def mpf(self, value):
        """Convert ``value`` (Fraction/int/float/str/mpf) to mpf here."""
        if isinstance(value, Fraction):
            return self.mp.mpf(value.numerator) / value.denominator
        return self.mp.mpf(value)

    def mpc(self, value):
        """Convert ``value`` to an mpc in this context."""
        if isinstance(value, Fraction):
            return self.mp.mpc(self.mpf(value))
        if isinstance(value, complex):
            return self.mp.mpc(value.real, value.imag)
        return self.mp.mpc(value)

    def nstr(self, x, digits: int | None = None) -> str:
        """Deterministic decimal rendering used by reports and the CLI."""
        d = self.decimal_digits if digits is None else digits
        return self.mp.nstr(x, d, strip_zeros=False)


def default_context(q: Rational = Fraction(1, 2), **kwargs) -> PrecisionContext:
    """Convenience constructor used by the CLI and docstrings."""
    return PrecisionContext(q=as_fraction(q), **kwargs)
