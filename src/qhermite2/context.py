"""Shared numeric context: the deformation parameter q and the working
precision.

Every numeric routine in the package takes a :class:`PrecisionContext`
(or builds a default one) instead of touching mpmath's global state.
Each context owns a private mpmath context object while it is alive, so
two computations never interfere, and results are reproducible: the
same ``PrecisionContext`` inputs always give bitwise-identical outputs.

Building an mpmath context costs about a millisecond (mpmath wraps its
special functions again for each one), so a collected context hands its
mpmath context to a free list, and the next context takes it and sets
its precision instead of building one.  The list holds no computed
value, only idle mpmath contexts: as many as were ever alive at once.

q is stored as an exact :class:`fractions.Fraction`.  All q-dependent
prefactors (q-brackets, q-Pochhammer start values, lattice ratios) are
formed from this exact value inside the context's own precision, never
from a double-rounded float.
"""

from __future__ import annotations

import math
import os
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from mpmath.ctx_mp import MPContext

from .errors import DomainError

__all__ = ["PrecisionContext", "as_fraction", "ENV_PRECISION"]

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
        if not math.isfinite(value):
            raise DomainError(f"cannot interpret {value!r} as a rational")
        return Fraction(value)
    if hasattr(value, "_mpf_"):  # mpmath mpf: exact binary rational
        from mpmath.libmp import finf, fnan, fninf, to_rational

        if value._mpf_ in (fnan, finf, fninf):
            raise DomainError(f"cannot interpret {value} as a rational")
        p, d = to_rational(value._mpf_)
        return Fraction(p, d)
    raise DomainError(f"cannot interpret {type(value).__name__} as a rational")


# idle mpmath contexts, handed back by collected contexts; one list for
# every precision, so it never holds more than were ever alive at once
_IDLE: list = []


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
        mpmath context at ``precision_bits`` working precision, private
        to this context while it is alive.  It is taken from the free
        list (or built) and handed back when this context is collected,
        so mpf values or closures that outlive this context compute at
        the precision of its next owner.
    tables : dict
        Quantities that depend only on q and a precision, filled on
        demand, under one rule: a table of rounded values is keyed by
        ``(name, prec)``, prec the precision its values were rounded
        at, which is ``mp.prec`` when they are formed, also where a
        caller has raised it; an exact table is keyed by its name
        alone.  No cache lives outside the tables.  Rounded, per prec:

        - ``("q", prec)``: q as a raw mpf, read by :attr:`qm`;
        - ``("q^n", prec)``: the memo n -> q^n of
          :func:`~qhermite2.qkernel.q_power_raw`;
        - ``("squarings", prec)``: its chain q, q^2, q^4, ... of the
          q of that precision, each square truncated to prec + 64 bits;
        - ``("1-q^(n+1)", prec)``: the list 1 - q^(n+1), n = 0, 1, ...,
          read by ``gen_exponential`` and the formal series;
        - ``("b", prec)``: the tuple b_0, b_1, ... of
          :func:`~qhermite2.qkernel.b_table`;
        - ``("carrier", prec)``: the carrier coefficients S_{2j-1}(0) of
          :mod:`qhermite2.extremal` with the exact ratio of the last.

        Exact: ``"nested_sum"`` (the extremal alpha and beta sums),
        ``"htilde"`` (the integer-form Polys of
        :func:`~qhermite2.qhermite.hermite2_coeffs`), ``"2phi0"`` (the
        map n -> the exact 2phi0 expansion of htilde_n that
        :func:`~qhermite2.qhermite.hermite2_eval_direct` evaluates) and
        ``"(ix;q)_k"`` (the Gaussian-integer rows of b^binom(k,2)
        (ix; q)_k, q = a/b, that the expansions share).  A stored value
        is never changed; containers only grow.  Not part of equality or
        hashing.
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

        # list.pop and list.append are atomic, so threads need no lock
        try:
            ctx = _IDLE.pop()
        except IndexError:
            ctx = MPContext()
        ctx.prec = bits
        weakref.finalize(self, _IDLE.append, ctx)
        object.__setattr__(self, "mp", ctx)
        object.__setattr__(self, "tables", {})

    # -- conversions -----------------------------------------------------

    @property
    def qm(self):
        """q as an mpf rounded to the working precision ``mp.prec``,
        formed once per precision (``tables[("q", prec)]``)."""
        key = ("q", self.mp.prec)
        q = self.tables.get(key)
        if q is None:
            q = self.tables[key] = self.mpf(self.q)._mpf_
        return self.mp.make_mpf(q)

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
