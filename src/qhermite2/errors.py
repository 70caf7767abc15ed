"""Exception hierarchy for the qhermite2 package.

Every failure mode that callers are expected to handle gets its own
class so that scripts can distinguish "bad input" from "the algorithm
could not certify its own output".
"""

__all__ = [
    "QHermiteError",
    "DomainError",
    "NoConvergenceError",
    "TruncationError",
    "InstabilityError",
    "AlgebraViolation",
    "DegenerateRootError",
]


class QHermiteError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QHermiteError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    Raised for q outside (0, 1), negative polynomial degrees, truncation
    orders below 1, and similar contract breaches.  Subclasses ValueError
    so generic validation code keeps working.
    """


class NoConvergenceError(QHermiteError):
    """An iterative summation failed to reach the requested tolerance
    within the term budget."""


class TruncationError(QHermiteError):
    """A requested truncation cannot deliver the requested accuracy."""


class InstabilityError(QHermiteError):
    """A recurrence-based evaluation failed its internal stability
    cross-check (for example, disagreement under depth doubling)."""


class AlgebraViolation(QHermiteError):
    """A finite-dimensional operator identity failed beyond the valid
    truncation block, indicating a construction bug rather than edge
    effects."""


class DegenerateRootError(QHermiteError):
    """A root finder bracketed what looks like a multiple or spurious
    root and cannot certify simple sign changes."""
