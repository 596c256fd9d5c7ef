"""Exception and warning types shared across the package, and the one rule
for a physical parameter (``check_positive``)."""

import math


def check_positive(name: str, value: float) -> float:
    """Return ``value`` if it is positive and finite; raise ValueError otherwise.

    Every physical scale (hbar, a mass, a frequency, an energy, a
    temperature, a time) is checked by this rule; NaN fails it.
    """
    if not 0 < value < math.inf:
        raise ValueError(f"{name} {value!r} must be positive and finite")
    return value


class InvalidStateError(ValueError):
    """A quantum state violates one of its structural invariants."""


class DegenerateCorrelationError(ValueError):
    """The position-momentum correlation coefficient is at (or beyond) |r| = 1."""


class InfeasibleTargetError(ValueError):
    """The requested purity is unreachable for the given number of levels."""


class PieceDomainError(ValueError):
    """An analytic minimizer was requested outside its domain of validity."""


class ResolutionError(RuntimeError):
    """A sampled potential grid is too coarse to resolve the barrier."""


class TruncationWarning(UserWarning):
    """State populations reach the top of the truncated number basis."""
