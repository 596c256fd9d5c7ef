"""Exception and warning types shared across the package, and the one rule
for a physical parameter (``check_positive``) and for a record of them
(``PositiveFields``)."""

import math


def check_positive(name: str, value: float) -> float:
    """Return ``value`` if it is positive and finite; raise ValueError otherwise.

    Every physical scale (hbar, a mass, a frequency, an energy, a
    temperature, a time) is checked by this rule; NaN fails it.
    """
    if not 0 < value < math.inf:
        raise ValueError(f"{name} {value!r} must be positive and finite")
    return value


class PositiveFields:
    """Base, listed before a NamedTuple's field tuple, of a record of physical
    scales: the constructor, ``_make`` and ``_replace`` all ``check_positive``
    every field."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            check_positive(name, value)
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


class InvalidStateError(ValueError):
    """A quantum state violates one of its structural invariants."""


class DegenerateCorrelationError(ValueError):
    """The position-momentum correlation coefficient is at (or beyond) |r| = 1."""


class InfeasibleTargetError(ValueError):
    """The requested purity is unreachable for the given number of levels."""


class ResolutionError(RuntimeError):
    """A sampled potential grid is too coarse to resolve the barrier."""


class TruncationWarning(UserWarning):
    """State populations reach the top of the truncated number basis."""
