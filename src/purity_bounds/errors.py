"""Exception and warning types shared across the package."""


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
