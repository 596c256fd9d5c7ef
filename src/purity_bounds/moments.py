"""First/second quadrature moments, correlation coefficient and purity.

A Fock-basis state is read through three diagonals: with the ladder sums
z = sum sqrt(n+1) rho[n+1,n], w = sum sqrt((n+1)(n+2)) rho[n+2,n] and
N = sum (2n+1) rho[n,n], s_q^2 = hbar/(2 m omega) and s_p^2 = hbar m omega/2,

    <q> = 2 s_q Re z    <q^2> = s_q^2 (N + 2 Re w)    <(qp+pq)/2> = hbar Im w
    <p> = 2 s_p Im z    <p^2> = s_p^2 (N - 2 Re w)

exactly, for any state on the stored levels.  The sums are ``math.fsum``s
over Python complex numbers, so no BLAS kernel changes a bit.  A
``TruncationWarning`` is still emitted when the top two levels are
populated: the stored matrix is then itself a suspect truncation of the
intended state.

``purity`` and ``compute_moments`` validate the state; the CLI's ``check``,
which has validated it already, reads its moments through ``_covariance``.  A
density matrix's purity is sum |rho_ij|^2, summed diagonal by diagonal by
``_fock_purity`` (for ``run_trajectory`` too).  It can pass 1 by more than
``states.STATE_TOL`` on a valid state (diag(1 + 9e-11, 0, ...) gives
1 + 1.8e-10), so ``_fock_purity`` reads any purity above 1 as 1, and so does
``_purity`` for a Gaussian: no later gate rejects a valid state.
``SecondMoments.from_covariance`` reads a caller's purity by the one rule for
it, ``bounds.check_purity``.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

from .bounds import check_purity, covariance_det
from .errors import DegenerateCorrelationError, InvalidStateError, TruncationWarning
from .states import FockDensityMatrix, GaussianState, QuantumState, validate_state

# |r| at or beyond this is treated as a degenerate correlation.
DEGENERATE_R_TOL = 1e-12
# A population of either top basis level at or above this emits a TruncationWarning:
# the intended state's support likely extends past the truncation.
TRUNCATION_POPULATION_TOL = 1e-8


class SecondMoments(NamedTuple):
    """Quadrature means, (co)variances, correlation coefficient and purity."""

    mean_q: float
    mean_p: float
    sigma_qq: float
    sigma_pp: float
    sigma_qp: float
    r: float
    mu: float
    linear_entropy: float

    @classmethod
    def from_covariance(
        cls,
        mean_q: float,
        mean_p: float,
        sigma_qq: float,
        sigma_pp: float,
        sigma_qp: float,
        mu: float,
    ) -> "SecondMoments":
        # Written so that NaN fails each guard.
        if not (sigma_qq > 0 and sigma_pp > 0):
            raise InvalidStateError(f"variances {sigma_qq!r}, {sigma_pp!r} must be positive")
        # Each variance under its own root: the product could underflow or overflow.
        r = sigma_qp / (math.sqrt(sigma_qq) * math.sqrt(sigma_pp))
        if not abs(r) < 1.0 - DEGENERATE_R_TOL:
            raise DegenerateCorrelationError(
                f"|r| = {abs(r):.17g} is degenerate (>= 1 - {DEGENERATE_R_TOL})"
            )
        mu = check_purity(mu)
        return cls(*map(float, (mean_q, mean_p, sigma_qq, sigma_pp, sigma_qp, r, mu, 1.0 - mu)))


def _require_valid(state: QuantumState) -> None:
    violations = validate_state(state)
    if violations:
        names = ", ".join(v.name for v in violations)
        raise InvalidStateError(f"state fails validation: {names}")


def _warn_if_truncated(state: FockDensityMatrix, stacklevel: int = 3) -> None:
    """Warn, naming the frame ``stacklevel`` up, if the top two levels are populated."""
    top = max(state.populations()[-2:])
    if top >= TRUNCATION_POPULATION_TOL:
        warnings.warn(
            f"top two basis levels carry population {top:.3e}; "
            "moments describe the truncated matrix as stored, which may "
            "misrepresent the intended state",
            TruncationWarning,
            stacklevel=stacklevel,
        )


def _ladder_moments(z, w, n_sum, hbar=1.0, mass=1.0, omega=1.0):
    """(mean_q, mean_p, sigma_qq, sigma_pp, sigma_qp) from z, w, N: Python numbers or arrays."""
    s_qq, s_pp = hbar / (2.0 * mass * omega), hbar * mass * omega / 2.0
    x, y = z.real, z.imag  # <q>^2 = 4 s_qq x^2 and <q><p> = 2 hbar x y go inside each sum
    return (2.0 * math.sqrt(s_qq) * x, 2.0 * math.sqrt(s_pp) * y,
            s_qq * (n_sum + 2.0 * w.real - 4.0 * x * x),
            s_pp * (n_sum - 2.0 * w.real - 4.0 * y * y),
            hbar * (w.imag - 2.0 * x * y))


def _fock_sums(rho) -> tuple[complex, complex, float]:
    """z, w and N of a density matrix (see module docstring)."""
    z = [math.sqrt(n) * rho[n][n - 1] for n in range(1, len(rho))]
    w = [math.sqrt(n * (n + 1.0)) * rho[n + 1][n - 1] for n in range(1, len(rho) - 1)]
    fsum = lambda t: complex(math.fsum(c.real for c in t), math.fsum(c.imag for c in t))
    return fsum(z), fsum(w), math.fsum((2.0 * n + 1.0) * r[n].real for n, r in enumerate(rho))


def _diagonal_weights(rho) -> list[float]:
    """S_d, the sum of |rho_ij|^2 over the diagonals i - j = +-d, for d = 0 .. dim-1."""
    squares = [[] for _ in rho]
    for i, row in enumerate(rho):
        for j, x in enumerate(row):
            squares[abs(i - j)] += (x.real * x.real, x.imag * x.imag)
    return [math.fsum(s) for s in squares]


def compute_moments(state: QuantumState) -> SecondMoments:
    """Extract ``SecondMoments`` from either state representation.

    Gaussian states have their moments copied; Fock states are read through
    their diagonals (see module docstring).  The purity is ``purity``'s.
    """
    _require_valid(state)
    return SecondMoments.from_covariance(*_covariance(state), _purity(state))


def _covariance(state: QuantumState) -> tuple:
    """mean_q, mean_p, sigma_qq, sigma_pp, sigma_qp of a state that has passed ``validate_state``."""
    if isinstance(state, GaussianState):
        return state[:5]
    _warn_if_truncated(state, stacklevel=4)
    return _ladder_moments(*_fock_sums(state.entries), state.hbar, state.mass, state.omega)


def purity(state: QuantumState) -> float:
    """Purity of a valid state, in (0, 1].

    hbar / (2 sqrt(det sigma)) for a Gaussian state, the sum of |rho_ij|^2
    for a density matrix; a value above 1 reads as 1 (see module docstring).
    """
    _require_valid(state)
    return _purity(state)


def _purity(state: QuantumState) -> float:
    if isinstance(state, GaussianState):  # validation has checked det > 0
        return min(state.hbar / (2.0 * math.sqrt(covariance_det(*state[2:5])[1])), 1.0)
    return _fock_purity(_diagonal_weights(state.entries))


def _fock_purity(weights: list[float], decay: float = 0.0) -> float:
    """sum_d S_d exp(-decay d^2) over diagonal weights S_d, above 1 read as 1."""
    return min(math.fsum(s * math.exp(-decay * (d * d)) for d, s in enumerate(weights)), 1.0)
