"""First/second quadrature moments, correlation coefficient and purity.

For a Fock-basis state the moments are evaluated exactly with the shared
operators of ``states.fock_moment_operators``: they are built two levels
larger than the state, so the products q^2, p^2 and (qp+pq)/2 carry no
truncation artifact for any state supported on the stored basis.  A
``TruncationWarning`` is still emitted when the top two levels are
populated, because the stored matrix is then itself a suspect truncation
of the intended state.

``purity`` computes every purity, ``compute_moments``' too.  A valid state
can come out above 1 by an excess within ``STATE_TOL``, which reads as 1:
no later purity gate rejects a state that passed validation.  Only the
Fock path loads numpy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DegenerateCorrelationError, InvalidStateError, TruncationWarning
from .states import (
    STATE_TOL,
    TRUNCATION_POPULATION_TOL,
    FockDensityMatrix,
    GaussianState,
    QuantumState,
    fock_moment_operators,
    validate_state,
)

# |r| at or beyond this is treated as a degenerate correlation.
DEGENERATE_R_TOL = 1e-12


@dataclass(frozen=True)
class SecondMoments:
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
        if not 0.0 < mu <= 1.0 + STATE_TOL:
            raise InvalidStateError(f"purity {mu!r} outside (0, 1]")
        return cls(
            mean_q=float(mean_q),
            mean_p=float(mean_p),
            sigma_qq=float(sigma_qq),
            sigma_pp=float(sigma_pp),
            sigma_qp=float(sigma_qp),
            r=float(r),
            mu=float(mu),
            linear_entropy=float(1.0 - mu),
        )


def _require_valid(state: QuantumState) -> None:
    violations = validate_state(state)
    if violations:
        names = ", ".join(v.name for v in violations)
        raise InvalidStateError(f"state fails validation: {names}")


def _warn_if_truncated(state: FockDensityMatrix) -> None:
    top = state.populations()[-2:].max()
    if top >= TRUNCATION_POPULATION_TOL:
        warnings.warn(
            f"top two basis levels carry population {top:.3e}; "
            "moments describe the truncated matrix as stored, which may "
            "misrepresent the intended state",
            TruncationWarning,
            stacklevel=3,
        )


def _fock_moments(state: FockDensityMatrix, mu: float) -> SecondMoments:
    _warn_if_truncated(state)
    q, p, q2, p2, qp_sym = fock_moment_operators(state.dim, state.hbar, state.mass, state.omega)
    rho = state.entries
    expect = lambda op: float((rho @ op).trace().real)
    mean_q = expect(q)
    mean_p = expect(p)
    sigma_qq = expect(q2) - mean_q**2
    sigma_pp = expect(p2) - mean_p**2
    sigma_qp = expect(qp_sym) - mean_q * mean_p
    return SecondMoments.from_covariance(mean_q, mean_p, sigma_qq, sigma_pp, sigma_qp, mu)


def _gaussian_purity(state: GaussianState) -> float:
    det = state.sigma_qq * state.sigma_pp - state.sigma_qp**2
    if not det > 0:
        raise InvalidStateError(f"covariance determinant {det!r} must be positive")
    return state.hbar / (2.0 * math.sqrt(det))


def compute_moments(state: QuantumState) -> SecondMoments:
    """Extract ``SecondMoments`` from either state representation.

    Gaussian states have their moments copied; Fock states get exact
    operator traces (see module docstring).  The purity is ``purity``'s.
    """
    mu = purity(state)
    if isinstance(state, GaussianState):
        return SecondMoments.from_covariance(
            state.mean_q, state.mean_p, state.sigma_qq, state.sigma_pp, state.sigma_qp, mu
        )
    return _fock_moments(state, mu)


def purity(state: QuantumState) -> float:
    """Purity of a valid state, in (0, 1].

    hbar / (2 sqrt(det sigma)) for a Gaussian state, the sum of squared
    eigenvalues for a density matrix; a value above 1 reads as 1 (see
    module docstring).
    """
    _require_valid(state)
    if isinstance(state, GaussianState):
        return min(_gaussian_purity(state), 1.0)
    import numpy as np

    # validate_state rejects an eigenvalue below -STATE_TOL: only rounding is clipped.
    eigs = np.linalg.eigvalsh(0.5 * (state.entries + state.entries.conj().T))
    return min(float(np.sum(np.clip(eigs, 0.0, None) ** 2)), 1.0)
