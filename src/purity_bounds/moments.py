"""First/second quadrature moments, correlation coefficient and purity.

For a Fock-basis state the moments are evaluated exactly with the shared
operators of ``states.fock_moment_operators``: they are built two levels
larger than the state, so the products q^2, p^2 and (qp+pq)/2 carry no
truncation artifact for any state supported on the stored basis.  A
``TruncationWarning`` is still emitted when the top two levels are
populated, because the stored matrix is then itself a suspect truncation
of the intended state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCorrelationError, InvalidStateError, TruncationWarning
from .states import (
    TRUNCATION_POPULATION_TOL,
    FockDensityMatrix,
    GaussianState,
    QuantumState,
    fock_moment_operators,
    validate_state,
)

# |r| at or beyond this is treated as a degenerate correlation.
DEGENERATE_R_TOL = 1e-12
# Eigenvalues of a density matrix in (-EIG_CLIP, 0) are clipped to zero when
# the purity is computed.
EIG_CLIP = 1e-10


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
            raise InvalidStateError("variances must be positive")
        r = sigma_qp / math.sqrt(sigma_qq * sigma_pp)
        if not abs(r) < 1.0 - DEGENERATE_R_TOL:
            raise DegenerateCorrelationError(
                f"|r| = {abs(r):.17g} is degenerate (>= 1 - {DEGENERATE_R_TOL})"
            )
        if not 0.0 < mu <= 1.0 + EIG_CLIP:
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


def _clipped_eigenvalues(rho: np.ndarray) -> np.ndarray:
    # Callers validate first: validate_state has rejected an eigenvalue of
    # this same symmetrised matrix below -PSD_TOL (== EIG_CLIP), so only
    # rounding is left to clip.
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    return np.clip(eigs, 0.0, None)


def _warn_if_truncated(state: FockDensityMatrix) -> None:
    pops = state.populations()
    top = pops[-2:]
    if np.any(top >= TRUNCATION_POPULATION_TOL):
        warnings.warn(
            f"top two basis levels carry population {top.max():.3e}; "
            "moments describe the truncated matrix as stored, which may "
            "misrepresent the intended state",
            TruncationWarning,
            stacklevel=3,
        )


def _fock_moments(state: FockDensityMatrix) -> SecondMoments:
    _warn_if_truncated(state)
    q, p, q2, p2, qp_sym = fock_moment_operators(state.dim, state.hbar, state.mass, state.omega)
    rho = state.entries
    expect = lambda op: float(np.real(np.trace(rho @ op)))
    mean_q = expect(q)
    mean_p = expect(p)
    sigma_qq = expect(q2) - mean_q**2
    sigma_pp = expect(p2) - mean_p**2
    sigma_qp = expect(qp_sym) - mean_q * mean_p
    mu = float(np.sum(_clipped_eigenvalues(rho) ** 2))
    return SecondMoments.from_covariance(mean_q, mean_p, sigma_qq, sigma_pp, sigma_qp, mu)


def _gaussian_purity(state: GaussianState) -> float:
    det = state.sigma_qq * state.sigma_pp - state.sigma_qp**2
    if not det > 0:
        raise InvalidStateError(f"covariance determinant {det!r} must be positive")
    return state.hbar / (2.0 * math.sqrt(det))


def compute_moments(state: QuantumState) -> SecondMoments:
    """Extract ``SecondMoments`` from either state representation.

    Gaussian states have their moments copied and the purity evaluated as
    hbar / (2 sqrt(det sigma)); Fock states get exact operator traces (see
    module docstring) and the purity as the sum of squared eigenvalues.
    """
    _require_valid(state)
    if isinstance(state, GaussianState):
        return SecondMoments.from_covariance(
            state.mean_q,
            state.mean_p,
            state.sigma_qq,
            state.sigma_pp,
            state.sigma_qp,
            _gaussian_purity(state),
        )
    return _fock_moments(state)


def purity(state: QuantumState) -> float:
    """Purity of the state: sum of squared eigenvalues, in (0, 1]."""
    _require_valid(state)
    if isinstance(state, GaussianState):
        return _gaussian_purity(state)
    return float(np.sum(_clipped_eigenvalues(state.entries) ** 2))
