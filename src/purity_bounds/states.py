"""Quantum state representations and their structural validation.

Two interchangeable descriptions of a single mode are supported: a Gaussian
state summarized by its first and second quadrature moments, and a density
matrix on a truncated number basis.  Every other module consumes one of
these two types (or their union, ``QuantumState``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
PHYSICALITY_TOL = 1e-10
# Populations of the top two basis levels above this emit a TruncationWarning
# when moments are computed (the state then likely misrepresents the intended
# physical state, whose support would extend past the truncation).
TRUNCATION_POPULATION_TOL = 1e-8


@dataclass(frozen=True)
class GaussianState:
    """Single-mode Gaussian state: quadrature means, variances and covariance."""

    mean_q: float
    mean_p: float
    sigma_qq: float
    sigma_pp: float
    sigma_qp: float
    hbar: float = 1.0


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix on the number basis truncated to ``dim`` levels.

    The oscillator units (``hbar``, ``mass``, ``omega``) fix the quadrature
    operators used when moments are extracted from the matrix.
    """

    dim: int
    entries: np.ndarray
    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape != (self.dim, self.dim):
            raise InvalidStateError(
                f"entries must be a {self.dim}x{self.dim} matrix, got shape {entries.shape}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def populations(self) -> np.ndarray:
        return np.real(np.diagonal(self.entries)).copy()


QuantumState = GaussianState | FockDensityMatrix


@dataclass(frozen=True)
class InvariantViolation:
    """One violated state invariant, with the measured violation magnitude."""

    name: str
    magnitude: float
    detail: str


def _finite_violations(pairs) -> list[InvariantViolation]:
    return [
        InvariantViolation(name="finite", magnitude=float("inf"),
                           detail=f"{name} = {value!r} is not finite")
        for name, value in pairs
        if not np.isfinite(value)
    ]


def _positivity_violations(pairs) -> list[InvariantViolation]:
    return [
        InvariantViolation(name="positive-parameter", magnitude=float(-value),
                           detail=f"{name} = {value!r} must be > 0")
        for name, value in pairs
        if not value > 0
    ]


def validate_state(state: QuantumState) -> list[InvariantViolation]:
    """Check every structural invariant of ``state``.

    Returns an empty list iff the state is valid.  Never raises for a
    merely unphysical state; each violated invariant is reported with the
    measured violation magnitude instead.  A NaN or infinite field or entry
    is a ``finite`` violation (magnitude inf), and the checks that need
    its value are skipped.
    """
    if isinstance(state, GaussianState):
        return _validate_gaussian(state)
    if isinstance(state, FockDensityMatrix):
        return _validate_fock(state)
    raise TypeError(f"not a quantum state: {type(state).__name__}")


def _validate_gaussian(state: GaussianState) -> list[InvariantViolation]:
    params = [("hbar", state.hbar), ("sigma_qq", state.sigma_qq), ("sigma_pp", state.sigma_pp)]
    moments = [("sigma_qp", state.sigma_qp), ("mean_q", state.mean_q), ("mean_p", state.mean_p)]
    violations = _finite_violations(params + moments) or _positivity_violations(params)
    if violations:
        return violations
    det = state.sigma_qq * state.sigma_pp - state.sigma_qp**2
    floor = state.hbar**2 / 4.0
    if det < floor - PHYSICALITY_TOL:
        violations.append(
            InvariantViolation(
                name="physicality",
                magnitude=float(floor - det),
                detail=(
                    f"sigma_qq*sigma_pp - sigma_qp^2 = {det:.12g} "
                    f"< hbar^2/4 = {floor:.12g}"
                ),
            )
        )
    return violations


def _validate_fock(state: FockDensityMatrix) -> list[InvariantViolation]:
    params = [("hbar", state.hbar), ("mass", state.mass), ("omega", state.omega)]
    violations = _finite_violations(params) or _positivity_violations(params)
    if state.dim < 2:
        violations.append(
            InvariantViolation(
                name="dimension",
                magnitude=float(2 - state.dim),
                detail=f"dim = {state.dim} must be >= 2",
            )
        )
        return violations
    rho = state.entries
    bad = int(np.count_nonzero(~np.isfinite(rho)))
    if bad:
        violations.append(
            InvariantViolation(
                name="finite",
                magnitude=float("inf"),
                detail=f"{bad} of the {rho.size} entries are not finite",
            )
        )
        return violations
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > HERMITICITY_TOL:
        violations.append(
            InvariantViolation(
                name="hermiticity",
                magnitude=herm,
                detail=f"max |rho - rho^dagger| = {herm:.3e}",
            )
        )
    trace_err = float(abs(np.trace(rho) - 1.0))
    if trace_err > TRACE_TOL:
        violations.append(
            InvariantViolation(
                name="trace",
                magnitude=trace_err,
                detail=f"|Tr rho - 1| = {trace_err:.3e}",
            )
        )
    if herm <= HERMITICITY_TOL:
        eigmin = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
        if eigmin < -PSD_TOL:
            violations.append(
                InvariantViolation(
                    name="positive-semidefinite",
                    magnitude=float(-eigmin),
                    detail=f"min eigenvalue = {eigmin:.3e}",
                )
            )
    return violations


def fock_quadrature_operators(
    dim: int, hbar: float = 1.0, mass: float = 1.0, omega: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum operators on the truncated number basis.

    q = sqrt(hbar/(2 m omega)) (a + a^+),  p = i sqrt(hbar m omega / 2) (a^+ - a),
    both returned as dense ``dim`` x ``dim`` Hermitian matrices.  Because of the
    truncation, the commutator [q, p] equals i hbar only on the leading
    (dim-1) x (dim-1) block.
    """
    if dim < 2:
        raise ValueError(f"operator dimension must be >= 2, got {dim}")
    if not (hbar > 0 and mass > 0 and omega > 0):
        raise ValueError(
            f"hbar, mass and omega must be positive, got {hbar!r}, {mass!r}, {omega!r}"
        )
    ladder = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)
    q = np.sqrt(hbar / (2.0 * mass * omega)) * (ladder + ladder.T)
    p = 1j * np.sqrt(hbar * mass * omega / 2.0) * (ladder.T - ladder)
    return q, p


def fock_moment_operators(
    dim: int, hbar: float = 1.0, mass: float = 1.0, omega: float = 1.0
) -> tuple[np.ndarray, ...]:
    """(q, p, q^2, p^2, (qp+pq)/2) on ``dim`` levels.

    The operators are built two levels larger and the products sliced back,
    so they carry no truncation artifact for any state supported on ``dim``
    levels: the moments evaluated with them are exact.
    """
    q_big, p_big = fock_quadrature_operators(dim + 2, hbar, mass, omega)
    ops = (q_big, p_big, q_big @ q_big, p_big @ p_big, 0.5 * (q_big @ p_big + p_big @ q_big))
    return tuple(op[:dim, :dim] for op in ops)


def fock_projector(
    n: int, dim: int, hbar: float = 1.0, mass: float = 1.0, omega: float = 1.0
) -> FockDensityMatrix:
    """Projector |n><n| as a density matrix on ``dim`` levels."""
    if not 0 <= n < dim:
        raise ValueError(f"level {n} outside basis of dimension {dim}")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return FockDensityMatrix(dim=dim, entries=rho, hbar=hbar, mass=mass, omega=omega)


def diagonal_mixture(
    weights, dim: int | None = None, hbar: float = 1.0, mass: float = 1.0, omega: float = 1.0
) -> FockDensityMatrix:
    """Mixture of number states with the given probability weights."""
    w = np.asarray(weights, dtype=float)
    if dim is None:
        dim = max(len(w), 2)
    if len(w) > dim:
        raise ValueError("more weights than basis levels")
    diag = np.zeros(dim)
    diag[: len(w)] = w
    return FockDensityMatrix(
        dim=dim, entries=np.diag(diag).astype(complex), hbar=hbar, mass=mass, omega=omega
    )


def pure_state_density(
    amplitudes, dim: int | None = None, hbar: float = 1.0, mass: float = 1.0, omega: float = 1.0
) -> FockDensityMatrix:
    """Density matrix of the normalized pure state with the given amplitudes."""
    psi = np.asarray(amplitudes, dtype=complex)
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("amplitudes must not all vanish")
    psi = psi / norm
    if dim is None:
        dim = max(len(psi), 2)
    if len(psi) > dim:
        raise ValueError("more amplitudes than basis levels")
    full = np.zeros(dim, dtype=complex)
    full[: len(psi)] = psi
    return FockDensityMatrix(
        dim=dim, entries=np.outer(full, full.conj()), hbar=hbar, mass=mass, omega=omega
    )
