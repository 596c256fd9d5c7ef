"""Quantum state representations and their structural validation.

Two interchangeable descriptions of a single mode are supported: a Gaussian
state summarized by its first and second quadrature moments, and a density
matrix on a truncated number basis.  Every other module consumes one of
these two types (or their union, ``QuantumState``).

``STATE_TOL`` judges the hermiticity, trace and eigenvalues of a density
matrix absolutely.  A density matrix is a tuple of rows of ``complex``; its
eigenvalues pass iff its Hermitian part plus ``STATE_TOL`` I has a Cholesky
factorization with positive pivots (Higham, *Accuracy and Stability of
Numerical Algorithms*, ch. 10).  A Gaussian state is physical iff det Sigma > 0
and its Schrodinger-Robertson flag passes on the det Sigma of ``bounds.covariance_det``.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import NamedTuple

from .bounds import bound_holds, covariance_det
from .errors import InvalidStateError

STATE_TOL = 1e-10


class GaussianState(NamedTuple):
    """Single-mode Gaussian state: quadrature means, variances and covariance."""

    mean_q: float
    mean_p: float
    sigma_qq: float
    sigma_pp: float
    sigma_qp: float
    hbar: float = 1.0


class _FockFields(NamedTuple):
    dim: int
    entries: tuple[tuple[complex, ...], ...]  # built from any nested sequence, an ndarray too
    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0


class FockDensityMatrix(_FockFields):
    """Density matrix on the number basis truncated to ``dim`` levels.

    The oscillator units (``hbar``, ``mass``, ``omega``) fix the quadrature
    operators used when moments are extracted from the matrix.  The
    constructors below use hbar = mass = omega = 1; ``_replace`` sets other
    units.  The constructor, ``_make`` and ``_replace`` all check the shape.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        entries = tuple(tuple(map(complex, row)) for row in self.entries)
        if len(entries) != self.dim or any(len(row) != self.dim for row in entries):
            raise InvalidStateError(f"entries must be a {self.dim}x{self.dim} matrix")
        return super().__new__(cls, self.dim, entries, *self[2:])

    _make = classmethod(lambda cls, fields: cls(*fields))

    def populations(self) -> tuple[float, ...]:
        return tuple(row[n].real for n, row in enumerate(self.entries))


QuantumState = GaussianState | FockDensityMatrix


class InvariantViolation(NamedTuple):
    """One violated state invariant, with the measured violation magnitude."""

    name: str
    magnitude: float | None  # None for a non-finite field or entry
    detail: str


def _finite_violations(pairs) -> list[InvariantViolation]:
    return [
        InvariantViolation(name="finite", magnitude=None,
                           detail=f"{name} = {value!r} is not finite")
        for name, value in pairs
        if not math.isfinite(value)
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
    is a ``finite`` violation (magnitude None), and the checks that need
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
    product, det = covariance_det(*state[2:5])
    violations = _finite_violations([("sigma_qq*sigma_pp - sigma_qp^2", det)])
    if violations:
        return violations
    floor = (state.hbar / 2.0) * (state.hbar / 2.0)  # hbar**2 would overflow first
    if not (det > 0 and bound_holds(det, floor, product)):
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


def _positive_definite(h, shift: float) -> bool:
    """Whether every pivot of the Cholesky factorization of h + shift I is positive."""
    conj_rows = []  # row k of L conjugated, up to its real diagonal entry
    for j, row in enumerate(h):
        lj = []
        for k, lk in enumerate(conj_rows):
            lj.append((row[k] - sum(map(operator.mul, lj, lk))) / lk[k])
        conj = [a.conjugate() for a in lj]
        pivot = row[j].real + shift - sum(map(operator.mul, lj, conj)).real
        if not pivot > 0:
            return False
        conj_rows.append(conj + [math.sqrt(pivot)])
    return True


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
    adjoint = [[x.conjugate() for x in column] for column in zip(*rho)]
    bad = sum(not cmath.isfinite(x) for row in rho for x in row)
    if bad:
        violations.append(
            InvariantViolation(
                name="finite",
                magnitude=None,
                detail=f"{bad} of the {state.dim ** 2} entries are not finite",
            )
        )
        return violations
    herm = max(abs(x - y) for row, adj in zip(rho, adjoint) for x, y in zip(row, adj))
    if herm > STATE_TOL:
        violations.append(
            InvariantViolation(
                name="hermiticity",
                magnitude=herm,
                detail=f"max |rho - rho^dagger| = {herm:.3e}",
            )
        )
    trace_err = abs(sum(row[n] for n, row in enumerate(rho)) - 1.0)
    if trace_err > STATE_TOL:
        violations.append(
            InvariantViolation(
                name="trace",
                magnitude=trace_err,
                detail=f"|Tr rho - 1| = {trace_err:.3e}",
            )
        )
    if herm <= STATE_TOL:
        h = [[0.5 * (x + y) for x, y in zip(row, adj)] for row, adj in zip(rho, adjoint)]
        if not _positive_definite(h, STATE_TOL):
            # -eigmin, the least shift making h definite, is below twice its row-sum norm.
            lo, hi = STATE_TOL, 2.0 * max(sum(map(abs, row)) for row in h)
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                lo, hi = (lo, mid) if _positive_definite(h, mid) else (mid, hi)
            violations.append(
                InvariantViolation(
                    name="positive-semidefinite",
                    magnitude=hi,
                    detail=f"min eigenvalue = {-hi:.3e}",
                )
            )
    return violations


def fock_projector(n: int, dim: int) -> FockDensityMatrix:
    """Projector |n><n| as a density matrix on ``dim`` levels."""
    if not 0 <= n < dim:
        raise ValueError(f"level {n} outside basis of dimension {dim}")
    return diagonal_mixture([0.0] * n + [1.0], dim)


def diagonal_mixture(weights, dim: int | None = None) -> FockDensityMatrix:
    """Mixture of number states with the given probability weights."""
    w = [float(x) for x in weights]
    if dim is None:
        dim = max(len(w), 2)
    if len(w) > dim:
        raise ValueError("more weights than basis levels")
    w += [0.0] * (dim - len(w))
    return FockDensityMatrix(dim, [[x if i == j else 0.0 for j in range(dim)]
                                   for i, x in enumerate(w)])


def pure_state_density(amplitudes, dim: int | None = None) -> FockDensityMatrix:
    """Density matrix of the normalized pure state with the given amplitudes."""
    psi = [complex(a) for a in amplitudes]
    norm = math.hypot(*(x for a in psi for x in (a.real, a.imag)))
    if norm == 0:
        raise ValueError("amplitudes must not all vanish")
    if dim is None:
        dim = max(len(psi), 2)
    if len(psi) > dim:
        raise ValueError("more amplitudes than basis levels")
    psi = [a / norm for a in psi] + [0j] * (dim - len(psi))
    return FockDensityMatrix(dim, [[a * b.conjugate() for b in psi] for a in psi])
