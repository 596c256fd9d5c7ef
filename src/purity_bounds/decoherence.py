"""Number-basis dephasing as a concrete purity-lowering process.

The channel multiplies each density-matrix element by
exp(-gamma t (n - m)^2): populations are untouched, coherences decay, the
purity falls monotonically.  This is a modeling choice -- any map that
drains purity would do for the bound -- picked because it has a closed-form
exponential action (no integrator needed) and an exact semigroup property.

``run_trajectory`` tracks (mu, r, Phi, hbar_eff, D) along the decay for a
fixed barrier.  The transparency at each instant is a quasi-static
estimate: it is computed from the instantaneous (r, mu) pair as if the
state were frozen during traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidStateError
from .moments import compute_moments
from .states import FockDensityMatrix
from .tunneling import BarrierSpec, transparency, wkb_columns

_PURITY_MONOTONE_TOL = 1e-10


@dataclass(frozen=True)
class DephasingTrajectory:
    times: np.ndarray
    states: tuple[FockDensityMatrix, ...]
    records: dict[str, list]


def dephase_step(rho: FockDensityMatrix, gamma: float, dt: float) -> FockDensityMatrix:
    """Apply number-basis dephasing for a time dt at rate gamma.

    rho'_{nm} = rho_{nm} exp(-gamma dt (n - m)^2).  Hermiticity, trace and
    positive semidefiniteness are preserved exactly (the map is a Hadamard
    product with a positive semidefinite Gaussian kernel).
    """
    if not gamma >= 0:
        raise ValueError(f"gamma {gamma!r} must be nonnegative")
    if not dt > 0:
        raise ValueError(f"dt {dt!r} must be positive")
    n = np.arange(rho.dim)
    kernel = np.exp(-gamma * dt * (n[:, None] - n[None, :]) ** 2)
    return replace(rho, entries=rho.entries * kernel)


def run_trajectory(
    rho0: FockDensityMatrix,
    gamma: float,
    t_max: float,
    steps: int,
    barrier: BarrierSpec,
    energy: float,
    phi_mode: str = "exact",
) -> DephasingTrajectory:
    """Dephase rho0 over a uniform time grid and track the transparency.

    ``steps`` is the number of time samples; the grid runs from 0 to t_max
    inclusive.  ``records`` is the decohere table: per time, the
    instantaneous purity, correlation, Phi, hbar_eff, ln D, D and the
    product mu^-1 ln D.
    """
    if not gamma >= 0:
        raise ValueError(f"gamma {gamma!r} must be nonnegative")
    if not t_max > 0:
        raise ValueError(f"t_max {t_max!r} must be positive")
    if steps < 2:
        raise ValueError("steps must be >= 2")

    times = np.linspace(0.0, t_max, steps)
    action = transparency(barrier, energy, rho0.hbar).action_integral

    states = []
    mu, r = [], []
    for t in times:
        # Exact exponential stepping: the state at time t follows from rho0
        # in one application, no error accumulation.
        state = rho0 if t == 0.0 else dephase_step(rho0, gamma, float(t))
        m = compute_moments(state)
        states.append(state)
        if mu and m.mu > mu[-1] + _PURITY_MONOTONE_TOL:
            raise InvalidStateError(
                f"purity increased along the trajectory ({mu[-1]} -> {m.mu})"
            )
        mu.append(m.mu)
        r.append(m.r)

    # SecondMoments guarantees |r| < 1.
    wkb = wkb_columns(mu, r, action, rho0.hbar, phi_mode)
    records = {"t": list(map(float, times)), "mu": mu, "r": r, **wkb,
               "inv_mu_ln_D": [ln_d / m for ln_d, m in zip(wkb["ln_D"], mu)]}
    return DephasingTrajectory(times=times, states=tuple(states), records=records)
