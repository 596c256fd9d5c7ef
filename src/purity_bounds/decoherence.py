"""Number-basis dephasing as a concrete purity-lowering process.

The channel multiplies each density-matrix element by
exp(-gamma t (n - m)^2): populations are untouched, coherences decay, the
purity falls monotonically.  This is a modeling choice -- any map that
drains purity would do for the bound -- picked because it has a closed-form
exponential action (no integrator needed) and an exact semigroup property.

``run_trajectory`` tracks (mu, r, Phi, hbar_eff, D) along the decay for a
fixed barrier.  It validates the initial state once (dephasing keeps it
valid); at time t the ladder sums z and w of ``moments`` scale by
exp(-gamma t) and exp(-4 gamma t), and diagonal d of weight S_d adds
S_d exp(-2 gamma t d^2) to the purity, in Python floats on the CLI's time
grid (``io.linear_grid``).  The transparency at each instant is a
quasi-static estimate: it is computed from the instantaneous (r, mu) pair as
if the state were frozen during traversal.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import check_positive
from .io import linear_grid
from .moments import SecondMoments, _diagonal_weights, _fock_purity, _fock_sums
from .moments import _ladder_moments, _require_valid, _warn_if_truncated
from .states import FockDensityMatrix
from .tunneling import BarrierSpec, transparency, wkb_columns


class DephasingTrajectory(NamedTuple):
    times: list[float]
    records: dict[str, list]


def dephase_step(rho: FockDensityMatrix, gamma: float, dt: float) -> FockDensityMatrix:
    """Apply number-basis dephasing for a time dt at rate gamma.

    rho'_{nm} = rho_{nm} exp(-gamma dt (n - m)^2).  Hermiticity, trace and
    positive semidefiniteness are preserved exactly (the map is a Hadamard
    product with a positive semidefinite Gaussian kernel).
    """
    if not 0 <= gamma < math.inf:
        raise ValueError(f"gamma {gamma!r} must be nonnegative and finite")
    check_positive("dt", dt)
    entries = [[x * math.exp(-gamma * dt * (n - m) ** 2) for m, x in enumerate(row)]
               for n, row in enumerate(rho.entries)]
    return rho._replace(entries=entries)


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
    if not 0 <= gamma < math.inf:
        raise ValueError(f"gamma {gamma!r} must be nonnegative and finite")
    check_positive("t_max", t_max)
    if steps < 2:
        raise ValueError("steps must be >= 2")

    times = linear_grid(0.0, t_max, steps, "decohere")
    action = transparency(barrier, energy, rho0.hbar).action_integral

    _require_valid(rho0)
    _warn_if_truncated(rho0)
    z, w, n_sum = _fock_sums(rho0.entries)
    weights = _diagonal_weights(rho0.entries)
    mu, r = [], []
    for t in times:
        gt = gamma * t  # scaled once formed: 4 gamma can overflow where gamma t does not
        moments = _ladder_moments(z * math.exp(-gt), w * math.exp(-4.0 * gt), n_sum,
                                  rho0.hbar, rho0.mass, rho0.omega)
        m = SecondMoments.from_covariance(*moments, _fock_purity(weights, 2.0 * gt))
        mu.append(m.mu)
        r.append(m.r)

    # SecondMoments guarantees |r| < 1.
    wkb = wkb_columns(mu, r, action, rho0.hbar, phi_mode)
    records = {"t": times, "mu": mu, "r": r, **wkb,
               "inv_mu_ln_D": [ln_d / m for ln_d, m in zip(wkb["ln_D"], mu)]}
    return DephasingTrajectory(times=times, records=records)
