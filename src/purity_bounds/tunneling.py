"""Semiclassical (WKB) barrier transparency with an effective Planck constant.

The transmission probability through a single potential barrier is taken as
the pure exponent

    D = exp(-(2 / hbar_eff) * integral sqrt(2 m (V(x) - E)) dx)

over the classically forbidden region {x : V(x) > E}, with pre-exponential
factor 1.  Replacing hbar by the purity/correlation-dependent hbar_eff is
the whole mechanism studied here: hbar_eff enters only through the exponent
denominator, so ln D * hbar_eff = -2 * action identically.

Rectangular and parabolic barriers use closed-form actions and turning
points; sampled barriers are interpolated with monotone cubics (PCHIP),
turning points located by bisection, and the action integrated with an
adaptive quadrature that substitutes u^2 = x - x_turn near each turning
point to remove the square-root endpoint singularity.  Only single-hump
barriers are supported: if a sampled potential dips below E between the
turning points, the integrand is clamped at zero (resonant structures are
out of scope).

scipy is imported only on the sampled-barrier path (``SampledBarrier``,
``action_integral``), inside the functions that need it, so the closed-form
barriers and the rest of the package load with numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import check_correlation, phi_eval, scale_hbar
from .errors import ResolutionError
from .records import SweepRecord
from .thermal import ThermalModel, thermal_purity

ACTION_ABS_TOL = 1e-10
TURNING_POINT_TOL = 1e-12
# Fraction of the forbidden-region width handled by the square-root
# substitution on each side.
_EDGE_FRACTION = 0.1
# A sampled barrier must put at least this many grid nodes strictly above
# the energy, otherwise the grid cannot resolve the hump.
_MIN_NODES_ABOVE = 3


@dataclass(frozen=True)
class RectangularBarrier:
    v0: float
    width: float
    mass: float = 1.0
    shape = "rectangular"

    def __post_init__(self):
        if self.v0 <= 0 or self.width <= 0 or self.mass <= 0:
            raise ValueError("v0, width and mass must be positive")


@dataclass(frozen=True)
class ParabolicBarrier:
    """Inverted parabola V(x) = v0 - curvature x^2 / 2."""

    v0: float
    curvature: float
    mass: float = 1.0
    shape = "parabolic"

    def __post_init__(self):
        if self.v0 <= 0 or self.curvature <= 0 or self.mass <= 0:
            raise ValueError("v0, curvature and mass must be positive")


@dataclass(frozen=True)
class SampledBarrier:
    """Potential given on a strictly increasing grid; zero outside the grid."""

    x: np.ndarray
    v: np.ndarray
    mass: float = 1.0
    shape = "sampled"

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if x.ndim != 1 or v.ndim != 1 or len(x) != len(v):
            raise ValueError("x and v must be equal-length 1-d grids")
        if len(x) < 8:
            raise ValueError("sampled barrier needs at least 8 grid points")
        if np.any(np.diff(x) <= 0):
            raise ValueError("x grid must be strictly increasing")
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        x.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)


BarrierSpec = RectangularBarrier | ParabolicBarrier | SampledBarrier


@dataclass(frozen=True)
class TransparencyResult:
    D: float
    ln_D: float
    action_integral: float
    turning_points: tuple[float, float] | None
    hbar_eff_used: float


def barrier_max(barrier: BarrierSpec) -> float:
    if isinstance(barrier, (RectangularBarrier, ParabolicBarrier)):
        return barrier.v0
    return float(np.max(barrier.v))


def action_integral(v, energy: float, mass: float, x1: float, x2: float,
                    tol: float = ACTION_ABS_TOL) -> float:
    """Integrate sqrt(2 m (V - E)) over [x1, x2] with endpoint substitutions.

    ``v`` is a callable potential.  The integrand vanishes like a square
    root at each turning point; substituting u^2 = x - x1 (and mirrored on
    the right) over the outer 10% of the interval makes both edge pieces
    smooth, and the interior is handled by plain adaptive quadrature.
    """
    from scipy.integrate import quad

    width = x2 - x1
    if width <= 0:
        return 0.0

    def f(x):
        return math.sqrt(2.0 * mass * max(float(v(x)) - energy, 0.0))

    cut = _EDGE_FRACTION * width
    piece_tol = tol / 3.0

    left, _ = quad(lambda u: 2.0 * u * f(x1 + u * u), 0.0, math.sqrt(cut),
                   epsabs=piece_tol, epsrel=1e-12, limit=200)
    right, _ = quad(lambda u: 2.0 * u * f(x2 - u * u), 0.0, math.sqrt(cut),
                    epsabs=piece_tol, epsrel=1e-12, limit=200)
    interior, _ = quad(f, x1 + cut, x2 - cut,
                       epsabs=piece_tol, epsrel=1e-12, limit=200)
    return left + interior + right


def _bisect_crossing(v, energy: float, lo: float, hi: float) -> float:
    """Root of V(x) - E on [lo, hi] where the sign differs at the ends."""
    flo = float(v(lo)) - energy
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = float(v(mid)) - energy
        if hi - lo <= TURNING_POINT_TOL:
            break
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sampled_forbidden_region(barrier: SampledBarrier, energy: float):
    """Turning points of the hump containing the grid maximum (which exceeds E)."""
    x, v = barrier.x, barrier.v
    above = v > energy
    if int(np.count_nonzero(above)) < _MIN_NODES_ABOVE:
        raise ResolutionError(
            f"only {int(np.count_nonzero(above))} grid nodes lie above E = {energy}; "
            "the grid is too coarse to resolve the barrier"
        )
    from scipy.interpolate import PchipInterpolator

    interp = PchipInterpolator(x, v)
    peak = int(np.argmax(v))

    below_left = np.flatnonzero(~above[: peak + 1])
    if len(below_left) == 0:
        x1 = float(x[0])  # potential is zero outside the grid, so the
        # forbidden region starts right at the grid edge
    else:
        j = int(below_left[-1])
        x1 = _bisect_crossing(interp, energy, float(x[j]), float(x[j + 1]))

    below_right = np.flatnonzero(~above[peak:])
    if len(below_right) == 0:
        x2 = float(x[-1])
    else:
        j = peak + int(below_right[0])
        x2 = _bisect_crossing(interp, energy, float(x[j - 1]), float(x[j]))
    return interp, x1, x2


def transparency(barrier: BarrierSpec, energy: float, hbar_eff: float) -> TransparencyResult:
    """WKB transparency of the barrier at the given energy and hbar_eff.

    Energy at or above the barrier top gives D = 1 with an empty forbidden
    region (no turning points).
    """
    if energy <= 0:
        raise ValueError(f"energy {energy!r} must be positive")
    if hbar_eff <= 0:
        raise ValueError(f"hbar_eff {hbar_eff!r} must be positive")

    if energy >= barrier_max(barrier):
        return TransparencyResult(D=1.0, ln_D=0.0, action_integral=0.0,
                                  turning_points=None, hbar_eff_used=hbar_eff)

    if isinstance(barrier, RectangularBarrier):
        points = (0.0, barrier.width)
        action = barrier.width * math.sqrt(2.0 * barrier.mass * (barrier.v0 - energy))
    elif isinstance(barrier, ParabolicBarrier):
        x_t = math.sqrt(2.0 * (barrier.v0 - energy) / barrier.curvature)
        points = (-x_t, x_t)
        action = math.pi * (barrier.v0 - energy) * math.sqrt(barrier.mass / barrier.curvature)
    else:
        interp, x1, x2 = _sampled_forbidden_region(barrier, energy)
        points = (x1, x2)
        action = action_integral(interp, energy, barrier.mass, x1, x2)

    ln_d = -2.0 * action / hbar_eff
    return TransparencyResult(D=math.exp(ln_d), ln_D=ln_d, action_integral=action,
                              turning_points=points, hbar_eff_used=hbar_eff)


def wkb_record(
    param_name: str,
    param_value: float,
    mu: float,
    r: float,
    action: float,
    hbar: float,
    phi_mode: str,
    mu_asymptote: float | None = None,
) -> SweepRecord:
    """One sweep row: Phi(mu) -> hbar_eff -> ln D = -2 S / hbar_eff -> D.

    The invariant is mu^-1 ln D.  ``r`` must already be checked.
    """
    pv = phi_eval(mu, phi_mode)
    hbar_eff = scale_hbar(hbar, pv.value, r)
    ln_d = -2.0 * action / hbar_eff
    return SweepRecord(
        param_name=param_name,
        param_value=param_value,
        mu=mu,
        phi=pv.value,
        phi_piece=pv.piece,
        hbar_eff=hbar_eff,
        mu_asymptote=mu_asymptote,
        r=r,
        action=action,
        ln_D=ln_d,
        D=math.exp(ln_d),
        invariant_product=ln_d / mu,
    )


def transparency_vs_purity(
    barrier: BarrierSpec,
    energy: float,
    hbar: float,
    r: float,
    mu_grid,
    phi_mode: str = "exact",
) -> list[SweepRecord]:
    """Transparency along a purity grid; records carry mu^-1 ln D."""
    check_correlation(r)
    action = transparency(barrier, energy, hbar).action_integral
    return [wkb_record("mu", mu, mu, r, action, hbar, phi_mode)
            for mu in map(float, np.asarray(mu_grid, dtype=float))]


def transparency_vs_temperature(
    barrier: BarrierSpec,
    energy: float,
    hbar: float,
    model: ThermalModel,
    t_grid,
    r: float = 0.0,
    phi_mode: str = "exact",
) -> list[SweepRecord]:
    """Transparency along a temperature grid; records carry T ln D.

    In "asymptote" mode the full high-temperature chain is used: the purity
    itself is replaced by its asymptote hbar omega / (2T) before Phi is
    evaluated, which makes T ln D exactly constant.  The other modes use the
    exact thermal purity.
    """
    check_correlation(r)
    action = transparency(barrier, energy, hbar).action_integral
    records = []
    for T in map(float, np.asarray(t_grid, dtype=float)):
        mu_asym = model.hbar * model.omega / (2.0 * T)
        mu = mu_asym if phi_mode == "asymptote" else thermal_purity(model, T)
        row = wkb_record("T", T, mu, r, action, hbar, phi_mode, mu_asymptote=mu_asym)
        records.append(replace(row, invariant_product=T * row.ln_D))
    return records
