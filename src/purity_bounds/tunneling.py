"""Semiclassical (WKB) barrier transparency with an effective Planck constant.

The transmission probability through a single potential barrier is taken as
the pure exponent

    D = exp(-(2 / hbar_eff) * integral sqrt(2 m (V(x) - E)) dx)

over the classically forbidden region {x : V(x) > E}, with pre-exponential
factor 1.  Replacing hbar by the purity/correlation-dependent hbar_eff is
the whole mechanism studied here: hbar_eff enters only through the exponent
denominator, so ln D * hbar_eff = -2 * action identically.

Rectangular and parabolic barriers use closed-form actions and turning
points.  Sampled barriers are interpolated with monotone cubics (PCHIP), so
V - E changes sign only on a segment whose end nodes straddle E, and the
turning point is that segment cubic's root.  The action is a fixed
Gauss-Legendre rule on each segment under the cosine map x = (a+b)/2 -
(b-a)/2 cos(theta), which turns the square-root zero at a turning point into
a smooth factor.  Only single-hump barriers are supported: a sampled
potential that exceeds E on more than one interval raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import check_correlation, phi_eval, scale_hbar
from .errors import ResolutionError
from .thermal import ThermalModel, thermal_purity

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
        if not all(0 < f < math.inf for f in (self.v0, self.width, self.mass)):
            raise ValueError("v0, width and mass must be positive and finite")


@dataclass(frozen=True)
class ParabolicBarrier:
    """Inverted parabola V(x) = v0 - curvature x^2 / 2."""

    v0: float
    curvature: float
    mass: float = 1.0
    shape = "parabolic"

    def __post_init__(self):
        if not all(0 < f < math.inf for f in (self.v0, self.curvature, self.mass)):
            raise ValueError("v0, curvature and mass must be positive and finite")


@dataclass(frozen=True)
class SampledBarrier:
    """Potential given on a strictly increasing grid; zero outside the grid."""

    x: np.ndarray
    v: np.ndarray
    mass: float = 1.0
    shape = "sampled"

    def __post_init__(self):
        # Copies: the caller's arrays stay writable and cannot change the barrier.
        x = np.array(self.x, dtype=float)
        v = np.array(self.v, dtype=float)
        if x.ndim != 1 or v.ndim != 1 or len(x) != len(v):
            raise ValueError("x and v must be equal-length 1-d grids")
        if len(x) < 8:
            raise ValueError("sampled barrier needs at least 8 grid points")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise ValueError("x and v must be finite")
        if np.any(np.diff(x) <= 0):
            raise ValueError("x grid must be strictly increasing")
        if not 0 < self.mass < math.inf:
            raise ValueError("mass must be positive and finite")
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


def _cosine_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule (Golub-Welsch) on theta in [0, pi]: cos(theta) and
    weight * sin(theta), so integral f dx over [a, b] is (b-a)/2 times
    sum(weights * f((a+b)/2 - (b-a)/2 cos(theta)))."""
    k = np.arange(1.0, order)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    theta = 0.5 * np.pi * (nodes + 1.0)
    return np.cos(theta), np.pi * vectors[0] ** 2 * np.sin(theta)


# 16 and 32 nodes agree to about 1e-15 on tests/golden/inputs/sampled.json.
_RULE = _cosine_rule(16)


def action_integral(v, energy: float, mass: float, x1, x2) -> float:
    """Integrate sqrt(2 m (V - E)) over [x1, x2] with the cosine-mapped rule.

    ``v`` maps an array of positions to potentials.  ``x1`` and ``x2`` may
    also be arrays of interval ends; the integrals over the intervals are
    summed, and an interval with x2 < x1 adds 0.
    """
    cos_theta, weights = _RULE
    half = 0.5 * np.maximum(np.subtract(x2, x1), 0.0)[..., None]
    points = 0.5 * np.add(x1, x2)[..., None] - half * cos_theta
    f = np.sqrt(2.0 * mass * np.maximum(v(points) - energy, 0.0))
    return float(np.sum(half * weights * f))


def _pchip_slopes(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Node slopes of the monotone cubic interpolant (Fritsch-Butland): inside,
    the weighted harmonic mean of the adjacent secants (0 where they differ in
    sign or one is 0); at each end, the one-sided three-point rule, clamped to
    keep the end secant's sign and to 3 times it where the secants change sign.
    """
    h = np.diff(x)
    m = np.diff(v) / h
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    ends = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(ends) > 3.0 * np.abs(m0))
    ends = np.where(np.sign(ends) != np.sign(m0), 0.0, np.where(overshoot, 3.0 * m0, ends))
    return np.concatenate(([ends[0]], inner, [ends[1]]))


def _sampled_action(barrier: SampledBarrier, energy: float):
    """Turning points and action of the one interval where V exceeds E."""
    x, v = barrier.x, barrier.v
    inside = np.flatnonzero(v > energy)
    if len(inside) < _MIN_NODES_ABOVE:
        raise ResolutionError(
            f"only {len(inside)} grid nodes lie above E = {energy}; "
            "the grid is too coarse to resolve the barrier"
        )
    humps = 1 + int(np.count_nonzero(np.diff(inside) > 1))
    if humps > 1:
        raise ValueError(f"V > E on {humps} separate intervals; "
                         "only single-hump barriers are supported")
    # Rows a, b, c, e of the cubic a t^3 + b t^2 + c t + e on each segment,
    # with t = (x - x_k) / (x_k+1 - x_k) in [0, 1].
    h, dv, slopes = np.diff(x), np.diff(v), _pchip_slopes(x, v)
    d0, d1 = h * slopes[:-1], h * slopes[1:]
    cubics = np.stack([d0 + d1 - 2.0 * dv, 3.0 * dv - 2.0 * d0 - d1, d0, v[:-1]])

    def turning_point(k):
        # Segment k is monotone and its end nodes straddle E: take the root
        # of its cubic minus E nearest to t in [0, 1].
        roots = np.roots(cubics[:, k] - [0.0, 0.0, 0.0, energy])
        t = np.clip(roots.real, 0.0, 1.0)
        return float(x[k] + t[np.argmin(np.abs(roots - t))] * h[k])

    def interpolant(points):
        k = np.clip(np.searchsorted(x, points) - 1, 0, len(x) - 2)
        t = (points - x[k]) / h[k]
        a, b, c, e = cubics[:, k]
        return ((a * t + b) * t + c) * t + e

    first, last = int(inside[0]), int(inside[-1])
    # The potential is zero outside the grid, so a hump that reaches a grid
    # end turns there; the repeated node then adds an empty interval.
    x1 = float(x[0]) if first == 0 else turning_point(first - 1)
    x2 = float(x[-1]) if last == len(x) - 1 else turning_point(last)
    edges = np.concatenate(([x1], x[first:last + 1], [x2]))
    return (x1, x2), action_integral(interpolant, energy, barrier.mass, edges[:-1], edges[1:])


def transparency(barrier: BarrierSpec, energy: float, hbar_eff: float) -> TransparencyResult:
    """WKB transparency of the barrier at the given energy and hbar_eff.

    Energy at or above the barrier top gives D = 1 with an empty forbidden
    region (no turning points).
    """
    if not energy > 0:
        raise ValueError(f"energy {energy!r} must be positive")
    if not hbar_eff > 0:
        raise ValueError(f"hbar_eff {hbar_eff!r} must be positive")

    top = float(np.max(barrier.v)) if isinstance(barrier, SampledBarrier) else barrier.v0
    if energy >= top:
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
        points, action = _sampled_action(barrier, energy)

    ln_d = -2.0 * action / hbar_eff
    return TransparencyResult(D=math.exp(ln_d), ln_D=ln_d, action_integral=action,
                              turning_points=points, hbar_eff_used=hbar_eff)


def wkb_columns(mu, r, action: float, hbar: float, phi_mode: str) -> dict[str, list]:
    """The phi, hbar_eff, ln_D and D columns of a sweep, one row per entry of
    ``mu`` and ``r``: Phi(mu) -> hbar_eff -> ln D = -2 S / hbar_eff -> D.

    ``r`` must already be checked.
    """
    phi = [phi_eval(m, phi_mode).value for m in mu]
    hbar_eff = [scale_hbar(hbar, p, c) for p, c in zip(phi, r)]
    ln_d = [-2.0 * action / h for h in hbar_eff]
    return {"phi": phi, "hbar_eff": hbar_eff, "ln_D": ln_d, "D": [math.exp(x) for x in ln_d]}


def _tunnel_table(param_name: str, values: list, mu: list, r: float, action: float,
                  hbar: float, phi_mode: str, invariant) -> dict[str, list]:
    """The tunnel CSV table; ``invariant(value, mu, ln_D)`` gives invariant_product."""
    wkb = wkb_columns(mu, [r] * len(mu), action, hbar, phi_mode)
    return {
        "param_name": [param_name] * len(mu),
        "param_value": values,
        "mu": mu,
        "phi": wkb["phi"],
        "hbar_eff": wkb["hbar_eff"],
        "action": [action] * len(mu),
        "ln_D": wkb["ln_D"],
        "D": wkb["D"],
        "invariant_product": list(map(invariant, values, mu, wkb["ln_D"])),
    }


def transparency_vs_purity(
    barrier: BarrierSpec,
    energy: float,
    hbar: float,
    r: float,
    mu_grid,
    phi_mode: str = "exact",
) -> dict[str, list]:
    """Transparency along a purity grid as a tunnel table; invariant_product is mu^-1 ln D."""
    check_correlation(r)
    action = transparency(barrier, energy, hbar).action_integral
    mu = list(map(float, np.asarray(mu_grid, dtype=float)))
    return _tunnel_table("mu", list(mu), mu, r, action, hbar, phi_mode,
                         lambda _, m, ln_d: ln_d / m)


def transparency_vs_temperature(
    barrier: BarrierSpec,
    energy: float,
    hbar: float,
    model: ThermalModel,
    t_grid,
    r: float = 0.0,
    phi_mode: str = "exact",
) -> dict[str, list]:
    """Transparency along a temperature grid as a tunnel table; invariant_product is T ln D.

    In "asymptote" mode the full high-temperature chain is used: the purity
    itself is replaced by its asymptote hbar omega / (2T) before Phi is
    evaluated, which makes T ln D exactly constant.  The other modes use the
    exact thermal purity.
    """
    check_correlation(r)
    action = transparency(barrier, energy, hbar).action_integral
    temperatures = list(map(float, np.asarray(t_grid, dtype=float)))
    if phi_mode == "asymptote":
        mu = [model.hbar * model.omega / (2.0 * T) for T in temperatures]
    else:
        mu = [thermal_purity(model, T) for T in temperatures]
    return _tunnel_table("T", temperatures, mu, r, action, hbar, phi_mode,
                         lambda T, _, ln_d: T * ln_d)
