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
turning point is that segment cubic's root, found by bisection.  The action
is a fixed Gauss-Legendre rule on each segment under the cosine map x =
(a+b)/2 - (b-a)/2 cos(theta), which turns the square-root zero at a turning
point into a smooth factor; its terms are summed by ``math.fsum`` (no numpy).
Only single-hump barriers are supported: a sampled potential that exceeds E
on more than one interval raises ValueError.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
from array import array
from typing import TYPE_CHECKING, NamedTuple

from .bounds import check_correlation, phi_eval, scale_hbar
from .errors import PositiveFields, ResolutionError, check_positive

if TYPE_CHECKING:
    from .thermal import ThermalModel

# A sampled barrier must put at least this many grid nodes strictly above
# the energy, otherwise the grid cannot resolve the hump.
_MIN_NODES_ABOVE = 3


class _RectangularFields(NamedTuple):
    v0: float
    width: float
    mass: float = 1.0


class RectangularBarrier(PositiveFields, _RectangularFields):
    __slots__ = ()
    shape = "rectangular"


class _ParabolicFields(NamedTuple):
    v0: float
    curvature: float
    mass: float = 1.0


class ParabolicBarrier(PositiveFields, _ParabolicFields):
    """Inverted parabola V(x) = v0 - curvature x^2 / 2."""

    __slots__ = ()
    shape = "parabolic"


class _SampledFields(NamedTuple):
    x: memoryview
    v: memoryview
    mass: float = 1.0


class SampledBarrier(_SampledFields):
    """Potential given on a strictly increasing grid; zero outside the grid.
    ``x`` and ``v`` are kept as read-only float buffers (``memoryview``).
    The constructor, ``_make`` and ``_replace`` all check the grid."""

    __slots__ = ()
    shape = "sampled"

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # Copies: the caller's sequences stay writable and cannot change the barrier.
        x, v = array("d", self.x), array("d", self.v)  # TypeError unless numbers
        if len(x) != len(v):
            raise ValueError("x and v must be equal-length 1-d grids")
        if len(x) < 8:
            raise ValueError("sampled barrier needs at least 8 grid points")
        if not all(map(math.isfinite, x + v)):
            raise ValueError("x and v must be finite")
        if any(b <= a for a, b in zip(x, x[1:])):
            raise ValueError("x grid must be strictly increasing")
        check_positive("mass", self.mass)
        return super().__new__(cls, memoryview(x).toreadonly(), memoryview(v).toreadonly(),
                               self.mass)

    _make = classmethod(lambda cls, fields: cls(*fields))


BarrierSpec = RectangularBarrier | ParabolicBarrier | SampledBarrier


class TransparencyResult(NamedTuple):
    D: float
    ln_D: float
    action_integral: float
    turning_points: tuple[float, float] | None
    hbar_eff_used: float


@functools.cache
def _cosine_rule(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre rule on theta in [0, pi]: cos(theta) and weight *
    sin(theta), so integral f dx over [a, b] is (b-a)/2 times
    sum(weights * f((a+b)/2 - (b-a)/2 cos(theta))).  Each Legendre node u <= 0
    (theta = pi (u + 1) / 2) is Newton's method on P_order from
    -cos(pi (i + 3/4) / (order + 1/2)) until the step stops shrinking, with
    weight 2 / ((1 - u^2) P_order'(u)^2); the nodes u > 0 mirror them."""
    half = []
    for i in range((order + 1) // 2):
        u, step = -math.cos(math.pi * (i + 0.75) / (order + 0.5)), math.inf
        while True:
            p, q = u, 1.0  # P_k(u), P_k-1(u)
            for k in range(1, order):
                p, q = ((2 * k + 1) * u * p - k * q) / (k + 1), p
            slope = order * (u * p - q) / ((u - 1.0) * (u + 1.0))
            if not abs(p / slope) < step:
                break
            step = abs(p / slope)
            u -= p / slope
        theta = 0.5 * math.pi * (u + 1.0)
        weight = 2.0 / ((1.0 - u) * (1.0 + u) * slope * slope)
        half.append((math.cos(theta), 0.5 * math.pi * weight * math.sin(theta)))
    nodes, weights = zip(*half, *((-c, w) for c, w in reversed(half[:order // 2])))
    return nodes, weights


# Nodes of the rule ``action_integral`` uses, built on first use.  16 and 32
# nodes agree to about 1e-15 on tests/golden/inputs/sampled.json.
_RULE_NODES = 16


def action_integral(v, energy: float, mass: float, x1, x2) -> float:
    """Integrate sqrt(2 m (V - E)) over [x1, x2] with the cosine-mapped rule.

    ``v`` maps a position to the potential.  ``x1`` and ``x2`` may also be
    sequences of interval ends; the integrals over the intervals are summed
    (one ``math.fsum`` of every term), and an interval with x2 < x1 adds 0.
    """
    cos_theta, weights = _cosine_rule(_RULE_NODES)
    ends = [(x1, x2)] if isinstance(x1, numbers.Real) else zip(x1, x2)
    terms = []
    for a, b in ends:
        half, mid = 0.5 * max(b - a, 0.0), 0.5 * (a + b)
        terms += (half * w * math.sqrt(2.0 * mass * max(v(mid - half * c) - energy, 0.0))
                  for c, w in zip(cos_theta, weights))
    return math.fsum(terms)


def _pchip_slopes(x, v) -> list[float]:
    """Node slopes of the monotone cubic interpolant (Fritsch-Butland): inside,
    the weighted harmonic mean of the adjacent secants (0 where they differ in
    sign or one is 0); at each end, the one-sided three-point rule, clamped to
    keep the end secant's sign and to 3 times it where the secants change sign.
    """
    sign = lambda s: (s > 0) - (s < 0)
    def end(h0, h1, m0, m1):
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if sign(d) != sign(m0):
            return 0.0
        return 3.0 * m0 if sign(m0) != sign(m1) and abs(d) > 3.0 * abs(m0) else d

    h = [b - a for a, b in zip(x, x[1:])]
    m = [(b - a) / hk for a, b, hk in zip(v, v[1:], h)]
    slopes = [end(h[0], h[1], m[0], m[1])]
    for h0, h1, m0, m1 in zip(h, h[1:], m, m[1:]):
        w1, w2 = 2 * h1 + h0, h1 + 2 * h0
        flat = sign(m0) != sign(m1) or m0 == 0 or m1 == 0
        slopes.append(0.0 if flat else 1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2)))
    return slopes + [end(h[-1], h[-2], m[-1], m[-2])]


def _sampled_action(barrier: SampledBarrier, energy: float):
    """Turning points and action of the one interval where V exceeds E."""
    x, v = barrier.x.tolist(), barrier.v.tolist()
    inside = [k for k, vk in enumerate(v) if vk > energy]
    if len(inside) < _MIN_NODES_ABOVE:
        raise ResolutionError(
            f"only {len(inside)} grid nodes lie above E = {energy}; "
            "the grid is too coarse to resolve the barrier"
        )
    humps = 1 + sum(b - a > 1 for a, b in zip(inside, inside[1:]))
    if humps > 1:
        raise ValueError(f"V > E on {humps} separate intervals; "
                         "only single-hump barriers are supported")
    # (a, b, c, e) of the cubic a t^3 + b t^2 + c t + e on each segment,
    # with t = (x - x_k) / (x_k+1 - x_k) in [0, 1].
    slopes, cubics = _pchip_slopes(x, v), []
    for k in range(len(x) - 1):
        h, dv = x[k + 1] - x[k], v[k + 1] - v[k]
        d0, d1 = h * slopes[k], h * slopes[k + 1]
        cubics.append((d0 + d1 - 2.0 * dv, 3.0 * dv - 2.0 * d0 - d1, d0, v[k]))

    def interpolant(point):
        k = bisect.bisect_left(x, point, 1, len(x) - 1) - 1  # clamped to a segment
        a, b, c, e = cubics[k]
        t = (point - x[k]) / (x[k + 1] - x[k])
        return ((a * t + b) * t + c) * t + e

    def turning_point(k):
        # Segment k is monotone and its end nodes straddle E: bisect to adjacent floats.
        rising, lo, hi = v[k] <= energy, x[k], x[k + 1]
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (lo, mid) if (interpolant(mid) > energy) == rising else (mid, hi)
        return lo

    first, last = inside[0], inside[-1]
    # The potential is zero outside the grid, so a hump that reaches a grid
    # end turns there; the repeated node then adds an empty interval.
    x1 = x[0] if first == 0 else turning_point(first - 1)
    x2 = x[-1] if last == len(x) - 1 else turning_point(last)
    edges = [x1, *x[first:last + 1], x2]
    return (x1, x2), action_integral(interpolant, energy, barrier.mass, edges[:-1], edges[1:])


def transparency(barrier: BarrierSpec, energy: float, hbar_eff: float) -> TransparencyResult:
    """WKB transparency of the barrier at the given energy and hbar_eff.

    Energy at or above the barrier top gives D = 1 with an empty forbidden
    region (no turning points).
    """
    check_positive("energy", energy)
    check_positive("hbar_eff", hbar_eff)

    top = max(barrier.v) if isinstance(barrier, SampledBarrier) else barrier.v0
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
    action = transparency(barrier, energy, check_positive("hbar", hbar)).action_integral
    mu = [float(m) for m in mu_grid]
    return _tunnel_table("mu", list(mu), mu, r, action, hbar, phi_mode,
                         lambda _, m, ln_d: ln_d / m)


def transparency_vs_temperature(
    barrier: BarrierSpec,
    energy: float,
    model: ThermalModel,
    t_grid,
    r: float = 0.0,
    phi_mode: str = "exact",
) -> dict[str, list]:
    """Transparency along a temperature grid as a tunnel table; invariant_product is T ln D.

    hbar is ``model.hbar``.  In "asymptote" mode the full high-temperature
    chain is used: the purity itself is replaced by its asymptote
    hbar omega / (2T) before Phi is evaluated, which makes T ln D exactly
    constant; that purity exceeds 1 below T = hbar omega / 2, a ValueError.
    The other modes use the exact thermal purity.
    """
    from .thermal import thermal_purity

    check_correlation(r)
    action = transparency(barrier, energy, model.hbar).action_integral
    temperatures = [float(T) for T in t_grid]
    if phi_mode == "asymptote":
        half = 0.5 * (model.hbar * model.omega)
        for T in temperatures:
            if not T >= half:
                raise ValueError(f"temperature {T!r} is below hbar omega / 2 = {half!r}, "
                                 "where the asymptote purity hbar omega / (2T) exceeds 1")
        mu = [half / T for T in temperatures]
    else:
        mu = [thermal_purity(model, T) for T in temperatures]
    return _tunnel_table("T", temperatures, mu, r, action, model.hbar, phi_mode,
                         lambda T, _, ln_d: T * ln_d)
