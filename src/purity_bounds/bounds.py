"""Uncertainty bounds for the position-momentum variance product.

Three nested bounds are evaluated for a state with variances sigma_qq,
sigma_pp, covariance sigma_qp, correlation r and purity mu (hbar explicit):

    Heisenberg             sigma_qq sigma_pp             >= hbar^2 / 4
    Schrodinger-Robertson  sigma_qq sigma_pp - sigma_qp^2 >= hbar^2 / 4
                           (equivalently  sigma_qq sigma_pp >= hbar^2 / (4 (1 - r^2)))
    purity-dependent       sigma_qq sigma_pp >= hbar^2 Phi^2(mu) / (4 (1 - r^2))

Phi(mu) >= 1 is the purity-dependent multiplier of the quantum limit; the
whole chain can be read as the Heisenberg relation with an effective Planck
constant hbar_eff = hbar Phi(mu) / sqrt(1 - r^2).  ``evaluate_bounds`` returns
the chain as a ``BoundReport`` whose bounds, slacks and pass flags are keyed
by ``BOUND_NAMES``; the Schrodinger-Robertson and purity bounds are reported in
product form and checked, by ``bound_holds``, in determinant form, with the exact
Phi: the interpolation exceeds Phi in places, so the approximations only tabulate.

Phi is piecewise: the rank-k piece Phi_k(mu) = k - sqrt(k (k^2 - 1) (mu - 1/k) / 3)
holds on [mu_{k+1}, mu_k], mu_k = 1/k + (k + 1) / (3k (k - 1)) (Dodonov,
J. Opt. B 4, S98, 2002).  k = 2 and 3 give 2 - sqrt(2 mu - 1) on [5/9, 1]
and 3 - sqrt(8 (mu - 1/3)) on [7/18, 5/9]; the variant of the latter quoted
with 2/3 inside the root has a negative radicand there.  The ``oracle``
minimizers reproduce every piece (see VERIFICATION.md).
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .errors import DegenerateCorrelationError, check_positive

if TYPE_CHECKING:
    from .moments import SecondMoments

PHI_MODES = ("exact", "interpolation", "asymptote")
# The ``oracle`` minimizers, the default first; defined here so the CLI parser
# can list them without importing ``oracle``.
METHODS = ("grid-refine", "projected-gradient")
# The keys of a ``BoundReport``'s bounds, slacks and flags, weakest bound first.
BOUND_NAMES = ("heisenberg", "schrodinger_robertson", "purity")

# A pass flag tolerates a deficit of a few ulp of sigma_qq sigma_pp: each
# left-hand side is formed from that product, so its rounding scales with it.
PASS_ROUNDING_TOL = 4.0 * sys.float_info.epsilon

_MU_DOMAIN_TOL = 1e-12


class PhiValue(NamedTuple):
    """Resolved Phi evaluation: the value and the piece that produced it."""

    value: float
    piece: str  # rank-k | interpolation | asymptote


def check_purity(mu: float) -> float:
    """mu as a purity in (0, 1]: up to ``_MU_DOMAIN_TOL`` above 1 is rounding and reads as 1."""
    if not 0.0 < mu <= 1.0 + _MU_DOMAIN_TOL:
        raise ValueError(f"purity {mu!r} outside (0, 1]")
    return min(float(mu), 1.0)


def _rank(mu: float) -> int | float:
    """Rank k of the exact piece at mu: mu_{k+1} <= mu < mu_k, or k = 2 on [5/9, 1].

    The floor of the root of mu_k = (4k - 2) / (3k (k - 1)) = mu is off by at
    most one next to an edge, where one comparison with each (correctly
    rounded) edge settles k; inf where the root overflows (mu < ~7.4e-309).
    """
    top = lambda j: (4 * j - 2) / (3 * j * (j - 1))
    root = (3.0 * mu + 4.0 + math.sqrt(9.0 * mu * mu + 16.0)) / (6.0 * mu)
    if root == math.inf:
        return root
    k = max(2, math.floor(root))
    if k > 2 and mu >= top(k):
        k -= 1
    elif mu < top(k + 1):
        k += 1
    return k


def phi_eval(mu: float, mode: str = "exact") -> PhiValue:
    """Evaluate Phi(mu) in the requested mode.

    Modes:
      exact          the rank-k piece whose window holds mu, named "rank-k"
      interpolation  Phi_app(mu) = (4 + sqrt(16 + 9 mu^2)) / (9 mu)
      asymptote      8 / (9 mu), valid only for mu << 1
    """
    mu = check_purity(mu)
    if mode == "exact":
        k = _rank(mu)
        if k == math.inf:  # Phi exceeds 1.2e308 there
            return PhiValue(k, "rank-inf")
        # k (k^2 - 1) / 3 is scaled by s^-3 and mu - 1/k by s, s the power of
        # two at or below k: no step overflows, and the scaling is exact, so
        # ranks 2 and 3 give the bits of 2 - sqrt(2 mu - 1), 3 - sqrt(8 (mu - 1/3)).
        s = 2.0 ** (math.frexp(k)[1] - 1)
        u = k / s
        root = s * math.sqrt(u * (u * u - 1.0 / (s * s)) / 3.0 * (s * (mu - 1.0 / k)))
        return PhiValue(k - root, f"rank-{k:.17g}")
    if mode == "interpolation":
        return PhiValue((4.0 + math.sqrt(16.0 + 9.0 * mu * mu)) / (9.0 * mu), "interpolation")
    if mode == "asymptote":
        return PhiValue(8.0 / (9.0 * mu), "asymptote")
    raise ValueError(f"unknown phi mode {mode!r}; expected one of {PHI_MODES}")


def phi(mu: float, mode: str = "exact") -> float:
    """Purity-dependent bound multiplier Phi(mu) >= 1 (scalar value only)."""
    return phi_eval(mu, mode).value


def covariance_det(sigma_qq: float, sigma_pp: float, sigma_qp: float) -> tuple[float, float]:
    """(sigma_qq sigma_pp, det Sigma): the one place both are formed, so validation and
    every flag read the same bits.  With * (not **) an overflow is inf, not an OverflowError."""
    product = sigma_qq * sigma_pp
    return product, product - sigma_qp * sigma_qp


def bound_holds(lhs: float, rhs: float, product: float) -> bool:
    """Whether lhs >= rhs, forgiving a deficit of ``PASS_ROUNDING_TOL`` of ``product``,
    the variance product sigma_qq sigma_pp that lhs was formed from."""
    return lhs >= rhs - PASS_ROUNDING_TOL * product


def check_correlation(r: float) -> None:
    """Reject a degenerate correlation coefficient, |r| >= 1, and NaN."""
    if not abs(r) < 1.0:
        raise DegenerateCorrelationError(f"|r| = {abs(r)!r} must be < 1")


def scale_hbar(hbar: float, phi_value: float, r: float) -> float:
    """hbar Phi / sqrt(1 - r^2) for an already evaluated Phi; callers check r."""
    return hbar * phi_value / math.sqrt(1.0 - r * r)


def effective_hbar(hbar: float, r: float, mu: float, phi_mode: str = "exact") -> float:
    """Effective Planck constant hbar Phi(mu) / sqrt(1 - r^2).

    Reduces to hbar / sqrt(1 - r^2) for pure states and to plain hbar for
    uncorrelated pure states.
    """
    check_positive("hbar", hbar)
    check_correlation(r)
    return scale_hbar(hbar, phi(mu, phi_mode), r)


class BoundReport(NamedTuple):
    """The three bounds of one set of moments, in the layout ``check`` prints.

    ``bounds``, ``slacks`` and ``flags`` are keyed by ``BOUND_NAMES``: the
    right-hand side of each bound, lhs - rhs of the inequality checked, and
    whether it holds (see ``evaluate_bounds``).
    """

    bounds: dict[str, float]
    product: float
    sr_lhs: float
    hbar_eff: float
    phi: PhiValue
    slacks: dict[str, float]
    flags: dict[str, bool]


def evaluate_bounds(m: SecondMoments, hbar: float) -> BoundReport:
    """The Heisenberg, Schrodinger-Robertson and purity bounds of ``m``, with the exact Phi.

    The Schrodinger-Robertson and purity bounds are reported over 1 - r^2 but
    checked with det Sigma against hbar^2 / 4 and hbar^2 Phi^2 / 4, by
    ``bound_holds``: no rounding of 1 - r^2 enters a flag, and a state that
    saturates a bound (the vacuum) is not failed by rounding.  hbar^2/4 below the
    smallest normal float is a ValueError: bounds that round to 0 would pass
    failing states.
    """
    product, sr_lhs = covariance_det(*m[2:5])
    check_positive("hbar", hbar)
    check_correlation(m.r)
    pv = phi_eval(m.mu)
    # Halved before squaring: (hbar / 2)^2 and (hbar Phi / 2)^2 overflow only with the bound.
    half = hbar / 2.0
    quarter = half * half
    if quarter < sys.float_info.min:
        raise ValueError(f"hbar {hbar!r} is too small: hbar^2/4 = {quarter!r} underflows")
    one_minus_r2 = 1.0 - m.r * m.r
    square = (half * pv.value) * (half * pv.value)
    purity_bound = square / one_minus_r2
    checked = ((product, quarter), (sr_lhs, quarter), (sr_lhs, square))
    return BoundReport(
        bounds=dict(zip(BOUND_NAMES, (quarter, quarter / one_minus_r2, purity_bound))),
        product=product,
        sr_lhs=sr_lhs,
        hbar_eff=scale_hbar(hbar, pv.value, m.r),
        phi=pv,
        slacks=dict(zip(BOUND_NAMES,
                        (product - quarter, sr_lhs - quarter, product - purity_bound))),
        flags={name: bound_holds(*pair, product) for name, pair in zip(BOUND_NAMES, checked)},
    )
