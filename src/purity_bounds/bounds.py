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
with 2/3 inside the root has a negative radicand there.  The exact Phi is
evaluated in integers from mu = a / b and correctly rounded; it overflows only
below mu ~ 4.95e-309.  The ``oracle`` minimizers reproduce every piece (see
VERIFICATION.md).
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


def _rank(mu: float) -> int:
    """Rank k of the exact piece at mu: the largest k >= 2 with mu < mu_k, which for
    mu = a / b reads 3 a k (k - 1) < (4k - 2) b.  ``isqrt`` gives the floor of that
    quadratic's larger root exactly, one too many only where the root is an integer."""
    a, b = mu.as_integer_ratio()
    k = (3 * a + 4 * b + math.isqrt(9 * a * a + 16 * b * b)) // (6 * a)
    return max(2, k if 3 * a * k * (k - 1) < (4 * k - 2) * b else k - 1)


def _ratio(num: int, den: int) -> float:
    """num / den correctly rounded (Python's int true division), inf past the largest double."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def phi_eval(mu: float, mode: str = "exact") -> PhiValue:
    """Evaluate Phi(mu) in the requested mode.

    Modes:
      exact          the rank-k piece whose window holds mu, correctly rounded, named "rank-k"
      interpolation  Phi_app(mu) = (4 + sqrt(16 + 9 mu^2)) / (9 mu)
      asymptote      8 / (9 mu), valid only for mu << 1
    """
    mu = check_purity(mu)
    if mode == "exact":
        # With mu = a / b, 3b 2^P Phi_k = 3bk 2^P - sqrt(3b (k^2 - 1)(ak - b) 4^P), and
        # isqrt puts the root within 1: where both ends of that unit interval round
        # to one double, it is Phi rounded; else P doubles (Ziv's test).
        k, (a, b), p = _rank(mu), mu.as_integer_ratio(), 64
        while True:
            den = 3 * b << p
            radicand = 3 * b * (k * k - 1) * (a * k - b) << 2 * p
            root = math.isqrt(radicand)
            top = den * k - root  # Phi * den is in (top - 1, top], at top if the root is exact
            value = _ratio(top - (root * root < radicand), den)
            if value == _ratio(top, den):
                break
            p *= 2
        if k >= 10**17:  # k to 17 significant digits, as %.17g formats a float
            d = str(round(k, 17 - len(str(k))))
            return PhiValue(value, f"rank-{d[0]}{f'.{d[1:17]}'.rstrip('0.')}e+{len(d) - 1}")
        return PhiValue(value, f"rank-{k}")
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
