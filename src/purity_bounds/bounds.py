"""Uncertainty bounds for the position-momentum variance product.

Three nested bounds are evaluated for a state with variances sigma_qq,
sigma_pp, covariance sigma_qp, correlation r and purity mu (hbar explicit):

    Heisenberg             sigma_qq sigma_pp             >= hbar^2 / 4
    Schrodinger-Robertson  sigma_qq sigma_pp - sigma_qp^2 >= hbar^2 / 4
                           (equivalently  sigma_qq sigma_pp >= hbar^2 / (4 (1 - r^2)))
    purity-dependent       sigma_qq sigma_pp >= hbar^2 Phi^2(mu) / (4 (1 - r^2))

Phi(mu) >= 1 is the purity-dependent multiplier of the quantum limit; the
whole chain can be read as the Heisenberg relation with an effective Planck
constant hbar_eff = hbar Phi(mu) / sqrt(1 - r^2).

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
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCorrelationError
from .moments import SecondMoments

PHI_MODES = ("exact", "interpolation", "asymptote")

# A pass flag tolerates a deficit of a few ulp of the bound: the moments of a
# state that saturates a bound carry that much rounding.
PASS_ROUNDING_TOL = 4.0 * sys.float_info.epsilon

_MU_DOMAIN_TOL = 1e-12


@dataclass(frozen=True)
class PhiValue:
    """Resolved Phi evaluation: the value and the piece that produced it."""

    value: float
    piece: str  # rank-k | interpolation | asymptote


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
    if not mu > 0.0 or mu > 1.0 + _MU_DOMAIN_TOL:
        raise ValueError(f"purity {mu!r} outside (0, 1]")
    mu = min(float(mu), 1.0)
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
    if not hbar > 0:
        raise ValueError(f"hbar {hbar!r} must be positive")
    check_correlation(r)
    return scale_hbar(hbar, phi(mu, phi_mode), r)


@dataclass(frozen=True)
class MomentMatrixA:
    """Hermitian 2x2 matrix [[sigma_qq, sigma_qp + i hbar/2], [c.c., sigma_pp]].

    The state is physical iff both eigenvalues are nonnegative, which is the
    matrix form of the Schrodinger-Robertson relation.
    """

    matrix: np.ndarray
    eigenvalues: tuple[float, float]

    def is_physical(self, tol: float = 1e-10) -> bool:
        return self.eigenvalues[0] >= -tol


def moment_matrix(m: SecondMoments, hbar: float) -> MomentMatrixA:
    """Build the moment matrix of the nonnegativity quadratic form."""
    a = np.array(
        [
            [m.sigma_qq, m.sigma_qp + 0.5j * hbar],
            [m.sigma_qp - 0.5j * hbar, m.sigma_pp],
        ],
        dtype=complex,
    )
    half_tr = 0.5 * (m.sigma_qq + m.sigma_pp)
    # Closed form for a 2x2 Hermitian matrix.
    radius = math.sqrt((0.5 * (m.sigma_qq - m.sigma_pp)) ** 2 + m.sigma_qp**2 + 0.25 * hbar**2)
    return MomentMatrixA(matrix=a, eigenvalues=(half_tr - radius, half_tr + radius))


@dataclass(frozen=True)
class BoundReport:
    """All three bounds, their slacks and pass flags for one set of moments."""

    heisenberg_bound: float
    sr_bound: float
    purity_bound: float
    product: float
    sr_lhs: float
    hbar_eff: float
    phi_value: float
    phi_piece: str
    heisenberg_slack: float
    sr_slack: float
    purity_slack: float
    heisenberg_pass: bool
    sr_pass: bool
    purity_pass: bool


def evaluate_bounds(m: SecondMoments, hbar: float, phi_mode: str = "exact") -> BoundReport:
    """Evaluate the Heisenberg, Schrodinger-Robertson and purity bounds of ``m``."""
    product = m.sigma_qq * m.sigma_pp
    return bound_report(product, product - m.sigma_qp**2, hbar, m.r, m.mu, phi_mode)


def bound_report(
    product: float, sr_lhs: float, hbar: float, r: float, mu: float, phi_mode: str = "exact"
) -> BoundReport:
    """All three bounds at (hbar, r, mu), checked against a variance product.

    ``product`` is sigma_qq sigma_pp and ``sr_lhs`` is sigma_qq sigma_pp -
    sigma_qp^2.  Slacks are reported as lhs - rhs of each inequality.  A
    flag passes when the deficit is at most ``PASS_ROUNDING_TOL`` of the
    bound, so a state that saturates a bound (the vacuum) is not failed by
    rounding.  A NaN product (moments unknown) gives ``None`` flags.
    """
    if not hbar > 0:
        raise ValueError(f"hbar {hbar!r} must be positive")
    check_correlation(r)
    pv = phi_eval(mu, phi_mode)
    quarter = hbar**2 / 4.0
    one_minus_r2 = 1.0 - r * r
    sr_bound = quarter / one_minus_r2
    purity_bound = quarter * pv.value**2 / one_minus_r2

    def passes(lhs, bound):
        return None if math.isnan(lhs) else lhs >= bound - PASS_ROUNDING_TOL * bound

    return BoundReport(
        heisenberg_bound=quarter,
        sr_bound=sr_bound,
        purity_bound=purity_bound,
        product=product,
        sr_lhs=sr_lhs,
        hbar_eff=scale_hbar(hbar, pv.value, r),
        phi_value=pv.value,
        phi_piece=pv.piece,
        heisenberg_slack=product - quarter,
        sr_slack=sr_lhs - quarter,
        purity_slack=product - purity_bound,
        heisenberg_pass=passes(product, quarter),
        sr_pass=passes(sr_lhs, quarter),
        purity_pass=passes(product, purity_bound),
    )
