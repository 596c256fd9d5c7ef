"""Reference values written independently of the package under test.

Nothing here imports ``purity_bounds``: every formula is coded from the
physics, so a check against it cannot pass merely because the package
agrees with itself.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Lower edge of the second closed-form piece of Phi.
PIECE2_MIN = 7.0 / 18.0
# The exp(-x^2) barrier at E = 0.5 (m = 1) as quoted in ROADMAP.md; the
# benchmark uses the mpmath value computed at run time and records both.
ROADMAP_GAUSSIAN_ACTION = 1.2489878585695824


class CheckFailure(AssertionError):
    """A program output disagrees with its reference."""


def close(value, ref, rel: float, abs_tol: float = 0.0, what: str = "value") -> None:
    value = float(value)
    ref = float(ref)
    if not abs(value - ref) <= rel * max(abs(value), abs(ref)) + abs_tol:
        raise CheckFailure(f"{what}: got {value!r}, reference {ref!r}")


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# --- Phi -------------------------------------------------------------------

def phi_piece1(mu: float) -> float:
    return 2.0 - math.sqrt(2.0 * mu - 1.0)


def phi_piece2(mu: float) -> float:
    return 3.0 - math.sqrt(8.0 * (mu - 1.0 / 3.0))


def phi_interpolation(mu: float) -> float:
    return (4.0 + math.sqrt(16.0 + 9.0 * mu * mu)) / (9.0 * mu)


def phi_asymptote(mu: float) -> float:
    return 8.0 / (9.0 * mu)


def rank_window_top(k: int) -> float:
    """Largest purity at which the rank-k linear minimizer has no negative weight."""
    return 1.0 / k + (k + 1.0) / (3.0 * k * (k - 1.0))


def phi_rank_k(mu: float, levels: int | None = None) -> float:
    """Phi(mu) from the rank-k piece whose window [mu_{k+1}, mu_k] holds mu.

    Summing the linear weights p_n = a - b n (n < k) at fixed purity gives
    Phi_k(mu) = k - sqrt(k (k^2 - 1) (mu - 1/k) / 3); k = 2 and 3 are the two
    closed-form pieces (Dodonov, J. Opt. B 4, S98, 2002).  With ``levels``
    the rank is capped, which gives the minimum over mixtures of the lowest
    ``levels`` number states.
    """
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"purity {mu!r} outside (0, 1]")
    k = 2
    if levels is None:
        # mu_k ~ 4 / (3 k): start at or just below the window, then step up.
        k = max(2, int(4.0 / (3.0 * mu)) - 2)
        while k > 2 and mu >= rank_window_top(k):
            k -= 1
    while (levels is None or k < levels) and mu < rank_window_top(k + 1):
        k += 1
    return k - math.sqrt(max(k * (k * k - 1.0) * (mu - 1.0 / k) / 3.0, 0.0))


def phi_true(mu: float) -> float:
    """Phi(mu): the closed-form pieces on [7/18, 1], the rank-k pieces below."""
    if mu >= 5.0 / 9.0:
        return phi_piece1(mu)
    if mu >= PIECE2_MIN:
        return phi_piece2(mu)
    return phi_rank_k(mu)


def check_phi(mode: str, mu: float, value: float, rel: float = 1e-12) -> None:
    """Check one Phi value in the given mode.

    Below 7/18 the "exact" mode may be either the interpolation (the flagged
    fallback) or the rank-k piece; both are accepted there.
    """
    if mode == "interpolation":
        close(value, phi_interpolation(mu), rel, what=f"Phi_app({mu})")
    elif mode == "asymptote":
        close(value, phi_asymptote(mu), rel, what=f"Phi_asym({mu})")
    elif mu >= PIECE2_MIN or _is_close(value, phi_rank_k(mu), rel):
        close(value, phi_true(mu), rel, what=f"Phi({mu})")
    else:
        close(value, phi_interpolation(mu), rel, what=f"Phi({mu}) fallback")


def _is_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# --- Oscillator, moments and barriers --------------------------------------

def thermal_purity(T: float, hbar: float = 1.0, omega: float = 1.0) -> float:
    return math.tanh(hbar * omega / (2.0 * T))


def oscillator_z(T: float, hbar: float = 1.0, omega: float = 1.0) -> float:
    x = hbar * omega / (2.0 * T)
    return math.exp(-x) / -math.expm1(-2.0 * x)


def fock_moments(rho: np.ndarray, hbar: float, mass: float, omega: float) -> dict:
    """Quadrature moments of a number-basis density matrix from ladder sums.

    With a = sum sqrt(n) |n-1><n|:  <a> = sum_n sqrt(n) rho[n, n-1],
    <a^2> = sum_n sqrt(n (n-1)) rho[n, n-2] and <a^+ a> = sum_n n rho[n, n].
    These are exact for any state supported on the stored basis.
    """
    n = np.arange(rho.shape[0])
    a1 = complex(np.sum(np.sqrt(n[1:]) * np.diagonal(rho, -1)))
    a2 = complex(np.sum(np.sqrt(n[2:] * (n[2:] - 1)) * np.diagonal(rho, -2)))
    num = float(np.sum(n * np.real(np.diagonal(rho))))
    x0 = math.sqrt(hbar / (2.0 * mass * omega))
    p0 = math.sqrt(hbar * mass * omega / 2.0)
    mean_q = 2.0 * x0 * a1.real
    mean_p = 2.0 * p0 * a1.imag
    sqq = x0 * x0 * (2.0 * a2.real + 2.0 * num + 1.0) - mean_q**2
    spp = p0 * p0 * (2.0 * num + 1.0 - 2.0 * a2.real) - mean_p**2
    sqp = hbar * a2.imag - mean_q * mean_p
    mu = float(np.sum(np.abs(rho) ** 2))
    return {"mean_q": mean_q, "mean_p": mean_p, "sigma_qq": sqq, "sigma_pp": spp,
            "sigma_qp": sqp, "r": sqp / math.sqrt(sqq * spp), "mu": mu}


def rect_action(v0: float, width: float, mass: float, energy: float) -> float:
    return width * math.sqrt(2.0 * mass * (v0 - energy))


def parabolic_action(v0: float, curvature: float, mass: float, energy: float) -> float:
    return math.pi * (v0 - energy) * math.sqrt(mass / curvature)


def gaussian_barrier_unit_action(ratio: float) -> float:
    """Action of V = exp(-x^2) at E = ratio, m = 1, from mpmath at 30 digits.

    A barrier v0 exp(-(x/w)^2) of mass m at E = ratio v0 has the action
    w sqrt(m v0) times this value.
    """
    import mpmath

    with mpmath.workdps(30):
        e = mpmath.mpf(ratio)
        edge = mpmath.sqrt(-mpmath.log(e))
        integral = mpmath.quad(lambda y: mpmath.sqrt(mpmath.exp(-y * y) - e), [-edge, 0, edge])
        return float(mpmath.sqrt(2) * mpmath.re(integral))


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))
