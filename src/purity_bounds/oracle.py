"""Independent verification of the purity-bound multiplier Phi.

The variance product of a mixture of number states with weights p is
(sum_n p_n (n + 1/2))^2 hbar^2, so minimizing that product at fixed purity
sum_n p_n^2 = mu gives a candidate quantum limit.  The rank-k analytic
minimizer (weights linear in the level index) reproduces the rank-k piece
of Phi; an exact enumeration of the simplex faces and a projected-gradient
solver provide formula-independent cross-checks.  The falsification sweep
guards the diagonal-mixture ansatz itself (the extremum is taken over
diagonal weights, which a dense state could in principle beat): it steps
random pure states onto the bound, one eigen-step on det Sigma each, so a
Phi that is too large fails it, and it must find no state below the bound.

All stochastic paths take an explicit seed and are reproducible bit for
bit for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _rank, phi, phi_eval
from .errors import InfeasibleTargetError, PieceDomainError
from .states import fock_moment_operators

_WEIGHT_TOL = 1e-12

# The hard-assertion region of the bound tolerates at most this much
# negative slack in the falsification sweep.
FALSIFICATION_SLACK_TOL = 1e-8

METHODS = ("auto", "rank2-analytic", "rank3-analytic", "grid-refine", "projected-gradient")


@dataclass(frozen=True)
class MinimizationResult:
    mu_target: float
    achieved_mu: float
    min_product: float
    optimal_weights: np.ndarray
    method: str
    iterations: int


@dataclass(frozen=True)
class FalsificationReport:
    """Smallest slack of the purity bound found; every start is used (``skipped`` is 0)."""

    mu: float
    dim: int
    samples: int
    used: int
    skipped: int
    min_slack: float
    seed: int
    method: str = "gradient-aligned-sampling"


@dataclass(frozen=True)
class PhiCurveRow:
    mu: float
    phi_oracle: float
    phi_exact: float
    phi_app: float
    rel_err_exact: float
    rel_err_app: float
    method: str
    iterations: int


def _objective_coeffs(levels: int) -> np.ndarray:
    return np.arange(levels) + 0.5


def _check_reachable(mu: float, levels: int) -> float:
    if levels < 2:
        raise ValueError("levels must be >= 2")
    if not 0.0 < mu <= 1.0 + 1e-12:
        raise ValueError(f"purity {mu!r} outside (0, 1]")
    mu = min(float(mu), 1.0)
    if mu <= 1.0 / levels:
        raise InfeasibleTargetError(
            f"purity {mu} unreachable with {levels} levels (minimum is 1/{levels})"
        )
    return mu


def linear_ansatz_weights(mu: float, k: int) -> np.ndarray:
    """Weights p_n = a - b n of the rank-k linear minimizer at purity mu.

    Solves sum p = 1, sum p^2 = mu in closed form.  Valid only while every
    weight is nonnegative, i.e. up to the top mu_k of the rank-k window of
    Phi; above it a ``PieceDomainError`` is raised.  On its window the rank-k
    weights win the face enumeration of ``_face_minimizer`` over all supports
    and give the piece Phi_k of ``bounds.phi``.
    """
    if k < 2:
        raise ValueError("rank must be >= 2")
    if mu < 1.0 / k:
        raise PieceDomainError(f"purity {mu} below the rank-{k} floor 1/{k}")
    b = math.sqrt((mu - 1.0 / k) * 12.0 / (k * (k * k - 1.0)))
    a = 1.0 / k + b * (k - 1.0) / 2.0
    p = a - b * np.arange(k)
    if p[-1] < -_WEIGHT_TOL:
        raise PieceDomainError(
            f"rank-{k} linear minimizer has negative weight {p[-1]:.3e} at purity {mu}"
        )
    return np.clip(p, 0.0, None)


def _result(
    mu: float, weights: np.ndarray, hbar: float, method: str, iterations: int
) -> MinimizationResult:
    """Package minimizer weights with their purity and variance product."""
    value = float(np.dot(_objective_coeffs(len(weights)), weights))
    return MinimizationResult(
        mu_target=mu,
        achieved_mu=float(np.sum(weights**2)),
        min_product=value * value * hbar * hbar,
        optimal_weights=weights,
        method=method,
        iterations=iterations,
    )


def _analytic_result(mu: float, k: int, levels: int, hbar: float) -> MinimizationResult:
    full = np.zeros(levels)
    full[:k] = linear_ansatz_weights(mu, k)
    return _result(mu, full, hbar, f"rank{k}-analytic", 0)


def _project_plane_sphere(p: np.ndarray, mu: float) -> np.ndarray:
    """Project onto {sum p = 1, sum p^2 = mu, p >= 0} (active-set on the support)."""
    k = len(p)
    active = np.ones(k, dtype=bool)
    q = p.astype(float).copy()
    for _ in range(k + 1):
        idx = np.flatnonzero(active)
        n_act = len(idx)
        if n_act == 0 or mu < 1.0 / n_act - 1e-15:
            break  # cannot satisfy the sphere on this support; fall through
        sub = q[idx]
        sub = sub + (1.0 - sub.sum()) / n_act
        center = 1.0 / n_act
        d = sub - center
        norm = float(np.linalg.norm(d))
        radius = math.sqrt(max(mu - 1.0 / n_act, 0.0))
        if norm < 1e-300:
            # Ambiguous projection from the sphere center: descend the
            # objective, i.e. move weight toward the lowest levels.
            d = -(np.arange(n_act) - (n_act - 1) / 2.0)
            norm = float(np.linalg.norm(d))
        sub = center + radius * d / norm if radius > 0 else np.full(n_act, center)
        q = np.zeros(k)
        q[idx] = sub
        if sub.min() >= -_WEIGHT_TOL:
            return np.clip(q, 0.0, None)
        active[idx[sub < 0]] = False
    # On the feasible set |q|^2 = mu is fixed, so the nearest feasible q
    # minimizes -p.q: the face enumeration gives the exact projection.
    return _face_minimizer(-p, mu, _all_supports(k))


def _all_supports(n: int) -> np.ndarray:
    """Every nonempty support of n levels, as a (2^n - 1, n) boolean mask."""
    return (np.arange(1, 2**n)[:, None] >> np.arange(n) & 1).astype(bool)


def _face_minimizer(c: np.ndarray, mu: float, masks: np.ndarray) -> np.ndarray:
    """Minimum of c.p on {sum p = 1, sum p^2 = mu, p >= 0}, by enumerating faces.

    The minimum lies inside the face of the simplex given by some support S
    of s levels (one row of ``masks``).  There the Lagrange conditions make
    p_S - 1/s parallel to c_S - mean(c_S), so the only local minimum on the
    face's purity sphere is

        p_S = 1/s - sqrt(mu - 1/s) (c_S - mean c_S) / |c_S - mean c_S|

    (for s = 2, the cheaper of a mirror pair that is feasible together).
    Where c is constant on S every point costs the same, and the level
    index stands in for c.  The minimum is the cheapest candidate with
    nonnegative weights among the given supports: all of them
    (``_all_supports``) for an arbitrary c, the prefixes for an ascending
    one.  ``c`` may carry leading batch axes.  Costs are summed row by row,
    so they do not depend on a row's place in the batch; ties go to the
    first support in mask order.
    """
    c = np.asarray(c)
    n = c.shape[-1]
    size = masks.sum(axis=1)
    # c is flat on S iff it equals its value at the first level of S.
    flat = ~(masks & (c[..., None, :] != c[..., masks.argmax(axis=1), None])).any(axis=-1)
    c = c[..., None, :]
    d = np.where(masks, np.where(flat[..., None], np.arange(n), c), 0.0)
    d = np.where(masks, d - (d.sum(axis=-1) / size)[..., None], 0.0)
    norm = np.sqrt((d * d).sum(axis=-1))
    center = 1.0 / size
    reachable = mu >= center
    radius = np.sqrt(np.where(reachable, mu - center, 0.0))
    scale = np.divide(radius, norm, out=np.zeros(norm.shape), where=norm > 0.0)
    p = np.where(masks, center[:, None] - scale[..., None] * d, 0.0)
    feasible = reachable & (p >= -_WEIGHT_TOL).all(axis=-1)
    cost = np.where(feasible, (p * c).sum(axis=-1), np.inf)
    best = np.argmin(cost, axis=-1)[..., None, None]
    return np.clip(np.take_along_axis(p, best, axis=-2)[..., 0, :], 0.0, None)


def _projected_gradient(mu: float, levels: int, hbar: float) -> MinimizationResult:
    """Gradient steps on the mean level number, projected back to the feasible set.

    The feasible set (purity sphere cut by the simplex) is nonconvex and can
    split into several arcs, so the descent is restarted from one start per
    vertex bias plus a start biased along the descent direction; the best
    endpoint wins.
    """
    c = _objective_coeffs(levels)
    uniform = np.full(levels, 1.0 / levels)
    starts = [_project_plane_sphere(uniform - 0.1 * (c - c.mean()), mu)]
    for j in range(levels):
        seed_point = uniform.copy()
        seed_point[j] += 1.0
        starts.append(_project_plane_sphere(seed_point / seed_point.sum(), mu))

    best_p = None
    best_f = math.inf
    iterations = 0
    for start in starts:
        p = start
        f = float(np.dot(c, p))
        step = 0.5
        while step > 1e-13:
            iterations += 1
            trial = _project_plane_sphere(p - step * c, mu)
            ft = float(np.dot(c, trial))
            if ft < f - 1e-15:
                p, f = trial, ft
            else:
                step *= 0.5
        if f < best_f:
            best_p, best_f = p, f
    return _result(mu, best_p, hbar, "projected-gradient", iterations)


def min_product_fock_mixture(
    mu: float, levels: int, method: str = "auto", hbar: float = 1.0
) -> MinimizationResult:
    """Minimize the variance product over number-state mixtures of fixed purity.

    ``method`` is one of "auto", "rank2-analytic", "rank3-analytic",
    "grid-refine", "projected-gradient".  "auto" is the rank-k analytic
    minimizer of the exact Phi piece at mu, capped at ``levels`` levels.
    "grid-refine" enumerates the faces of the simplex exactly (the name is
    historical); its ``iterations`` is the number of supports, 2^levels - 1.
    """
    mu = _check_reachable(mu, levels)
    if method == "rank2-analytic":
        if mu < 0.5:
            raise PieceDomainError(f"rank-2 minimizer needs purity >= 1/2, got {mu}")
        return _analytic_result(mu, 2, levels, hbar)
    if method == "rank3-analytic":
        if levels < 3:
            raise ValueError("rank-3 minimizer needs at least 3 levels")
        return _analytic_result(mu, 3, levels, hbar)
    if method == "grid-refine":
        if levels > 8:
            raise ValueError(f"grid-refine supports 2..8 levels, got {levels}")
        masks = _all_supports(levels)
        p = _face_minimizer(_objective_coeffs(levels), mu, masks)
        return _result(mu, p, hbar, "grid-refine", len(masks))
    if method == "projected-gradient":
        return _projected_gradient(mu, levels, hbar)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")

    return _analytic_result(mu, min(_rank(mu), levels), levels, hbar)


def _moments(rho: np.ndarray, ops: np.ndarray) -> tuple[np.ndarray, ...]:
    """<q>, <p>, sigma_qq, sigma_pp, sigma_qp of each rho; ops = (q, p, q^2, p^2, (qp+pq)/2)."""
    mq, mp, eq2, ep2, eqp = np.einsum("bij,kji->kb", rho, ops).real
    return mq, mp, eq2 - mq * mq, ep2 - mp * mp, eqp - mq * mp


def falsification_sweep(
    mu: float, dim: int, samples: int, seed: int, hbar: float = 1.0
) -> FalsificationReport:
    """Probe the purity bound from ``samples`` random starts, each stepped onto it.

    Each start is a random pure state (a normalised complex Gaussian
    vector).  At its moments, the gradient of det Sigma with respect to rho is

        G = s_pp (q^2 - 2<q>q) + s_qq (p^2 - 2<p>p) - 2 s_qp ((qp+pq)/2 - <p>q - <q>p),

    a positive quadratic form in q and p.  Up to truncation its eigenvectors
    are Gaussian-unitary images of number states, and a Gaussian unitary
    changes neither det Sigma nor the purity.  The state V diag(w) V^dagger
    whose spectrum w minimizes the ascending eigenvalues of G on the purity
    sphere (``_face_minimizer`` over the prefix supports) is therefore the
    image of a rank-k minimizer of Phi, and its slack lies at the bound.
    The moments are exact: they use the shared operators of
    ``states.fock_moment_operators`` (unit mass and frequency).  Returns the
    minimum of  sigma_qq sigma_pp (1 - r^2) - hbar^2 Phi^2(mu) / 4  found.
    """
    if dim > 8:
        raise ValueError("falsification sweep supports dim <= 8")
    if samples < 1 or samples > 10**6:
        raise ValueError("samples must be in [1, 10^6]")
    mu = _check_reachable(mu, dim)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((samples, dim)) + 1j * rng.standard_normal((samples, dim))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)

    ops = np.array(fock_moment_operators(dim, hbar, 1.0, 1.0))
    mq, mp, sqq, spp, sqp = _moments(np.einsum("bi,bj->bij", psi, psi.conj()), ops)
    # G as coefficients of the five operators (q, p, q^2, p^2, (qp+pq)/2).
    coeffs = np.stack(
        [2.0 * (sqp * mp - spp * mq), 2.0 * (sqp * mq - sqq * mp), spp, sqq, -2.0 * sqp]
    )
    cost, vectors = np.linalg.eigh(np.einsum("kb,kij->bij", coeffs, ops))
    weights = _face_minimizer(cost, mu, np.tri(dim, dtype=bool))
    rho = (vectors * weights[:, None, :]) @ vectors.conj().transpose(0, 2, 1)
    _, _, sqq, spp, sqp = _moments(rho, ops)

    bound = (hbar * phi(mu, "exact") / 2.0) ** 2
    return FalsificationReport(
        mu=mu,
        dim=dim,
        samples=samples,
        used=samples,
        skipped=0,
        min_slack=float(np.min(sqq * spp - sqp**2 - bound)),
        seed=seed,
    )


def phi_curve_certified(
    mu_grid, levels: int, hbar: float = 1.0, method: str = "auto"
) -> list[PhiCurveRow]:
    """Tabulate the minimizer-certified Phi against the formulas on a grid."""
    rows = []
    for mu in np.asarray(mu_grid, dtype=float):
        res = min_product_fock_mixture(float(mu), levels, method=method, hbar=hbar)
        phi_oracle = 2.0 * math.sqrt(res.min_product) / hbar
        exact = phi_eval(float(min(mu, 1.0)), "exact").value
        app = phi_eval(float(min(mu, 1.0)), "interpolation").value
        rows.append(
            PhiCurveRow(
                mu=float(mu),
                phi_oracle=phi_oracle,
                phi_exact=exact,
                phi_app=app,
                rel_err_exact=abs(phi_oracle - exact) / exact,
                rel_err_app=abs(phi_oracle - app) / app,
                method=res.method,
                iterations=res.iterations,
            )
        )
    return rows
