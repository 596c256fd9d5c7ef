"""Independent verification of the purity-bound multiplier Phi.

The variance product of a mixture of number states with weights p is
(sum_n p_n (n + 1/2))^2 hbar^2, so minimizing that product at fixed purity
sum_n p_n^2 = mu gives a candidate quantum limit.  The analytic minimizers
over 2 and 3 levels reproduce the two pieces of Phi; a grid search and a
projected-gradient solver provide formula-independent cross-checks, and a
random-density-matrix sweep guards the diagonal-mixture ansatz itself (the
extremum is taken over diagonal weights, which a dense random state could
in principle beat -- the sweep looks for such a violation and must find
none).

All stochastic paths take an explicit seed and are reproducible bit for
bit for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import PHI_PIECE2_MIN, phi, phi_eval
from .errors import InfeasibleTargetError, PieceDomainError
from .states import fock_moment_operators
from .thermal import _logsumexp

_WEIGHT_TOL = 1e-12
_PURITY_NEWTON_TOL = 1e-12
_PURITY_NEWTON_MAX_ITER = 100

# The hard-assertion region of the bound tolerates at most this much
# negative slack in the falsification sweep.
FALSIFICATION_SLACK_TOL = 1e-8

# Base simplex-grid resolution (in probability units) per number of levels.
# 1e-3 is affordable through 3 levels; the local refinement rounds supply
# the final accuracy regardless of the base resolution.
_GRID_BASE_RESOLUTION = {2: 1e-3, 3: 1e-3, 4: 0.02, 5: 0.04, 6: 0.05, 7: 1 / 15, 8: 1 / 12}

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
    """Worst-case slack of the purity bound over random density matrices."""

    mu: float
    dim: int
    samples: int
    used: int
    skipped: int
    min_slack: float
    seed: int
    method: str = "random-density-sampling"


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
    weight is nonnegative (which bounds mu from above piece by piece);
    outside that window a ``PieceDomainError`` is raised.  Ranks 2 and 3 are
    the two analytic pieces of Phi; higher ranks are a documented extension
    verified against the grid search in the test suite.
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
    # Fallback: clamp, renormalize, then hit the purity sphere with the
    # power-family scaling (always lands in the feasible set).
    q = np.clip(p, 1e-12, None)
    q = q / q.sum()
    t, _ = _power_projection(q[None, :], mu)
    return _apply_power(q[None, :], t)[0]


def _apply_power(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    logp = np.log(np.clip(p, 1e-300, None))
    w = t[:, None] * logp
    w = w - w.max(axis=1, keepdims=True)
    e = np.exp(w)
    return e / e.sum(axis=1, keepdims=True)


def _purity_of_power(logp: np.ndarray, t: np.ndarray) -> np.ndarray:
    a1 = _logsumexp(t[:, None] * logp, axis=1)
    a2 = _logsumexp(2.0 * t[:, None] * logp, axis=1)
    return np.exp(a2 - 2.0 * a1)


def _power_projection(p: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Scaling exponent t so that the purity of p^t / sum(p^t) equals mu.

    The purity is monotone increasing in t, so a bracketed Newton iteration
    (bisection fallback whenever the Newton step leaves the bracket) is
    safe.  Returns (t, converged); vectorized over the sample axis.
    """
    logp = np.log(np.clip(p, 1e-300, None))
    n = len(p)
    lo = np.zeros(n)
    hi = np.ones(n)
    for _ in range(80):
        too_low = _purity_of_power(logp, hi) < mu
        if not too_low.any():
            break
        hi = np.where(too_low, hi * 2.0, hi)

    t = 0.5 * (lo + hi)
    converged = np.zeros(n, dtype=bool)
    for _ in range(_PURITY_NEWTON_MAX_ITER):
        a1 = _logsumexp(t[:, None] * logp, axis=1)
        a2 = _logsumexp(2.0 * t[:, None] * logp, axis=1)
        value = np.exp(a2 - 2.0 * a1)
        g = value - mu
        converged = np.abs(g) <= _PURITY_NEWTON_TOL
        if converged.all():
            break
        lo = np.where(g < 0, t, lo)
        hi = np.where(g > 0, t, hi)
        w1 = np.exp(t[:, None] * logp - a1[:, None])
        w2 = np.exp(2.0 * t[:, None] * logp - a2[:, None])
        m1 = (w1 * logp).sum(axis=1)
        m2 = (w2 * logp).sum(axis=1)
        dg = value * 2.0 * (m2 - m1)
        newton = t - g / np.where(np.abs(dg) > 1e-300, dg, 1.0)
        inside = (newton > lo) & (newton < hi) & np.isfinite(newton) & (np.abs(dg) > 1e-300)
        t = np.where(converged, t, np.where(inside, newton, 0.5 * (lo + hi)))
    return t, converged


def _project_batch(points: np.ndarray, mu: float) -> np.ndarray:
    """Project rows onto {sum p = 1, sum p^2 = mu}; rows that land outside
    the simplex come back as NaN."""
    k = points.shape[1]
    center = 1.0 / k
    radius = math.sqrt(max(mu - center, 0.0))
    q = points + (1.0 - points.sum(axis=1, keepdims=True)) / k
    d = q - center
    norm = np.linalg.norm(d, axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        proj = center + radius * d / norm
    bad = (norm[:, 0] < 1e-300) | (proj.min(axis=1) < -_WEIGHT_TOL)
    proj[bad] = np.nan
    return proj


def _best_projected(points: np.ndarray, mu: float, c: np.ndarray):
    """Best feasible projection of the candidate rows, or None."""
    if len(points) == 0:
        return None, 0
    proj = _project_batch(points, mu)
    values = proj @ c
    if np.all(np.isnan(values)):
        return None, len(points)
    idx = int(np.nanargmin(values))
    return np.clip(proj[idx], 0.0, None), len(points)


def _grid_refine(mu: float, levels: int, hbar: float) -> MinimizationResult:
    """Exhaustive simplex grid projected onto the purity sphere, then local shrink.

    Every candidate is evaluated after exact projection onto the
    {sum p = 1, sum p^2 = mu} manifold, so the search optimizes over the
    feasible set itself; shrinking local grids then refine the winner.
    """
    c = _objective_coeffs(levels)
    resolution = _GRID_BASE_RESOLUTION.get(levels)
    if resolution is None:
        raise ValueError(f"grid-refine supports 2..8 levels, got {levels}")
    evaluations = 0

    best, n_eval = _best_projected(_simplex_grid(levels, resolution), mu, c)
    evaluations += n_eval
    if best is None:
        raise InfeasibleTargetError(f"no grid point projects to purity {mu} with {levels} levels")

    h = resolution
    offsets = _local_offsets(levels - 1)
    while h > 1e-9:
        h *= 0.25
        trial = best[1:][None, :] + h * offsets
        full = np.empty((len(trial), levels))
        full[:, 1:] = trial
        full[:, 0] = 1.0 - trial.sum(axis=1)
        cand, n_eval = _best_projected(full, mu, c)
        evaluations += n_eval
        if cand is not None and np.dot(c, cand) <= np.dot(c, best):
            best = cand

    return _result(mu, _project_plane_sphere(best, mu), hbar, "grid-refine", evaluations)


def _simplex_grid(k: int, resolution: float) -> np.ndarray:
    n = round(1.0 / resolution)
    if k == 2:
        i = np.arange(n + 1)
        return np.column_stack([i, n - i]) / n
    if k == 3:
        counts = n + 1 - np.arange(n + 1)
        i = np.repeat(np.arange(n + 1), counts)
        j = np.concatenate([np.arange(cnt) for cnt in counts])
        return np.column_stack([i, j, n - i - j]) / n
    # Generic compositions of n into k parts (coarse n keeps this small).
    from itertools import combinations

    combos = list(combinations(range(n + k - 1), k - 1))
    bars = np.array(combos, dtype=float)
    parts = np.diff(np.concatenate([np.full((len(bars), 1), -1.0), bars,
                                    np.full((len(bars), 1), float(n + k - 1))], axis=1), axis=1) - 1.0
    return parts / n


def _local_offsets(free_dims: int) -> np.ndarray:
    steps = np.arange(-2, 3, dtype=float)
    grids = np.meshgrid(*([steps] * free_dims), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


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
    "grid-refine", "projected-gradient".  "auto" picks the best feasible
    analytic piece and falls back to the grid search where none applies
    (more than 3 levels below the rank-3 window).
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
        return _grid_refine(mu, levels, hbar)
    if method == "projected-gradient":
        return _projected_gradient(mu, levels, hbar)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")

    candidates = []
    if mu >= 0.5:
        candidates.append(_analytic_result(mu, 2, levels, hbar))
    if levels >= 3 and mu > 1.0 / 3.0:
        try:
            candidates.append(_analytic_result(mu, 3, levels, hbar))
        except PieceDomainError:
            pass
    if levels >= 4 and mu < PHI_PIECE2_MIN:
        # rank >= 4 minimizers can undercut rank 3 here; search instead.
        return _grid_refine(mu, levels, hbar)
    if candidates:
        return min(candidates, key=lambda res: res.min_product)
    return _grid_refine(mu, levels, hbar)


def _haar_unitaries(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    z = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.einsum("bii->bi", r)
    return q * (d / np.abs(d))[:, None, :]


def falsification_sweep(
    mu: float, dim: int, samples: int, seed: int, hbar: float = 1.0
) -> FalsificationReport:
    """Probe the purity bound with random density matrices of fixed purity.

    Spectra are drawn uniformly from the simplex, scaled onto the purity
    sphere with a Newton iteration on the power family p^t, and conjugated
    by Haar-random unitaries.  The moments are exact: they use the shared
    operators of ``states.fock_moment_operators`` (unit mass and
    frequency).  Returns the minimum of
    sigma_qq sigma_pp (1 - r^2) - hbar^2 Phi^2(mu) / 4  found.
    """
    if dim > 8:
        raise ValueError("falsification sweep supports dim <= 8")
    if samples < 1 or samples > 10**6:
        raise ValueError("samples must be in [1, 10^6]")
    mu = _check_reachable(mu, dim)
    rng = np.random.default_rng(seed)

    if mu >= 1.0 - 1e-12:
        spectra = np.zeros((samples, dim))
        spectra[:, 0] = 1.0
        converged = np.ones(samples, dtype=bool)
    else:
        raw = rng.dirichlet(np.ones(dim), size=samples)
        t, converged = _power_projection(raw, mu)
        spectra = _apply_power(raw, t)

    unitaries = _haar_unitaries(rng, dim, samples)
    rho = np.einsum("bij,bj,bkj->bik", unitaries, spectra, unitaries.conj())

    q, p, q2, p2, qp_sym = fock_moment_operators(dim, hbar, 1.0, 1.0)
    expect = lambda op: np.real(np.einsum("bij,ji->b", rho, op))
    mq = expect(q)
    mp = expect(p)
    sqq = expect(q2) - mq**2
    spp = expect(p2) - mp**2
    sqp = expect(qp_sym) - mq * mp

    bound = (hbar * phi(mu, "exact") / 2.0) ** 2
    slack = sqq * spp - sqp**2 - bound
    used = int(converged.sum())
    if used == 0:
        raise InfeasibleTargetError("purity projection converged for no sample")
    return FalsificationReport(
        mu=mu,
        dim=dim,
        samples=samples,
        used=used,
        skipped=samples - used,
        min_slack=float(np.min(slack[converged])),
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
