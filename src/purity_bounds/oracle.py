"""Independent verification of the purity-bound multiplier Phi.

The variance product of a mixture of number states with weights p is
(sum_n p_n (n + 1/2))^2 hbar^2, so minimizing that product at fixed purity
sum_n p_n^2 = mu gives the quantum limit; no dense state does better
(VERIFICATION.md, "Dense states").  Two minimizers recover Phi without its
formula: an exact enumeration of the simplex faces, the default, and a
projected-gradient solver.  The falsification sweep checks the whole
chain end to end: it steps random pure states onto the bound, one eigen-step
on det Sigma each, so a Phi that is too large fails it, and a fault in the
Fock moments shows as a state below the bound.  It reads every state's
moments through the ladder sums of ``moments``.

The oracle works in units of hbar (hbar = mass = omega = 1): a variance
product such as ``min_product`` is in units of hbar^2, and Phi is
2 sqrt(min_product).  All stochastic paths take an explicit seed and are
reproducible bit for bit.  numpy loads only for the falsifier; the face
enumeration and ``projected-gradient`` run on Python floats.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .bounds import METHODS, check_purity, phi
from .errors import InfeasibleTargetError

_WEIGHT_TOL = 1e-12

# The most levels of the falsifier's truncation; the face enumeration takes any number.
MAX_LEVELS = 32
# Matrix elements per chunk of the falsification sweep: 910 starts at dim 6, 32 at dim 32.
# A complex (starts, dim, dim) array is then 512 KiB, so those that live at once (G and
# its eigenvectors, then the eigenvectors, their weighted conjugate and one product of
# the two) fit in a 2 MiB per-core L2 cache.
_CHUNK_ELEMENTS = 2**15


class MinimizationResult(NamedTuple):
    mu_target: float
    achieved_mu: float
    min_product: float
    optimal_weights: tuple[float, ...]
    method: str
    iterations: int


class FalsificationReport(NamedTuple):
    """Smallest slack of the purity bound found; every start is used (``skipped`` is 0)."""

    mu: float
    dim: int
    samples: int
    used: int
    skipped: int
    min_slack: float
    seed: int
    method: str = "gradient-aligned-sampling"


class PhiCurveRow(NamedTuple):
    mu: float
    phi_oracle: float
    phi_exact: float
    phi_app: float
    rel_err_exact: float
    rel_err_app: float
    method: str
    iterations: int


def _objective_coeffs(levels: int) -> list[float]:
    return [n + 0.5 for n in range(levels)]


def _check_reachable(mu: float, levels: int) -> float:
    if levels < 2:
        raise ValueError("levels must be >= 2")
    mu = check_purity(mu)
    if mu <= 1.0 / levels:
        raise InfeasibleTargetError(
            f"purity {mu} unreachable with {levels} levels (minimum is 1/{levels})"
        )
    return mu


def _result(mu: float, weights, method: str, iterations: int) -> MinimizationResult:
    """Package minimizer weights with their purity and variance product."""
    value = math.fsum(map(operator.mul, _objective_coeffs(len(weights)), weights))
    return MinimizationResult(
        mu_target=mu,
        achieved_mu=math.fsum(x * x for x in weights),
        min_product=value * value,
        optimal_weights=tuple(weights),
        method=method,
        iterations=iterations,
    )


def _project_plane_sphere(p: list[float], mu: float) -> list[float]:
    """Active-set projection onto {sum p = 1, sum p^2 = mu, p >= 0} (VERIFICATION.md)."""
    k = len(p)
    support = range(k)
    q = p
    while True:  # returns: each pass drops a level, and mu >= 1/n on the n kept (Cauchy-Schwarz)
        n_act = len(support)
        sub = [q[i] for i in support]
        shift = (1.0 - math.fsum(sub)) / n_act
        center = 1.0 / n_act
        d = [x + shift - center for x in sub]
        norm = math.sqrt(math.fsum(map(operator.mul, d, d)))
        radius = math.sqrt(max(mu - center, 0.0))
        if norm < 1e-300:
            # Ambiguous projection from the sphere center: descend the
            # objective, i.e. move weight toward the lowest levels.
            d = [(n_act - 1) / 2.0 - j for j in range(n_act)]
            norm = math.sqrt(math.fsum(map(operator.mul, d, d)))
        sub = [center + radius * x / norm for x in d] if radius > 0 else [center] * n_act
        q = dict(zip(support, sub))
        if min(sub) >= -_WEIGHT_TOL:
            return [max(q.get(i, 0.0), 0.0) for i in range(k)]
        support = [i for i in support if q[i] >= 0.0]


def _scan_faces(c, mu: float, where) -> list:
    """Minimizer of c.p on {sum p = 1, sum p^2 = mu, p >= 0} for ascending c, by its faces.

    Some minimizer lives on a prefix of s levels, where it is
    p_n = 1/s - sqrt(mu - 1/s) (c_n - m_s) / norm_s and costs
    m_s - sqrt(mu - 1/s) norm_s, m_s the prefix mean and norm_s^2 its sum of
    squared deviations; on a flat prefix the level index stands in for c
    (VERIFICATION.md, "Face enumeration").  One pass updates m_s and norm_s^2
    (Welford) and keeps the cheapest prefix whose top, smallest, weight is
    nonnegative; only a strictly cheaper one replaces it, so ties go to the
    shortest.  It starts at s = 2: the one-level face, reached only at mu = 1,
    is the two-level candidate's point.  A second pass builds the winner's
    weights.  ``c`` is a sequence of L cost columns: floats with a conditional
    as ``where``, or arrays of rows with ``np.where``; returns L weight columns.
    """
    best_cost, best_s, best_scale, best_mean, best_flat = math.inf, 0, 0.0, 0.0, False
    mean, square = c[0], 0.0
    for s in range(2, len(c) + 1):
        delta = c[s - 1] - mean
        mean = mean + delta / s
        top = c[s - 1] - mean
        square = square + delta * top
        if mu < 1.0 / s:
            continue
        radius = math.sqrt(mu - 1.0 / s)
        norm = square**0.5  # on floats and arrays alike
        cost = mean - radius * norm  # a flat prefix has norm 0
        flat = square == 0.0
        scale = radius / where(flat, math.sqrt(s * (s * s - 1) / 12.0), norm)
        top = where(flat, (s - 1) / 2.0, top)
        better = (1.0 / s - scale * top >= -_WEIGHT_TOL) & (cost < best_cost)
        best_cost = where(better, cost, best_cost)
        best_s = where(better, s, best_s)
        best_scale = where(better, scale, best_scale)
        best_mean = where(better, where(flat, (s - 1) / 2.0, mean), best_mean)
        best_flat = where(better, flat, best_flat)
    weights = []
    for n, x in enumerate(c):
        p = 1.0 / best_s - best_scale * (where(best_flat, n, x) - best_mean)
        weights.append(where((n < best_s) & (p > 0.0), p, 0.0))
    return weights


def _projected_gradient(mu: float, levels: int) -> MinimizationResult:
    """Gradient steps on the mean level number, projected back to the feasible set.

    The feasible set (purity sphere cut by the simplex) is nonconvex and can
    split into several arcs, so the descent is restarted from one start per
    vertex bias plus a start biased along the descent direction; the best
    endpoint wins.  A trial is accepted when it lowers the cost by more than
    1e-15; one that lowers it by less halves the step (down to 1e-13), and
    one that does not lower it at all ends the start, the usual stop of a
    monotone projected-gradient descent (VERIFICATION.md, "Active-set
    projection").  ``iterations`` counts the trials of all starts.  It runs
    on Python floats, and every sum is a correctly rounded ``math.fsum``, so
    its bits depend on no BLAS kernel.
    """
    u = 1.0 / levels
    c = _objective_coeffs(levels)
    mean = math.fsum(c) / levels
    starts = [_project_plane_sphere([u - 0.1 * (x - mean) for x in c], mu)]
    total = math.fsum([u + 1.0] + [u] * (levels - 1))  # each vertex-biased start's sum
    starts += [_project_plane_sphere([(u + (i == j)) / total for i in range(levels)], mu)
               for j in range(levels)]

    best_p, best_f = None, math.inf
    iterations = 0
    for start in starts:
        p = start
        f = math.fsum(map(operator.mul, c, p))
        step = 0.5
        while step > 1e-13:
            iterations += 1
            trial = _project_plane_sphere([x - step * y for x, y in zip(p, c)], mu)
            ft = math.fsum(map(operator.mul, c, trial))
            if ft < f - 1e-15:
                p, f = trial, ft
            elif ft >= f:
                break
            else:
                step *= 0.5
        if f < best_f:
            best_p, best_f = p, f
    return _result(mu, best_p, "projected-gradient", iterations)


def min_product_fock_mixture(mu: float, levels: int,
                             method: str = METHODS[0]) -> MinimizationResult:
    """Minimize the variance product over number-state mixtures of fixed purity.

    ``method`` is one of ``METHODS``.  "grid-refine" enumerates the prefix
    faces of any number of levels exactly (the name is historical);
    ``iterations`` counts them, ``levels``.
    """
    mu = _check_reachable(mu, levels)
    if method == "grid-refine":
        p = _scan_faces(_objective_coeffs(levels), mu, lambda flag, a, b: a if flag else b)
        return _result(mu, p, "grid-refine", levels)
    if method == "projected-gradient":
        return _projected_gradient(mu, levels)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def falsification_sweep(mu: float, dim: int, samples: int, seed: int) -> FalsificationReport:
    """Probe the purity bound from ``samples`` random starts, each stepped onto it.

    Each start is a random pure state (a normalised complex Gaussian
    vector).  At its moments, the gradient of det Sigma with respect to rho is

        G = s_pp (q^2 - 2<q>q) + s_qq (p^2 - 2<p>p) - 2 s_qp ((qp+pq)/2 - <p>q - <q>p),

    a positive quadratic form in q and p.  Up to truncation its eigenvectors
    are Gaussian-unitary images of number states, and a Gaussian unitary
    changes neither det Sigma nor the purity.  The state V diag(w) V^dagger
    whose spectrum w minimizes the ascending eigenvalues of G on the purity
    sphere (``_scan_faces``) is therefore the image of a rank-k
    minimizer of Phi, and its slack lies at the bound, below which no state
    lies: a negative slack is a Phi too large or a fault in the moments.
    G is banded (its diagonal and two on each side), and the moments of each
    start and of each V diag(w) V^dagger are the ladder sums of ``moments``,
    summed on the last axis: no density matrix is formed.  Returns the minimum of
    sigma_qq sigma_pp (1 - r^2) - Phi^2(mu) / 4  found, in units of hbar^2.
    The starts are drawn and stepped in chunks of ``_CHUNK_ELEMENTS`` matrix
    elements, and only one chunk's arrays live at a time: G goes as ``eigh``
    returns, and the weights scale the conjugate eigenvectors in place.  The
    tracemalloc peak is 1.7-2.3 MiB at any dim and sample count.  The seed's
    stream holds every real part before any imaginary part; a second generator
    skips the real parts.  A chunk size changes no bit: each row is reduced alike.
    """
    if not 2 <= dim <= MAX_LEVELS:
        raise ValueError(f"falsification sweep supports 2 <= dim <= {MAX_LEVELS}, got {dim}")
    if samples < 1 or samples > 10**6:
        raise ValueError("samples must be in [1, 10^6]")
    if seed < 0:
        raise ValueError(f"seed {seed} must be >= 0")
    mu = _check_reachable(mu, dim)
    import numpy as np

    from .moments import _ladder_moments

    real, imag = np.random.default_rng(seed), np.random.default_rng(seed)
    size = max(1, _CHUNK_ELEMENTS // dim**2)
    shapes = [(min(size, samples - lo), dim) for lo in range(0, samples, size)]
    for shape in shapes:
        imag.standard_normal(shape)
    n = np.arange(dim)
    ladder = (2.0 * n + 1.0, np.sqrt(n[1:]), np.sqrt(n[1:-1] * n[2:]))  # weights of N, z, w

    def moments(vectors, conj):
        """<q>, <p>, sigma_qq, sigma_pp, sigma_qp of each sum_k |v_k><v_k| w_k, from conj = w v^*."""
        n_sum, z, w = ((c * (vectors[:, d:] * conj[:, :dim - d]).sum(-1)).sum(-1)
                       for d, c in enumerate(ladder))
        return _ladder_moments(z, w, n_sum.real)

    def gradient(start):
        """G of each start on its three diagonals; eigh reads the lower triangle."""
        mq, mp, sqq, spp, sqp = moments(start, start.conj())
        g = np.zeros((len(start), dim, dim), complex)
        g[:, n, n] = (sqq + spp)[:, None] * (n + 0.5)
        g[:, n[1:], n[:-1]] = np.sqrt(n[1:] / 2.0) * (2.0 * (sqp * mp - spp * mq)
                                                      + 2j * (sqp * mq - sqq * mp))[:, None]
        g[:, n[2:], n[:-2]] = 0.5 * ladder[2] * (spp - sqq - 2j * sqp)[:, None]
        return g

    def slack(shape):
        """Draw a chunk of starts and step each onto the bound; returns their slacks."""
        psi = np.empty(shape, complex)
        psi.real, psi.imag = real.standard_normal(shape), imag.standard_normal(shape)
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        cost, vectors = np.linalg.eigh(gradient(psi[:, :, None]))  # G is freed as eigh returns
        weights = np.stack(_scan_faces(cost.T, mu, np.where), axis=1)  # eigh's eigenvalues ascend
        conj = vectors.conj()
        conj *= weights[:, None]
        _, _, sqq, spp, sqp = moments(vectors, conj)
        return sqq * spp - sqp**2 - bound

    bound = (phi(mu, "exact") / 2.0) ** 2
    min_slack = np.inf
    for shape in shapes:  # one chunk's arrays live at a time
        min_slack = np.min(slack(shape), initial=min_slack)

    return FalsificationReport(mu=mu, dim=dim, samples=samples, used=samples, skipped=0,
                               min_slack=float(min_slack), seed=seed)


def phi_curve_certified(mu_grid, levels: int, method: str = METHODS[0]) -> list[PhiCurveRow]:
    """Tabulate the minimizer-certified Phi against the formulas on a grid."""
    rows = []
    for mu in map(float, mu_grid):
        res = min_product_fock_mixture(mu, levels, method=method)
        oracle, exact, app = 2.0 * math.sqrt(res.min_product), phi(mu), phi(mu, "interpolation")
        rows.append(PhiCurveRow(mu, oracle, exact, app, abs(oracle - exact) / exact,
                                abs(oracle - app) / app, res.method, res.iterations))
    return rows
