import inspect
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from purity_bounds import (
    FockDensityMatrix,
    InfeasibleTargetError,
    falsification_sweep,
    min_product_fock_mixture,
    phi,
    phi_curve_certified,
    purity,
)
from purity_bounds import oracle
from purity_bounds.bounds import _rank
from purity_bounds.cli import main
from purity_bounds.oracle import MAX_LEVELS, METHODS, _project_plane_sphere, _scan_faces

from fock_operators import fock_quadrature_operators
from projected_gradient_reference import projected_gradient_halving
from test_golden import CASES as GOLDEN_CASES

# The purities of acceptance criterion 4.
CRITERION_4_MUS = (0.45, 0.55, 0.7, 0.9, 1.0)

# Low purities whose rank-k minimizer needs more than 8 levels of room.
LOW_MUS = (0.3, 0.2, 0.1, 0.07)


def rank_dim(mu):
    """Truncation that leaves the rank-k minimizer room to squeeze and displace."""
    return min(32, 2 * _rank(mu) + 4)


# Spot purities per level count, some of them below mu_{L+1}.
SPOT_MUS = {
    2: (0.55, 0.7, 0.9, 0.99),
    3: (0.4, 0.5, 0.6, 0.8),
    4: (0.3, 0.45, 0.6, 0.9),
    5: (0.25, 0.35, 0.5, 0.7),
    6: (0.2, 0.3, 0.5, 0.8),
    7: (0.2, 0.3, 0.45, 0.6),
    8: (0.25, 0.4, 0.58, 0.75),
}


def phi_from(result):
    return 2.0 * math.sqrt(result.min_product)


def rank_k_weights(mu, k):
    """The rank-k linear minimizer p_n = 1/k + b ((k - 1)/2 - n), in closed form.

    sum p = 1 for any b, and sum p^2 = 1/k + b^2 k (k^2 - 1) / 12 = mu fixes
    b; every weight is nonnegative up to the top mu_k of the rank-k window.
    """
    b = math.sqrt((mu - 1.0 / k) * 12.0 / (k * (k * k - 1.0)))
    return [1.0 / k + b * ((k - 1.0) / 2.0 - n) for n in range(k)]


def scan_rows(c, mu):
    """The face scan on each row of c, through its array path."""
    return np.stack(_scan_faces(np.atleast_2d(c).T, mu, np.where), axis=1)


def scan_floats(c, mu):
    """The face scan on one row of c, through its float path."""
    return np.array(_scan_faces([float(x) for x in c], mu, lambda flag, a, b: a if flag else b))


def every_support_cost(c, mu):
    """Least c.p over the Lagrange points of all 2^n - 1 supports, for c in any order.

    The face enumeration before the rearrangement step: each support's
    candidate of ``_scan_faces``, with the level index standing in for c
    where c is flat on the support.
    """
    n = c.shape[-1]
    best = np.full(c.shape[:-1], np.inf)
    for bits in range(1, 2**n):
        support = [i for i in range(n) if bits >> i & 1]
        s = len(support)
        if mu < 1.0 / s:
            continue
        cs = c[..., support]
        flat = (cs == cs[..., :1]).all(axis=-1, keepdims=True)
        d = np.where(flat, np.arange(s, dtype=float), cs)
        d = d - d.mean(axis=-1, keepdims=True)
        norm = np.linalg.norm(d, axis=-1, keepdims=True)
        p = 1.0 / s - math.sqrt(mu - 1.0 / s) * np.divide(d, norm, out=np.zeros_like(d),
                                                            where=norm > 0.0)
        best = np.minimum(best, np.where((p >= -1e-12).all(axis=-1), (p * cs).sum(axis=-1), np.inf))
    return best


class TestDefaultMinimizer:
    def test_rank2_at_mu_07(self):
        res = min_product_fock_mixture(0.7, 2)
        assert res.method == "grid-refine"
        p0 = (1.0 + math.sqrt(0.4)) / 2.0
        np.testing.assert_allclose(res.optimal_weights, [p0, 1.0 - p0], atol=1e-14)
        expected = (0.5 * p0 + 1.5 * (1.0 - p0)) ** 2
        assert res.min_product == pytest.approx(expected, abs=1e-14)
        assert phi_from(res) == pytest.approx(phi(0.7, "exact"), abs=1e-12)

    def test_pure_state_is_ground_state(self):
        res = min_product_fock_mixture(1.0, 4)
        assert res.min_product == pytest.approx(0.25, abs=1e-14)
        np.testing.assert_allclose(res.optimal_weights, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_rank3_at_mu_05_matches_corrected_piece(self):
        res = min_product_fock_mixture(0.5, 3)
        expected_phi = 3.0 - math.sqrt(8.0 * (0.5 - 1.0 / 3.0))
        assert res.min_product == pytest.approx((expected_phi / 2.0) ** 2, abs=1e-12)
        np.testing.assert_allclose(res.optimal_weights, rank_k_weights(0.5, 3),
                                   rtol=0.0, atol=1e-15)

    def test_rank3_weights_are_linear_in_level(self):
        res = min_product_fock_mixture(0.45, 3)
        w = res.optimal_weights
        assert w[0] - w[1] == pytest.approx(w[1] - w[2], abs=1e-12)

    def test_unreachable_purity(self):
        with pytest.raises(InfeasibleTargetError):
            min_product_fock_mixture(0.4, 2)
        with pytest.raises(InfeasibleTargetError):
            min_product_fock_mixture(0.5, 2)  # boundary excluded

    def test_achieved_purity_tolerance(self):
        for mu in (0.42, 0.5, 0.7, 0.95):
            res = min_product_fock_mixture(mu, 3)
            assert abs(res.achieved_mu - mu) <= 1e-8

    @pytest.mark.parametrize("method", METHODS)
    def test_weights_live_on_the_simplex(self, method):
        for mu in (0.45, 0.6, 0.9):
            res = min_product_fock_mixture(mu, 3, method)
            assert type(res.optimal_weights) is tuple
            assert min(res.optimal_weights) >= 0.0
            assert abs(math.fsum(res.optimal_weights) - 1.0) <= 1e-12

    def test_every_method_names_itself_and_the_first_is_every_default(self, capsys):
        assert METHODS == ("grid-refine", "projected-gradient")
        for method in METHODS:
            assert min_product_fock_mixture(0.5, 3, method).method == method
        for func in (min_product_fock_mixture, phi_curve_certified):
            assert inspect.signature(func).parameters["method"].default == METHODS[0]
        assert main(["oracle", "--mu", "0.5"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[-2:] == [METHODS[0], "3"]


class TestNumericMethods:
    @pytest.mark.parametrize("mu", [0.40, 0.45, 0.50, 5.0 / 9.0])
    def test_grid_and_gradient_agree_with_rank3(self, mu):
        rank3 = 3.0 - math.sqrt(8.0 * (mu - 1.0 / 3.0))
        grid = min_product_fock_mixture(mu, 3, "grid-refine")
        gradient = min_product_fock_mixture(mu, 3, "projected-gradient")
        assert abs(phi_from(grid) - rank3) < 1e-12
        assert abs(phi_from(gradient) - rank3) < 1e-4
        assert abs(phi_from(grid) - phi_from(gradient)) < 1e-12

    @pytest.mark.parametrize("above", [1e-6, 1e-8, 1e-10])
    def test_a_face_past_the_weight_tolerance_is_not_taken(self, above):
        # Just above 5/9 the 3-level face's top weight is ~ -0.75 ``above``, beyond
        # _WEIGHT_TOL = 1e-12; taking it and clamping that weight would leave the simplex.
        mu = 5.0 / 9.0 + above
        res = min_product_fock_mixture(mu, 3)
        assert res.optimal_weights[2] == 0.0 and math.fsum(res.optimal_weights) == 1.0
        assert phi_from(res) == pytest.approx(2.0 - math.sqrt(2.0 * mu - 1.0), rel=4e-16)

    @pytest.mark.parametrize("mu", [0.6, 0.8, 1.0])
    def test_grid_matches_rank2_on_two_levels(self, mu):
        grid = min_product_fock_mixture(mu, 2, "grid-refine")
        assert abs(phi_from(grid) - (2.0 - math.sqrt(2.0 * mu - 1.0))) < 1e-12

    def test_more_levels_never_increase_the_minimum(self):
        mu = 0.52
        two = min_product_fock_mixture(mu, 2)
        three = min_product_fock_mixture(mu, 3)
        assert three.min_product < two.min_product

    def test_default_finds_the_rank_k_piece_below_the_rank3_window(self):
        for mu, levels, k in ((0.3, 4, 4), (0.25, 8, 5)):
            res = min_product_fock_mixture(mu, levels)
            assert (res.method, res.iterations) == ("grid-refine", levels)
            assert 2.0 * math.sqrt(res.min_product) == pytest.approx(phi(mu), rel=1e-14)
            np.testing.assert_allclose(res.optimal_weights[:k], rank_k_weights(mu, k),
                                       rtol=0.0, atol=1e-12)
            assert res.optimal_weights[k:] == (0.0,) * (levels - k)

    def test_general_linear_ansatz_verified_by_grid(self):
        """The face enumeration finds the rank-4/5 linear minimizers."""
        for mu, k in [(0.3, 4), (0.28, 5)]:
            grid = min_product_fock_mixture(mu, k, "grid-refine")
            np.testing.assert_allclose(grid.optimal_weights, rank_k_weights(mu, k),
                                       rtol=0.0, atol=1e-12)

    def test_eight_levels_find_the_rank2_minimum(self):
        res = min_product_fock_mixture(0.58, 8, "grid-refine")
        assert res.min_product == pytest.approx(0.64, rel=1e-15)
        assert res.iterations == 8  # one candidate per prefix support

    @pytest.mark.parametrize("levels", [*range(2, 34), 64, 1024])
    def test_grid_refine_matches_exact_phi(self, levels):
        """On [mu_{L+1}, 1] the minimum over L levels is the exact Phi; below
        mu_{L+1} (some spot purities) it is the rank-L linear minimizer.  The
        sweep is a step-0.01 grid and 50 log-spaced purities from mu_{L+1}."""
        k = levels + 1
        floor = 1.0 / k + (k + 1) / (3.0 * k * (k - 1))
        sweep = [mu for mu in np.round(np.arange(0.01, 1.005, 0.01), 2) if mu >= floor]
        sweep += list(np.geomspace(floor, 1.0, 50))
        for mu in map(float, sweep + list(SPOT_MUS.get(levels, ()))):
            res = min_product_fock_mixture(mu, levels, "grid-refine")
            if mu >= floor:
                expected = phi(mu, "exact")
            else:
                expected = 2.0 * float(np.dot(np.arange(levels) + 0.5,
                                              rank_k_weights(mu, levels)))
            assert phi_from(res) == pytest.approx(expected, rel=4e-16, abs=0.0)
            assert abs(math.fsum(res.optimal_weights) - 1.0) <= 1e-14
            assert abs(res.achieved_mu - mu) <= 1e-14

    def test_scan_is_the_nearest_feasible_point(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            levels = int(rng.integers(2, 9))
            x = rng.normal(size=levels)
            mu = float(rng.uniform(1.0 / levels, 1.0))
            order = np.argsort(-x, kind="stable")
            q = np.empty(levels)
            q[order] = scan_floats(-x[order], mu)
            assert q.min() >= 0.0
            assert abs(q.sum() - 1.0) <= 1e-12 and abs(np.dot(q, q) - mu) <= 1e-12
            active_set = np.array(_project_plane_sphere(x.tolist(), mu))
            assert np.linalg.norm(q - x) <= np.linalg.norm(active_set - x) + 1e-12
        # c constant on every face: any point of a face's sphere is a minimum.
        q = scan_floats(-np.full(3, 1.0 / 3.0), 0.35)
        assert q.min() >= 0.0 and abs(np.dot(q, q) - 0.35) <= 1e-12

    def test_prefix_supports_suffice_for_ascending_costs(self):
        """The rearrangement step: no support beats the best prefix."""
        rng = np.random.default_rng(13)
        for levels in range(2, 9):
            # Rounded entries make ties, so some prefixes are flat.
            c = np.sort(np.round(rng.normal(size=(200, levels)), 1), axis=1)
            mu = float(rng.uniform(1.0 / levels, 1.0))
            prefix = scan_rows(c, mu)
            assert np.all(np.abs((prefix * c).sum(axis=1) - every_support_cost(c, mu)) <= 1e-12)
            assert np.all(np.abs((prefix * prefix).sum(axis=1) - mu) <= 1e-12)

    def test_batched_rows_match_single_rows(self):
        rng = np.random.default_rng(17)
        c = np.sort(rng.normal(size=(40, 6)), axis=1)
        batch = scan_rows(c, 0.4)
        for row, p in zip(c, batch):
            assert p.tobytes() == scan_rows(row, 0.4)[0].tobytes()

    @pytest.mark.parametrize("levels", range(2, MAX_LEVELS + 1))
    def test_float_and_array_paths_agree(self, levels):
        """Both paths pick the same support, with weights within 1e-15, on
        rows with ties (flat prefixes) and without."""
        rng = np.random.default_rng(levels)
        c = np.sort(rng.normal(size=(50, levels)), axis=1)
        c[::2] = np.sort(np.round(c[::2], 1), axis=1)
        mu = float(rng.uniform(1.0 / levels, 1.0))
        batch = scan_rows(c, mu)
        for row, p in zip(c, batch):
            q = scan_floats(row, mu)
            assert np.array_equal(p > 0.0, q > 0.0)
            assert np.max(np.abs(p - q)) <= 1e-15

    def test_only_the_falsifier_reads_the_level_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_LEVELS", 4)
        assert min_product_fock_mixture(0.5, 5, "grid-refine").iterations == 5
        with pytest.raises(ValueError, match="dim <= 4"):
            falsification_sweep(0.5, 5, 10, seed=0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            min_product_fock_mixture(0.7, 2, "simulated-annealing")


def capped_phi(mu, levels):
    """The least Phi over mixtures of the lowest ``levels`` number states, to 50 digits.

    The minimum over the feasible prefix faces: the rank-s linear minimizer
    is feasible for 1/s <= mu <= mu_s = 1/s + (s + 1) / (3 s (s - 1)), where
    it gives Phi_s = s - sqrt(s (s^2 - 1) (mu - 1/s) / 3); the bounds and the
    radicand are exact rationals.
    """
    m = Fraction(mu)
    best = None
    with localcontext() as ctx:
        ctx.prec = 50
        for s in range(2, levels + 1):
            if not Fraction(1, s) <= m <= Fraction(1, s) + Fraction(s + 1, 3 * s * (s - 1)):
                continue
            x = Fraction(s * (s * s - 1), 3) * (m - Fraction(1, s))
            value = s - (Decimal(x.numerator) / Decimal(x.denominator)).sqrt()
            best = value if best is None else min(best, value)
    return best


# The (mu, levels) pairs of the benchmark's certify round: the minimizer at
# the cycled level count and the 8-level certified curve point, 30 in all.
CERTIFY_PAIRS = [(round(0.25 + 0.05 * i, 2), levels)
                 for i in range(15) for levels in ((8, 7, 6, 5, 4)[i % 5], 8)]
GOLDEN_PAIRS = [(float(argv[argv.index("--mu") + 1]), int(argv[argv.index("--levels") + 1]))
                for argv in GOLDEN_CASES.values() if "projected-gradient" in argv]


class TestGradientStop:
    """A start ends at the first trial that does not lower the cost; the
    reference halves every rejected step down to the 1e-13 floor."""

    @pytest.mark.parametrize("mu, levels", CERTIFY_PAIRS + GOLDEN_PAIRS)
    def test_weights_match_the_halving_reference(self, mu, levels):
        res = min_product_fock_mixture(mu, levels, "projected-gradient")
        assert res.optimal_weights == projected_gradient_halving(mu, levels).optimal_weights

    def test_golden_inputs_are_covered(self):
        assert GOLDEN_PAIRS == [(0.5, 3)]

    def test_certify_iterations_stay_short(self):
        total = sum(min_product_fock_mixture(mu, levels, "projected-gradient").iterations
                    for mu, levels in CERTIFY_PAIRS)
        assert total <= 2000  # the halving reference takes 11255

    @pytest.mark.parametrize("levels", range(2, 13))
    def test_no_phi_is_farther_from_the_minimum_than_the_reference(self, levels):
        """300 purities in (1/L, 1) per level count, 3300 cases in all."""
        for mu in map(float, np.linspace(1.0 / levels, 1.0, 302)[1:-1]):
            exact = capped_phi(mu, levels)
            res = min_product_fock_mixture(mu, levels, "projected-gradient")
            ref = projected_gradient_halving(mu, levels)
            assert abs(Decimal(phi_from(res)) - exact) <= abs(Decimal(phi_from(ref)) - exact)


class TestDenseStates:
    """The float steps of the normal-form argument (VERIFICATION.md, "Dense states")."""

    def test_populations_carry_no_more_than_the_purity(self):
        """Step 3: sum_n rho_nn^2 <= sum_ij |rho_ij|^2 = mu on dense states."""
        rng = np.random.default_rng(23)
        for dim in range(2, MAX_LEVELS + 1):
            for rank in (1, 2, dim):
                a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
                rho = a @ a.conj().T
                state = FockDensityMatrix(dim, rho / np.trace(rho).real)
                assert math.fsum(x * x for x in state.populations()) <= purity(state)

    def test_gaussian_normal_form_is_thermal(self):
        """A Gaussian state's normal form is thermal, with nu = 1/(2 mu) >= Phi(mu)/2:
        mu Phi(mu) <= 1, with equality only for the pure state."""
        grid = [float(mu) for mu in np.logspace(-6.0, 0.0, 6001)]
        products = [mu * phi(mu) for mu in grid]
        assert grid[-1] == 1.0 and products[-1] == 1.0
        assert max(products[:-1]) < 1.0


class TestFalsification:
    def test_pure_states_respect_sr(self):
        report = falsification_sweep(1.0, 4, 1000, seed=1)
        assert report.min_slack >= -1e-8
        assert report.used == 1000

    def test_mixed_states_respect_purity_bound(self):
        report = falsification_sweep(0.5, 6, 1000, seed=42)
        assert report.min_slack >= -1e-8

    def test_two_level_exhaustive_bloch_scan(self):
        """Scan all 2-level states of purity 0.9 on a Bloch-like grid; the
        tightest variance product must be the diagonal mixture found by the
        rank-2 minimizer."""
        mu = 0.9
        radius = math.sqrt(2.0 * mu - 1.0)
        q_big, p_big = fock_quadrature_operators(4)
        q, p = q_big[:2, :2], p_big[:2, :2]
        q2 = (q_big @ q_big)[:2, :2]
        p2 = (p_big @ p_big)[:2, :2]
        qp = (0.5 * (q_big @ p_big + p_big @ q_big))[:2, :2]
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.array([[1, 0], [0, -1]], dtype=complex)

        best = math.inf
        best_angles = None
        thetas = np.linspace(0.0, math.pi, 181)
        phis_ = np.linspace(0.0, 2.0 * math.pi, 121)
        for theta in thetas:
            for ph in phis_:
                v = radius * np.array(
                    [math.sin(theta) * math.cos(ph), math.sin(theta) * math.sin(ph), math.cos(theta)]
                )
                rho = 0.5 * (np.eye(2) + v[0] * sx + v[1] * sy + v[2] * sz)
                mq = np.trace(rho @ q).real
                mp = np.trace(rho @ p).real
                sqq = np.trace(rho @ q2).real - mq * mq
                spp = np.trace(rho @ p2).real - mp * mp
                sqp = np.trace(rho @ qp).real - mq * mp
                value = sqq * spp - sqp * sqp
                if value < best:
                    best = value
                    best_angles = (theta, ph)
        rank2 = min_product_fock_mixture(mu, 2)
        assert abs(best - rank2.min_product) < 1e-6
        assert best_angles[0] in (0.0, math.pi)  # a diagonal mixture

    def test_seeded_determinism(self):
        a = falsification_sweep(0.7, 6, 500, seed=9)
        b = falsification_sweep(0.7, 6, 500, seed=9)
        assert a == b

    def test_high_purity_samples_all_converge(self):
        # Every start is stepped onto the purity sphere in closed form, so no
        # sample is ever skipped, at high purity either.
        assert falsification_sweep(0.95, 8, 2000, seed=3).skipped == 0
        assert all(falsification_sweep(0.99, 8, 1000, seed=s).skipped == 0 for s in range(20))

    @pytest.mark.parametrize("mu", (0.3, 0.5, 0.7, 0.9))
    def test_sweep_reaches_the_bound(self, mu):
        bound = (phi(mu) / 2.0) ** 2
        for seed in range(4):
            report = falsification_sweep(mu, 8, 2000, seed=seed)
            assert report.used == 2000 and report.skipped == 0
            assert -1e-8 <= report.min_slack / bound <= 1e-6

    @pytest.mark.parametrize("mu", LOW_MUS)
    def test_sweep_is_tight_at_the_rank_dim(self, mu):
        bound = (phi(mu) / 2.0) ** 2
        for seed in (0, 1):
            report = falsification_sweep(mu, rank_dim(mu), 1000, seed=seed)
            assert -1e-8 <= report.min_slack / bound <= 1e-10

    def test_inflated_phi_fails(self, monkeypatch):
        exact_phi = oracle.phi
        monkeypatch.setattr(oracle, "phi", lambda mu, mode="exact": 1.01 * exact_phi(mu, mode))
        for mu in CRITERION_4_MUS:
            assert falsification_sweep(mu, 6, 10_000, seed=42).min_slack < -1e-8
        for mu in (0.1, 0.07):
            assert falsification_sweep(mu, rank_dim(mu), 1000, seed=42).min_slack < -1e-8

    @pytest.mark.parametrize("args", [(0.5, 6, 2000, 42), (0.3, 8, 2000, 3)])
    def test_chunk_size_changes_no_bit(self, monkeypatch, args):
        dim = args[1]
        reference = falsification_sweep(*args)  # the default chunk: 910 / 512 starts
        # One start per chunk puts a one-row batch through every einsum; 2000, one batch.
        for starts in (1, 7, 2000):
            monkeypatch.setattr(oracle, "_CHUNK_ELEMENTS", starts * dim * dim)
            assert falsification_sweep(*args) == reference

    def test_memory_is_bounded_by_the_chunk(self):
        """One chunk's arrays live at a time: 1.8 MiB at either dim (85.8 MiB
        at dim 8 in one batch)."""
        falsification_sweep(0.5, 8, 10, seed=0)  # imports outside the trace
        for dim, samples in ((8, 20_000), (32, 10**4)):
            tracemalloc.start()
            try:
                falsification_sweep(0.5, dim, samples, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * 2**20, dim

    def test_starts_are_drawn_by_the_chunk(self):
        """10^5 start vectors at dim 8 take 12.8 MB; drawn chunk by chunk, the peak
        stays within one chunk's working set (16.7 MiB when they were drawn whole)."""
        falsification_sweep(0.5, 8, 10, seed=0)  # imports outside the trace
        tracemalloc.start()
        try:
            falsification_sweep(0.5, 8, 10**5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    def test_dim_cap(self):
        with pytest.raises(ValueError, match="dim <= 32"):
            falsification_sweep(0.5, 33, 10, seed=0)

    def test_sample_cap(self):
        with pytest.raises(ValueError):
            falsification_sweep(0.5, 4, 10**6 + 1, seed=0)


class TestPhiCurve:
    def test_pure_point(self):
        rows = phi_curve_certified([1.0], levels=3)
        assert rows[0].phi_oracle == pytest.approx(1.0, abs=1e-12)

    def test_junction_point(self):
        rows = phi_curve_certified([5.0 / 9.0], levels=3)
        assert rows[0].phi_oracle == pytest.approx(5.0 / 3.0, abs=1e-6)

    def test_rank3_point(self):
        rows = phi_curve_certified([0.45], levels=3)
        expected = 3.0 - math.sqrt(8.0 * (0.45 - 1.0 / 3.0))
        assert rows[0].phi_oracle == pytest.approx(expected, abs=1e-9)
        assert rows[0].method == "grid-refine"
        assert rows[0].rel_err_exact < 1e-9

    def test_interpolation_sits_below_exact_midpiece(self):
        rows = phi_curve_certified([0.5], levels=3)
        assert rows[0].phi_app < rows[0].phi_exact
        assert rows[0].rel_err_app == pytest.approx(0.004, abs=2e-3)
