import math

import numpy as np
import pytest

from purity_bounds import (
    InfeasibleTargetError,
    PieceDomainError,
    falsification_sweep,
    fock_quadrature_operators,
    linear_ansatz_weights,
    min_product_fock_mixture,
    phi,
    phi_curve_certified,
)
from purity_bounds import oracle
from purity_bounds.oracle import _all_supports, _face_minimizer, _project_plane_sphere

# The purities of acceptance criterion 4.
CRITERION_4_MUS = (0.45, 0.55, 0.7, 0.9, 1.0)


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


class TestAnalyticMinimizers:
    def test_rank2_at_mu_07(self):
        res = min_product_fock_mixture(0.7, 2, "rank2-analytic")
        p0 = (1.0 + math.sqrt(0.4)) / 2.0
        np.testing.assert_allclose(res.optimal_weights, [p0, 1.0 - p0], atol=1e-14)
        expected = (0.5 * p0 + 1.5 * (1.0 - p0)) ** 2
        assert res.min_product == pytest.approx(expected, abs=1e-14)
        assert phi_from(res) == pytest.approx(phi(0.7, "exact"), abs=1e-12)

    def test_pure_state_is_ground_state(self):
        res = min_product_fock_mixture(1.0, 4, "auto")
        assert res.min_product == pytest.approx(0.25, abs=1e-14)
        np.testing.assert_allclose(res.optimal_weights, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_rank3_at_mu_05_matches_corrected_piece(self):
        res = min_product_fock_mixture(0.5, 3, "rank3-analytic")
        expected_phi = 3.0 - math.sqrt(8.0 * (0.5 - 1.0 / 3.0))
        assert res.min_product == pytest.approx((expected_phi / 2.0) ** 2, abs=1e-12)
        grid = min_product_fock_mixture(0.5, 3, "grid-refine")
        assert abs(grid.min_product - res.min_product) < 1e-12

    def test_rank3_weights_are_linear_in_level(self):
        res = min_product_fock_mixture(0.45, 3, "rank3-analytic")
        w = res.optimal_weights
        assert w[0] - w[1] == pytest.approx(w[1] - w[2], abs=1e-12)

    def test_rank2_outside_domain(self):
        with pytest.raises(PieceDomainError):
            min_product_fock_mixture(0.45, 3, "rank2-analytic")

    def test_rank3_negative_weight_rejected(self):
        with pytest.raises(PieceDomainError):
            min_product_fock_mixture(0.6, 3, "rank3-analytic")

    def test_unreachable_purity(self):
        with pytest.raises(InfeasibleTargetError):
            min_product_fock_mixture(0.4, 2, "auto")
        with pytest.raises(InfeasibleTargetError):
            min_product_fock_mixture(0.5, 2, "auto")  # boundary excluded

    def test_achieved_purity_tolerance(self):
        for mu in (0.42, 0.5, 0.7, 0.95):
            res = min_product_fock_mixture(mu, 3, "auto")
            assert abs(res.achieved_mu - mu) <= 1e-8

    @pytest.mark.parametrize(
        "method", ["auto", "grid-refine", "projected-gradient"]
    )
    def test_weights_live_on_the_simplex(self, method):
        for mu in (0.45, 0.6, 0.9):
            res = min_product_fock_mixture(mu, 3, method)
            assert res.optimal_weights.min() >= 0.0
            assert abs(res.optimal_weights.sum() - 1.0) <= 1e-12

    def test_hbar_units(self):
        res = min_product_fock_mixture(0.7, 2, "rank2-analytic", hbar=2.0)
        base = min_product_fock_mixture(0.7, 2, "rank2-analytic", hbar=1.0)
        assert res.min_product == pytest.approx(4.0 * base.min_product, abs=1e-12)


class TestNumericMethods:
    @pytest.mark.parametrize("mu", [0.40, 0.45, 0.50, 5.0 / 9.0])
    def test_grid_and_gradient_agree_with_rank3(self, mu):
        analytic = min_product_fock_mixture(mu, 3, "auto")
        grid = min_product_fock_mixture(mu, 3, "grid-refine")
        gradient = min_product_fock_mixture(mu, 3, "projected-gradient")
        assert abs(phi_from(grid) - phi_from(analytic)) < 1e-12
        assert abs(phi_from(gradient) - phi_from(analytic)) < 1e-4
        assert abs(phi_from(grid) - phi_from(gradient)) < 1e-12

    @pytest.mark.parametrize("mu", [0.6, 0.8, 1.0])
    def test_grid_matches_rank2_on_two_levels(self, mu):
        grid = min_product_fock_mixture(mu, 2, "grid-refine")
        analytic = min_product_fock_mixture(mu, 2, "rank2-analytic")
        assert abs(phi_from(grid) - phi_from(analytic)) < 1e-12

    def test_more_levels_never_increase_the_minimum(self):
        mu = 0.52
        two = min_product_fock_mixture(mu, 2, "auto")
        three = min_product_fock_mixture(mu, 3, "auto")
        assert three.min_product < two.min_product

    def test_auto_uses_the_rank_k_piece_below_the_rank3_window(self):
        for mu, levels, k in ((0.3, 4, 4), (0.25, 8, 5)):
            res = min_product_fock_mixture(mu, levels, "auto")
            assert res.method == f"rank{k}-analytic"
            assert res.iterations == 0
            assert 2.0 * math.sqrt(res.min_product) == pytest.approx(phi(mu), rel=1e-14)

    def test_general_linear_ansatz_verified_by_grid(self):
        """The face enumeration finds the rank-4/5 linear minimizers."""
        for mu, k in [(0.3, 4), (0.28, 5)]:
            grid = min_product_fock_mixture(mu, k, "grid-refine")
            np.testing.assert_allclose(grid.optimal_weights, linear_ansatz_weights(mu, k),
                                       rtol=0.0, atol=1e-12)

    def test_eight_levels_find_the_rank2_minimum(self):
        res = min_product_fock_mixture(0.58, 8, "grid-refine")
        assert res.min_product == pytest.approx(0.64, rel=1e-15)
        assert res.iterations == 2**8 - 1

    @pytest.mark.parametrize("levels", sorted(SPOT_MUS))
    def test_grid_refine_matches_exact_phi(self, levels):
        """On [mu_{L+1}, 1] the minimum over L levels is the exact Phi; below
        mu_{L+1} (some spot purities) it is the rank-L linear minimizer."""
        k = levels + 1
        floor = 1.0 / k + (k + 1) / (3.0 * k * (k - 1))
        sweep = [mu for mu in np.round(np.arange(0.01, 1.005, 0.01), 2) if mu >= floor]
        for mu in map(float, sweep + list(SPOT_MUS[levels])):
            res = min_product_fock_mixture(mu, levels, "grid-refine")
            if mu >= floor:
                expected = phi(mu, "exact")
            else:
                expected = 2.0 * float(np.dot(np.arange(levels) + 0.5,
                                              linear_ansatz_weights(mu, levels)))
            assert phi_from(res) == pytest.approx(expected, rel=1e-14, abs=0.0)
            assert abs(res.optimal_weights.sum() - 1.0) <= 1e-14
            assert abs(res.achieved_mu - mu) <= 1e-14

    def test_face_minimizer_is_the_nearest_feasible_point(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            levels = int(rng.integers(2, 9))
            x = rng.normal(size=levels)
            mu = float(rng.uniform(1.0 / levels, 1.0))
            q = _face_minimizer(-x, mu, _all_supports(levels))
            assert q.min() >= 0.0
            assert abs(q.sum() - 1.0) <= 1e-12 and abs(np.dot(q, q) - mu) <= 1e-12
            active_set = _project_plane_sphere(x, mu)
            assert np.linalg.norm(q - x) <= np.linalg.norm(active_set - x) + 1e-12
        # c constant on every face: any point of a face's sphere is a minimum.
        q = _face_minimizer(-np.full(3, 1.0 / 3.0), 0.35, _all_supports(3))
        assert q.min() >= 0.0 and abs(np.dot(q, q) - 0.35) <= 1e-12

    def test_prefix_supports_suffice_for_ascending_costs(self):
        rng = np.random.default_rng(13)
        for levels in range(2, 9):
            # Rounded entries make ties, so some prefixes are flat.
            c = np.sort(np.round(rng.normal(size=(200, levels)), 1), axis=1)
            mu = float(rng.uniform(1.0 / levels, 1.0))
            prefix = _face_minimizer(c, mu, np.tri(levels, dtype=bool))
            every = _face_minimizer(c, mu, _all_supports(levels))
            assert np.all(np.abs((prefix * c).sum(axis=1) - (every * c).sum(axis=1)) <= 1e-12)
            assert np.all(np.abs((prefix * prefix).sum(axis=1) - mu) <= 1e-12)

    def test_batched_rows_match_single_rows(self):
        rng = np.random.default_rng(17)
        c = rng.normal(size=(40, 6))
        batch = _face_minimizer(c, 0.4, _all_supports(6))
        for row, p in zip(c, batch):
            assert p.tobytes() == _face_minimizer(row, 0.4, _all_supports(6)).tobytes()

    def test_grid_refine_level_cap(self):
        with pytest.raises(ValueError):
            min_product_fock_mixture(0.5, 9, "grid-refine")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            min_product_fock_mixture(0.7, 2, "simulated-annealing")


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
        rank2 = min_product_fock_mixture(mu, 2, "rank2-analytic")
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

    def test_inflated_phi_fails(self, monkeypatch):
        exact_phi = oracle.phi
        monkeypatch.setattr(oracle, "phi", lambda mu, mode="exact": 1.01 * exact_phi(mu, mode))
        for mu in CRITERION_4_MUS:
            assert falsification_sweep(mu, 6, 10_000, seed=42).min_slack < -1e-8

    def test_dim_cap(self):
        with pytest.raises(ValueError):
            falsification_sweep(0.5, 9, 10, seed=0)

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
        assert rows[0].method == "rank3-analytic"
        assert rows[0].rel_err_exact < 1e-9

    def test_interpolation_sits_below_exact_midpiece(self):
        rows = phi_curve_certified([0.5], levels=3)
        assert rows[0].phi_app < rows[0].phi_exact
        assert rows[0].rel_err_app == pytest.approx(0.004, abs=2e-3)
