import math

import numpy as np
import pytest

from purity_bounds import (
    DegenerateCorrelationError,
    GaussianState,
    SecondMoments,
    compute_moments,
    diagonal_mixture,
    effective_hbar,
    evaluate_bounds,
    moment_matrix,
    phi,
    phi_eval,
)
from purity_bounds.bounds import PHI_PIECE1_MIN, PHI_PIECE2_MIN


def make_moments(sigma_qq, sigma_pp, sigma_qp, mu=1.0):
    return SecondMoments.from_covariance(0.0, 0.0, sigma_qq, sigma_pp, sigma_qp, mu)


class TestPhi:
    def test_pure_state_value_is_exactly_one(self):
        assert phi(1.0, "exact") == 1.0

    def test_pieces_agree_at_the_junction(self):
        mu = 5.0 / 9.0
        piece1 = 2.0 - math.sqrt(2.0 * mu - 1.0)
        piece2 = 3.0 - math.sqrt(8.0 * (mu - 1.0 / 3.0))
        assert abs(piece1 - piece2) < 1e-12
        assert phi(mu, "exact") == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_interpolation_is_exact_at_the_junction(self):
        assert phi(5.0 / 9.0, "interpolation") == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_interpolation_is_exact_at_lower_knot(self):
        assert phi(7.0 / 18.0, "interpolation") == pytest.approx(7.0 / 3.0, abs=1e-12)

    def test_piece_one_value(self):
        assert phi(0.7, "exact") == pytest.approx(2.0 - math.sqrt(0.4), abs=1e-15)

    def test_piece_two_value(self):
        assert phi(0.5, "exact") == pytest.approx(3.0 - math.sqrt(4.0 / 3.0), abs=1e-15)
        assert phi_eval(0.5, "exact").piece == "exact-piece-2"

    def test_lower_knot_value(self):
        assert phi(7.0 / 18.0, "exact") == pytest.approx(7.0 / 3.0, abs=1e-12)

    def test_fallback_below_lower_knot(self):
        pv = phi_eval(0.3, "exact")
        assert pv.fallback
        assert pv.piece == "interpolation"
        assert pv.value == pytest.approx(phi(0.3, "interpolation"), abs=0.0)

    def test_asymptote_at_small_purity(self):
        assert phi(0.01, "asymptote") == pytest.approx(800.0 / 9.0, abs=1e-12)
        rel = abs(phi(0.01, "interpolation") - 800.0 / 9.0) / (800.0 / 9.0)
        assert rel < 1e-4

    @pytest.mark.parametrize("mode", ["exact", "interpolation", "asymptote"])
    def test_strictly_decreasing(self, mode):
        grid = np.linspace(1e-3, 1.0, 2000)
        values = [phi(float(mu), mode) for mu in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_gaussian_compatibility(self):
        # A Gaussian state of purity mu satisfies the bound, so Phi <= 1/mu.
        for mu in np.linspace(PHI_PIECE2_MIN, 1.0, 500):
            assert phi(float(mu), "exact") <= 1.0 / mu + 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            phi(0.0)
        with pytest.raises(ValueError):
            phi(-0.2)
        with pytest.raises(ValueError):
            phi(1.0 + 1e-9)
        with pytest.raises(ValueError):
            phi(0.5, "quadratic")

    def test_tiny_overshoot_clamped(self):
        assert phi(1.0 + 1e-13, "exact") == 1.0


class TestEffectiveHbar:
    def test_uncorrelated_pure_state(self):
        assert effective_hbar(1.0, 0.0, 1.0) == 1.0

    def test_correlation_factor(self):
        assert effective_hbar(1.0, 0.8, 1.0) == pytest.approx(1.0 / 0.6, abs=1e-14)

    def test_purity_factor(self):
        assert effective_hbar(1.0, 0.0, 0.5) == pytest.approx(
            3.0 - math.sqrt(4.0 / 3.0), abs=1e-14
        )

    def test_degenerate_correlation(self):
        with pytest.raises(DegenerateCorrelationError):
            effective_hbar(1.0, 1.0, 1.0)

    def test_scales_with_hbar(self):
        assert effective_hbar(2.0, 0.0, 1.0) == 2.0


class TestMomentMatrix:
    def test_vacuum_eigenvalues(self):
        mm = moment_matrix(make_moments(0.5, 0.5, 0.0), hbar=1.0)
        np.testing.assert_allclose(mm.eigenvalues, (0.0, 1.0), atol=1e-14)
        assert mm.is_physical()

    def test_thermal_eigenvalues(self):
        mm = moment_matrix(make_moments(1.0, 1.0, 0.0, mu=0.5), hbar=1.0)
        np.testing.assert_allclose(mm.eigenvalues, (0.5, 1.5), atol=1e-14)

    def test_unphysical_eigenvalue(self):
        m = SecondMoments(0.0, 0.0, 0.4, 0.4, 0.0, 0.0, 1.0, 0.0)
        mm = moment_matrix(m, hbar=1.0)
        assert mm.eigenvalues[0] == pytest.approx(-0.1, abs=1e-14)
        assert not mm.is_physical()

    def test_closed_form_matches_eigensolver(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            sqq = float(rng.lognormal(0.0, 0.8))
            spp = float(rng.lognormal(0.0, 0.8))
            sqp = float(rng.normal(0.0, 0.5)) * math.sqrt(sqq * spp)
            m = SecondMoments(0.0, 0.0, sqq, spp, sqp, 0.0, 1.0, 0.0)
            mm = moment_matrix(m, hbar=1.0)
            np.testing.assert_allclose(
                mm.eigenvalues, np.linalg.eigvalsh(mm.matrix), atol=1e-11
            )

    def test_eigenvalue_test_agrees_with_determinant_test(self):
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            sqq = float(rng.lognormal(0.0, 0.8))
            spp = float(rng.lognormal(0.0, 0.8))
            sqp = float(rng.normal(0.0, 0.6)) * math.sqrt(sqq * spp)
            m = SecondMoments(0.0, 0.0, sqq, spp, sqp, 0.0, 1.0, 0.0)
            mm = moment_matrix(m, hbar=1.0)
            det_ok = sqq * spp - sqp * sqp >= 0.25
            assert mm.is_physical(tol=0.0) == det_ok


class TestEvaluateBounds:
    def test_vacuum_saturates_everything(self):
        report = evaluate_bounds(make_moments(0.5, 0.5, 0.0), hbar=1.0)
        assert report.heisenberg_slack == 0.0
        assert report.sr_slack == 0.0
        assert report.purity_slack == 0.0
        assert report.heisenberg_pass and report.sr_pass and report.purity_pass

    def test_correlated_pure_state_saturates_sr(self):
        report = evaluate_bounds(make_moments(1.0, 0.5, 0.5), hbar=1.0)
        assert report.sr_lhs == pytest.approx(0.25, abs=1e-15)
        assert report.sr_slack == pytest.approx(0.0, abs=1e-15)
        assert report.sr_bound == pytest.approx(0.5, abs=1e-15)
        assert report.product == pytest.approx(0.5, abs=1e-15)
        assert report.purity_bound == report.sr_bound  # mu = 1

    def test_equal_mixture_passes_purity_bound(self):
        m = compute_moments(diagonal_mixture([0.5, 0.5], dim=4))
        report = evaluate_bounds(m, hbar=1.0)
        expected_bound = (3.0 - math.sqrt(4.0 / 3.0)) ** 2 / 4.0
        assert report.product == pytest.approx(1.0, abs=1e-12)
        assert report.purity_bound == pytest.approx(expected_bound, abs=1e-12)
        assert report.purity_slack == pytest.approx(1.0 - expected_bound, abs=1e-9)
        assert report.purity_pass

    def test_bounds_are_nested(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            sqq = float(rng.lognormal(0.0, 0.5))
            spp = float(rng.lognormal(0.0, 0.5))
            sqp = float(rng.uniform(-0.9, 0.9)) * math.sqrt(sqq * spp)
            mu = float(rng.uniform(0.05, 1.0))
            report = evaluate_bounds(make_moments(sqq, spp, sqp, mu=mu), hbar=1.0)
            assert report.heisenberg_bound <= report.sr_bound <= report.purity_bound

    def test_reduction_chain_purity_to_sr(self):
        """At mu = 1 the purity bound *is* the SR bound, flags included."""
        rng = np.random.default_rng(29)
        for _ in range(10_000):
            sqq = float(rng.lognormal(0.0, 0.8))
            spp = float(rng.lognormal(0.0, 0.8))
            sqp = float(rng.uniform(-0.99, 0.99)) * math.sqrt(sqq * spp)
            report = evaluate_bounds(make_moments(sqq, spp, sqp, mu=1.0), hbar=1.0)
            assert report.purity_bound == report.sr_bound
            sr_eq7 = report.product >= report.sr_bound
            assert report.purity_pass == sr_eq7

    def test_reduction_chain_sr_to_heisenberg(self):
        """At r = 0 the SR bound reduces to the Heisenberg bound exactly."""
        rng = np.random.default_rng(31)
        for _ in range(10_000):
            sqq = float(rng.lognormal(0.0, 0.8))
            spp = float(rng.lognormal(0.0, 0.8))
            report = evaluate_bounds(make_moments(sqq, spp, 0.0), hbar=1.0)
            assert report.sr_bound == report.heisenberg_bound
            assert report.sr_pass == report.heisenberg_pass

    def test_sr_flag_agrees_between_equivalent_forms(self):
        rng = np.random.default_rng(37)
        for _ in range(10_000):
            sqq = float(rng.lognormal(0.0, 0.8))
            spp = float(rng.lognormal(0.0, 0.8))
            sqp = float(rng.uniform(-0.99, 0.99)) * math.sqrt(sqq * spp)
            m = make_moments(sqq, spp, sqp)
            report = evaluate_bounds(m, hbar=1.0)
            eq7 = m.sigma_qq * m.sigma_pp >= 0.25 / (1.0 - m.r**2)
            assert report.sr_pass == eq7

    def test_advisory_region_tolerates_small_deficit(self):
        # mu below 7/18: a 1% deficit against the interpolated bound passes,
        # the strict region fails the same relative deficit.
        mu = 0.2
        bound = phi(mu, "exact") ** 2 / 4.0
        s = math.sqrt(bound * 0.995)
        report = evaluate_bounds(make_moments(s, s, 0.0, mu=mu), hbar=1.0)
        assert report.purity_slack < 0.0
        assert report.purity_pass

        mu = 0.5
        bound = phi(mu, "exact") ** 2 / 4.0
        s = math.sqrt(bound * 0.995)
        report = evaluate_bounds(make_moments(s, s, 0.0, mu=mu), hbar=1.0)
        assert not report.purity_pass

    def test_rounding_deficit_passes_but_1e12_deficit_fails(self):
        for mu, r in ((1.0, 0.0), (0.5, 0.3), (0.9, -0.6)):
            bound = phi(mu, "exact") ** 2 / (4.0 * (1.0 - r * r))
            rounding = 1.0 - 2.0 * np.finfo(float).eps
            for factor, expected in ((rounding, True), (1.0 - 1e-12, False)):
                s = math.sqrt(bound * factor)
                report = evaluate_bounds(make_moments(s, s, r * s, mu=mu), hbar=1.0)
                assert report.purity_slack < 0.0
                assert report.purity_pass is expected

    def test_hbar_scaling(self):
        report = evaluate_bounds(make_moments(1.0, 1.0, 0.0, mu=0.8), hbar=2.0)
        assert report.heisenberg_bound == 1.0
        assert report.hbar_eff == pytest.approx(2.0 * phi(0.8), abs=1e-14)
