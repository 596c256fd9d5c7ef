import math

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from purity_bounds import (
    ThermalModel,
    log_partition_function,
    oscillator_mean_occupation,
    partition_function,
    phi,
    purity,
    spectrum_tail_bound,
    thermal_bound_report,
    thermal_purity,
    thermal_state_fock,
    thermal_sweep,
)
from purity_bounds.thermal import _logsumexp


@pytest.fixture
def oscillator():
    return ThermalModel.oscillator()


class TestPartitionFunction:
    def test_unit_temperature_against_geometric_series(self, oscillator):
        # independent oracle: Z = e^(-1/2) / (1 - e^(-1))
        expected = math.exp(-0.5) / (1.0 - math.exp(-1.0))
        assert partition_function(oscillator, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_low_temperature_limit(self, oscillator):
        assert partition_function(oscillator, 0.05) == pytest.approx(
            math.exp(-10.0), rel=1e-8
        )

    def test_spectrum_list_matches_closed_form(self, oscillator):
        levels = np.arange(200) + 0.5
        model = ThermalModel.from_spectrum(levels)
        assert partition_function(model, 1.0) == pytest.approx(
            partition_function(oscillator, 1.0), abs=1e-12
        )

    def test_log_domain_survives_tiny_temperature(self, oscillator):
        lz = log_partition_function(oscillator, 1e-4)
        assert lz == pytest.approx(-5000.0, rel=1e-12)
        assert math.isfinite(lz)

    def test_temperature_domain(self, oscillator):
        with pytest.raises(ValueError):
            partition_function(oscillator, 0.0)
        with pytest.raises(ValueError):
            partition_function(oscillator, -1.0)

    def test_general_units(self):
        model = ThermalModel.oscillator(hbar=2.0, omega=3.0)
        assert partition_function(model, 1.0) == pytest.approx(
            1.0 / (2.0 * math.sinh(3.0)), rel=1e-14
        )

    def test_tail_bound(self):
        model = ThermalModel.from_spectrum(np.arange(50) + 0.5)
        assert spectrum_tail_bound(model, 1.0) == pytest.approx(math.exp(-49.5), rel=1e-12)
        assert spectrum_tail_bound(ThermalModel.oscillator(), 1.0) == 0.0

    def test_spectrum_must_be_sorted(self):
        with pytest.raises(ValueError):
            ThermalModel.from_spectrum([1.0, 0.5])

    def test_oscillator_takes_no_spectrum(self):
        with pytest.raises(ValueError):
            ThermalModel(kind="oscillator", spectrum=np.array([1.0]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_non_finite_or_nonpositive_scales_rejected(self, bad):
        for fields in ({"hbar": bad}, {"mass": bad}, {"omega": bad}):
            with pytest.raises(ValueError, match="positive and finite"):
                ThermalModel.oscillator(**fields)


class TestThermalPurity:
    def test_unit_temperature_z_ratio(self, oscillator):
        # independent oracle: the explicit ratio Z(T/2)/Z(T)^2
        z_half = partition_function(oscillator, 0.5)
        z = partition_function(oscillator, 1.0)
        assert thermal_purity(oscillator, 1.0) == pytest.approx(z_half / z**2, rel=1e-13)
        assert thermal_purity(oscillator, 1.0) == pytest.approx(math.tanh(0.5), abs=1e-14)

    def test_identity_with_tanh_everywhere(self, oscillator):
        for T in np.geomspace(0.05, 100.0, 300):
            direct = partition_function(oscillator, T / 2.0) / partition_function(oscillator, T) ** 2
            assert abs(direct - math.tanh(1.0 / (2.0 * T))) < 1e-12
            assert abs(thermal_purity(oscillator, float(T)) - math.tanh(1.0 / (2.0 * T))) < 1e-12

    def test_high_temperature_asymptote(self, oscillator):
        mu = thermal_purity(oscillator, 50.0)
        assert mu == pytest.approx(0.01, rel=4e-5)
        for T in (5.0, 10.0, 50.0, 200.0):
            assert abs(thermal_purity(oscillator, T) * 2.0 * T - 1.0) < 0.01

    def test_low_temperature_approaches_pure(self, oscillator):
        assert thermal_purity(oscillator, 0.05) == pytest.approx(1.0, abs=5e-9)

    def test_monotone_decreasing_and_phi_increasing(self, oscillator):
        grid = np.geomspace(0.05, 100.0, 200)
        mus = [thermal_purity(oscillator, float(T)) for T in grid]
        assert all(b < a for a, b in zip(mus, mus[1:]))
        phis = [phi(mu, "exact") for mu in mus]
        assert all(b > a for a, b in zip(phis, phis[1:]))

    def test_spectrum_purity_equals_squared_weight_sum(self):
        model = ThermalModel.from_spectrum(np.arange(300) + 0.5)
        w = np.exp(-(np.arange(300) + 0.5) / 1.0)
        w /= w.sum()
        assert thermal_purity(model, 1.0) == pytest.approx(float(np.sum(w**2)), rel=1e-12)


class TestThermalState:
    def test_fock_rendering_matches_purity(self, oscillator):
        state = thermal_state_fock(oscillator, 1.0, dim=60)
        assert purity(state) == pytest.approx(thermal_purity(oscillator, 1.0), abs=1e-10)

    @pytest.mark.parametrize("dim", [0, 1, -3])
    def test_dimension_below_two_rejected(self, oscillator, dim):
        with pytest.raises(ValueError, match="dimension must be >= 2"):
            thermal_state_fock(oscillator, 1.0, dim=dim)

    def test_mean_occupation(self, oscillator):
        assert oscillator_mean_occupation(oscillator, 1.0) == pytest.approx(
            1.0 / (math.e - 1.0), rel=1e-14
        )

    def test_mean_occupation_past_expm1_overflow(self, oscillator):
        # 1 / expm1(x) is kept bit for bit while expm1 is finite (x < 709.78)
        # and continues as exp(-x) beyond, down to 0.
        for x in (700.0, 709.78):
            assert oscillator_mean_occupation(oscillator, 1.0 / x) == 1.0 / math.expm1(x)
        assert oscillator_mean_occupation(oscillator, 1.0 / 709.8) == math.exp(-709.8)
        assert oscillator_mean_occupation(oscillator, 1e-6) == 0.0


class TestThermalBoundReport:
    def test_ground_state_limit(self, oscillator):
        report = thermal_bound_report(oscillator, 0.05, r=0.0)
        assert report.purity_bound == pytest.approx(0.25, abs=1e-7)
        assert report.product - report.purity_bound == pytest.approx(0.0, abs=1e-6)
        assert report.purity_pass

    @pytest.mark.parametrize("T", [1e-3, 1e-6])
    def test_report_below_expm1_overflow_temperature(self, oscillator, T):
        report = thermal_bound_report(oscillator, T)
        assert report.product == (oscillator.hbar / 2.0) ** 2
        assert report.heisenberg_pass and report.sr_pass and report.purity_pass

    def test_unit_temperature_chain(self, oscillator):
        """Every step of the T=1 chain pinned: mu, Phi, bound, actual product."""
        report = thermal_bound_report(oscillator, 1.0, r=0.0)
        mu = math.tanh(0.5)
        expected_phi = 3.0 - math.sqrt(8.0 * (mu - 1.0 / 3.0))
        assert report.phi_value == pytest.approx(expected_phi, abs=1e-12)
        assert report.phi_piece == "rank-3"
        assert report.purity_bound == pytest.approx(expected_phi**2 / 4.0, abs=1e-12)
        n_bar = 1.0 / (math.e - 1.0)
        assert report.product == pytest.approx((n_bar + 0.5) ** 2, abs=1e-12)
        assert report.product > report.purity_bound
        assert report.purity_pass

    def test_actual_product_cross_checked_against_fock_matrix(self, oscillator):
        from purity_bounds import compute_moments

        m = compute_moments(thermal_state_fock(oscillator, 1.0, dim=60))
        report = thermal_bound_report(oscillator, 1.0)
        assert m.sigma_qq * m.sigma_pp == pytest.approx(report.product, abs=1e-10)

    def test_spectrum_model_reports_bound_only(self):
        model = ThermalModel.from_spectrum(np.arange(200) + 0.5)
        report = thermal_bound_report(model, 1.0)
        assert math.isnan(report.product)
        assert report.purity_pass is None
        assert report.purity_bound > 0.0

    def test_correlation_tightens_the_bound(self, oscillator):
        plain = thermal_bound_report(oscillator, 1.0, r=0.0)
        tilted = thermal_bound_report(oscillator, 1.0, r=0.6)
        assert tilted.purity_bound > plain.purity_bound


class TestThermalSweep:
    def test_high_temperature_hbar_eff_doubles(self, oscillator):
        hbar_eff = thermal_sweep(oscillator, 50.0, 100.0, steps=2)["hbar_eff"]
        ratio = hbar_eff[1] / hbar_eff[0]
        assert 1.98 <= ratio <= 2.02

    def test_single_low_temperature_point_consistency(self, oscillator):
        table = thermal_sweep(oscillator, 0.05, 0.06, steps=2)
        assert table["mu"][0] == pytest.approx(thermal_purity(oscillator, 0.05), abs=1e-14)
        assert table["phi"][0] == pytest.approx(1.0, abs=1e-7)
        assert table["hbar_eff"][0] == pytest.approx(1.0, abs=1e-7)
        assert table["Z"][0] == pytest.approx(partition_function(oscillator, 0.05), rel=1e-13)

    def test_grid_is_logarithmic(self, oscillator):
        values = thermal_sweep(oscillator, 1.0, 100.0, steps=3)["T"]
        assert values == pytest.approx([1.0, 10.0, 100.0], rel=1e-12)

    def test_argument_validation(self, oscillator):
        with pytest.raises(ValueError):
            thermal_sweep(oscillator, 5.0, 1.0, steps=4)
        with pytest.raises(ValueError):
            thermal_sweep(oscillator, 1.0, 5.0, steps=1)


class TestHighTemperaturePrecision:
    TEMPERATURES = np.geomspace(1e-3, 1e15, 361)

    @pytest.mark.parametrize("hbar, omega", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.3)])
    def test_purity_matches_tanh(self, hbar, omega):
        # The log-domain ratio Z(T/2) / Z(T)^2 carries the rounding of log Z
        # itself, about eps * |log Z| (1.5e-14 at T = 1e14); allow 4x that.
        model = ThermalModel.oscillator(hbar=hbar, omega=omega)
        eps = np.finfo(float).eps
        for T in map(float, self.TEMPERATURES):
            err = abs(thermal_purity(model, T) / math.tanh(hbar * omega / (2.0 * T)) - 1.0)
            assert err <= 4.0 * eps * max(1.0, abs(log_partition_function(model, T))), T

    def test_partition_function_matches_sinh(self, oscillator):
        # Z = 1 / (2 sinh x), x = 1 / (2T); sinh is accurate at every x here.
        worst = max(abs(partition_function(oscillator, float(T)) * 2.0 * math.sinh(0.5 / T) - 1.0)
                    for T in self.TEMPERATURES)
        assert worst <= 1e-14


class TestLogSumExp:
    """``_logsumexp`` reproduces ``scipy.special.logsumexp`` bit for bit."""

    def _assert_same(self, a, axis=None):
        ours, theirs = _logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis)
        assert np.array_equal(ours, theirs, equal_nan=True), (a, ours, theirs)
        assert np.shape(ours) == np.shape(theirs)

    def test_random_inputs_across_magnitudes(self):
        rng = np.random.default_rng(20240601)
        for scale in np.geomspace(1e-3, 1e3, 13):
            for _ in range(40):
                self._assert_same(scale * rng.normal(size=int(rng.integers(1, 30))))
                self._assert_same(scale * rng.normal(size=(7, int(rng.integers(1, 30)))), axis=1)

    def test_minus_inf_entries_and_tied_maxima(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(50, 12)) * 30.0
        a[::2, 3] = -np.inf
        a[::3, :4] = -np.inf
        a[1::2, 5] = a[1::2, 7] = a[1::2].max(axis=1)
        a[4, :] = 2.5
        self._assert_same(a, axis=1)
        for row in a:
            self._assert_same(row)

    def test_all_minus_inf_row(self):
        a = np.array([[-np.inf, -np.inf, -np.inf], [0.0, -1.0, -np.inf]])
        self._assert_same(a, axis=1)
        assert _logsumexp(a[0]) == -np.inf

    def test_plus_inf_entry(self):
        self._assert_same(np.array([1.0, np.inf, -np.inf]))
        self._assert_same(np.array([[np.inf, 2.0], [np.inf, np.inf]]), axis=1)
        assert _logsumexp(np.array([1.0, np.inf])) == np.inf

    def test_empty_input(self):
        self._assert_same(np.array([]))
        self._assert_same(np.zeros((3, 0)), axis=1)
