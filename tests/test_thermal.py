import json
import math
import os
import platform
import random
import subprocess
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from purity_bounds import (
    ThermalModel,
    log_partition_function,
    oscillator_mean_occupation,
    partition_function,
    phi,
    purity,
    thermal_bound_report,
    thermal_purity,
    thermal_state_fock,
    thermal_sweep,
)
from purity_bounds.errors import InvalidStateError
from purity_bounds.thermal import temperature_grid


@pytest.fixture
def oscillator():
    return ThermalModel()


def level_weights(T: float, levels: int = 300) -> np.ndarray:
    """Boltzmann factors exp(-(n + 1/2)/T) of the first ``levels`` oscillator levels."""
    return np.exp(-(np.arange(levels) + 0.5) / T)


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
        # independent oracle: Z as the sum over the levels (n + 1/2)
        assert partition_function(oscillator, 1.0) == pytest.approx(
            float(level_weights(1.0).sum()), abs=1e-12
        )

    def test_log_domain_survives_tiny_temperature(self, oscillator):
        lz = log_partition_function(oscillator, 1e-4)
        assert lz == pytest.approx(-5000.0, rel=1e-12)
        assert math.isfinite(lz)

    @pytest.mark.parametrize("x", [349.9, 350.0, 350.1, 700.0])
    def test_log_domain_is_exactly_minus_x_at_low_temperature(self, oscillator, x):
        # -expm1(-2x) rounds to 1 for x above ~18.4, so log Z is -x to the bit.
        T = 1.0 / (2.0 * x)
        assert log_partition_function(oscillator, T) == -1.0 / (2.0 * T)

    def test_log_domain_at_overflowing_inverse_temperature(self, oscillator):
        # 1 / (2 T) overflows to inf at the smallest subnormal T.
        assert log_partition_function(oscillator, 5e-324) == -math.inf

    def test_partition_function_past_the_float_range_is_inf(self):
        # Z ~ T / (hbar omega) = 2e308; log Z is finite, Z is not.
        model = ThermalModel(omega=0.5)
        assert math.isfinite(log_partition_function(model, 1e308))
        assert partition_function(model, 1e308) == math.inf
        assert partition_function(model, 5e307) == pytest.approx(1e308, rel=1e-12)

    def test_temperature_domain(self, oscillator):
        with pytest.raises(ValueError):
            partition_function(oscillator, 0.0)
        with pytest.raises(ValueError):
            partition_function(oscillator, -1.0)

    def test_general_units(self):
        model = ThermalModel(hbar=2.0, omega=3.0)
        assert partition_function(model, 1.0) == pytest.approx(
            1.0 / (2.0 * math.sinh(3.0)), rel=1e-14
        )

    def test_oscillator_takes_no_spectrum(self):
        # The model is the oscillator alone: its fields are its three scales.
        assert ThermalModel._fields == ("hbar", "mass", "omega")
        with pytest.raises(TypeError):
            ThermalModel(spectrum=np.array([1.0]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_non_finite_or_nonpositive_scales_rejected(self, bad):
        for fields in ({"hbar": bad}, {"mass": bad}, {"omega": bad}):
            with pytest.raises(ValueError, match="positive and finite"):
                ThermalModel(**fields)


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

    def test_temperature_past_the_overflow_of_2t(self, oscillator):
        """2T overflows above T ~ 9e307; mu and log Z there are tanh(1/2T) and
        log T, not the purity 0 and the math domain error of 1/inf."""
        for T in (1e308, sys.float_info.max):
            assert thermal_purity(oscillator, T) == 0.5 / T > 0.0
            assert log_partition_function(oscillator, T) == pytest.approx(math.log(T), rel=1e-15)

    def test_low_temperature_approaches_pure(self, oscillator):
        assert thermal_purity(oscillator, 0.05) == pytest.approx(1.0, abs=5e-9)

    def test_monotone_decreasing_and_phi_increasing(self, oscillator):
        grid = np.geomspace(0.05, 100.0, 200)
        mus = [thermal_purity(oscillator, float(T)) for T in grid]
        assert all(b < a for a, b in zip(mus, mus[1:]))
        phis = [phi(mu, "exact") for mu in mus]
        assert all(b > a for a, b in zip(phis, phis[1:]))

    def test_spectrum_purity_equals_squared_weight_sum(self, oscillator):
        w = level_weights(1.0)
        w /= w.sum()
        assert thermal_purity(oscillator, 1.0) == pytest.approx(float(np.sum(w**2)), rel=1e-12)


class TestThermalState:
    def test_fock_rendering_matches_purity(self, oscillator):
        state = thermal_state_fock(oscillator, 1.0, dim=60)
        assert purity(state) == pytest.approx(thermal_purity(oscillator, 1.0), abs=1e-10)

    @pytest.mark.parametrize("hbar, omega", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.3)])
    @pytest.mark.parametrize("dim", [2, 10, 60])
    def test_fock_weights_are_truncated_geometric(self, hbar, omega, dim):
        # independent oracle: (1 - q) q^n / (1 - q^dim), q = exp(-x), x = hbar omega / T,
        # in 50-digit decimals.  Each weight is exp(-n x) up to normalisation, so
        # it inherits the rounding of its exponent, n x eps relative: the
        # tolerance is 1e-15 times max(1, n x).  Subnormal weights carry no
        # relative precision and are only required to be subnormal.
        model = ThermalModel(hbar=hbar, omega=omega)
        n = np.arange(dim)
        for T in map(float, np.geomspace(1e-3, 1e6, 91)):
            w = np.array(thermal_state_fock(model, T, dim).populations())
            with localcontext() as ctx:
                ctx.prec = 50
                q = (-Decimal(hbar) * Decimal(omega) / Decimal(T)).exp()
                expected = np.array([float((1 - q) * q**k / (1 - q**dim)) for k in range(dim)])
            normal = expected >= sys.float_info.min
            scale = np.maximum(1.0, n * hbar * omega / T)[normal]
            assert np.all(np.abs(w[normal] / expected[normal] - 1.0) <= 1e-15 * scale), T
            assert np.all(w[~normal] < sys.float_info.min), T

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
        report = thermal_bound_report(oscillator, 0.05)
        assert report.bounds["purity"] == pytest.approx(0.25, abs=1e-7)
        assert report.product - report.bounds["purity"] == pytest.approx(0.0, abs=1e-6)
        assert report.flags["purity"]

    @pytest.mark.parametrize("T", [1e-3, 1e-6])
    def test_report_below_expm1_overflow_temperature(self, oscillator, T):
        report = thermal_bound_report(oscillator, T)
        assert report.product == (oscillator.hbar / 2.0) ** 2
        assert all(report.flags.values())

    def test_unit_temperature_chain(self, oscillator):
        """Every step of the T=1 chain pinned: mu, Phi, bound, actual product."""
        report = thermal_bound_report(oscillator, 1.0)
        mu = math.tanh(0.5)
        expected_phi = 3.0 - math.sqrt(8.0 * (mu - 1.0 / 3.0))
        assert report.phi.value == pytest.approx(expected_phi, abs=1e-12)
        assert report.phi.piece == "rank-3"
        assert report.bounds["purity"] == pytest.approx(expected_phi**2 / 4.0, abs=1e-12)
        n_bar = 1.0 / (math.e - 1.0)
        assert report.product == pytest.approx((n_bar + 0.5) ** 2, abs=1e-12)
        assert report.product > report.bounds["purity"]
        assert report.flags["purity"]

    def test_actual_product_cross_checked_against_fock_matrix(self, oscillator):
        from purity_bounds import compute_moments

        m = compute_moments(thermal_state_fock(oscillator, 1.0, dim=60))
        report = thermal_bound_report(oscillator, 1.0)
        assert m.sigma_qq * m.sigma_pp == pytest.approx(report.product, abs=1e-10)

    def test_overflowing_product_is_a_value_error(self):
        # sigma_qq = (n_bar + 1/2) hbar / omega ~ 1.1e400 at T = 1; at T = 1e110
        # (n_bar + 1/2) hbar is inf already, and so is each variance.  The thermal
        # state is validated as a state file is: the error names the variance.
        model = ThermalModel(hbar=1e200, omega=1e-200)
        for T in (1.0, 1e110):
            with pytest.raises(InvalidStateError, match=r"finite \(sigma_qq = inf is not finite\)"):
                thermal_bound_report(model, T)

    def test_variances_do_not_overflow_through_hbar_times_mass(self):
        # hbar m = 1e350 overflows; hbar omega = 1, and the variances ~1.1e100 and ~1.1e200 do not.
        report = thermal_bound_report(ThermalModel(hbar=1e150, mass=1e200, omega=1e-150), 1.0)
        occupation = 0.5 / math.tanh(0.5)  # n_bar + 1/2 at hbar omega / T = 1
        assert report.product == pytest.approx((occupation * 1e150) ** 2, rel=1e-14)
        assert all(report.flags.values())


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


def seeded_grids() -> list[tuple[float, float, int]]:
    """Wide grids, spans of 1e-6 relative, two-point grids and [1e-3, 1e15]."""
    rng = random.Random(2024)
    grids = [(1e-3, 1e15, n) for n in (2, 3, 19, 361)]
    for kind in range(3000):
        t_min = 10.0 ** rng.uniform(-12.0, 12.0)
        if kind % 3 == 0:
            t_max = t_min * 10.0 ** rng.uniform(1e-3, 12.0)
        else:
            t_max = t_min * (1.0 + 1e-6 * rng.uniform(1.0, 10.0))
        grids.append((t_min, t_max, 2 if kind % 3 == 2 else rng.randint(2, 200)))
    return grids


class TestTemperatureGrid:
    def test_endpoints_are_exact_and_the_grid_ascends(self):
        for t_min, t_max, steps in seeded_grids():
            grid = temperature_grid(t_min, t_max, steps)
            assert len(grid) == steps and grid[0] == t_min and grid[-1] == t_max
            assert grid == sorted(grid)

    def test_grid_is_geomspace_on_its_scalar_path(self):
        # np.geomspace forms 10 ** (i * step + log10 t_min) with the same libm
        # calls on its scalar path; its AVX-512 loops can differ in the last
        # bit, so the reference runs in a child with them disabled.
        if platform.machine().lower() not in ("x86_64", "amd64"):
            pytest.skip("NPY_DISABLE_CPU_FEATURES=X86_V4 names x86-64 features")
        grids = seeded_grids()
        child = subprocess.run(
            [sys.executable, "-c", "import json, sys, numpy as np; "
             "json.dump([np.geomspace(*g).tolist() for g in json.load(sys.stdin)], sys.stdout)"],
            input=json.dumps(grids), capture_output=True, text=True, check=False,
            env={**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4"},
        )
        if child.returncode != 0:
            pytest.skip(f"numpy cannot run without X86_V4: {child.stderr.strip()[-200:]}")
        expected = json.loads(child.stdout)
        for (t_min, t_max, steps), reference in zip(grids, expected, strict=True):
            grid = temperature_grid(t_min, t_max, steps)
            assert list(map(float.hex, grid)) == list(map(float.hex, reference)), (t_min, t_max)


class TestHighTemperaturePrecision:
    TEMPERATURES = np.geomspace(1e-3, 1e15, 361)

    @pytest.mark.parametrize("hbar, omega", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.3)])
    def test_purity_matches_tanh(self, hbar, omega):
        # independent oracle: tanh of the same double x = hbar omega / 2T in
        # 40-digit decimals, (1 - e^(-2x)) / (1 + e^(-2x)); the cancellation
        # at x = 5e-16 leaves about 25 digits, far below the 2 eps allowed.
        model = ThermalModel(hbar=hbar, omega=omega)
        eps = Decimal(sys.float_info.epsilon)
        for T in map(float, self.TEMPERATURES):
            with localcontext() as ctx:
                ctx.prec = 40
                e = (-2 * Decimal(hbar * omega / (2.0 * T))).exp()
                err = abs(Decimal(thermal_purity(model, T)) / ((1 - e) / (1 + e)) - 1)
            assert err <= 2 * eps, T

    def test_partition_function_matches_sinh(self, oscillator):
        # Z = 1 / (2 sinh x), x = 1 / (2T); sinh is accurate at every x here.
        worst = max(abs(partition_function(oscillator, float(T)) * 2.0 * math.sinh(0.5 / T) - 1.0)
                    for T in self.TEMPERATURES)
        assert worst <= 1e-14
