import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from purity_bounds import (
    ParabolicBarrier,
    RectangularBarrier,
    ResolutionError,
    SampledBarrier,
    ThermalModel,
    action_integral,
    phi,
    transparency,
    transparency_vs_purity,
    transparency_vs_temperature,
    tunneling,
)


@pytest.fixture
def rect():
    return RectangularBarrier(v0=1.0, width=1.0, mass=1.0)


@pytest.fixture
def parabolic():
    return ParabolicBarrier(v0=1.0, curvature=2.0, mass=1.0)


class TestClosedForms:
    def test_rectangular_action_and_transparency(self, rect):
        res = transparency(rect, energy=0.5, hbar_eff=1.0)
        assert res.action_integral == pytest.approx(1.0, abs=1e-12)
        assert res.D == pytest.approx(math.exp(-2.0), abs=1e-12)
        assert res.turning_points == (0.0, 1.0)

    def test_above_barrier_is_transparent(self, rect):
        res = transparency(rect, energy=1.5, hbar_eff=1.0)
        assert res.D == 1.0
        assert res.ln_D == 0.0
        assert res.action_integral == 0.0
        assert res.turning_points is None

    def test_effective_hbar_rescales_exponent(self, rect):
        hbar_eff = 3.0 - math.sqrt(4.0 / 3.0)  # Phi at purity 1/2
        res = transparency(rect, energy=0.5, hbar_eff=hbar_eff)
        assert res.ln_D == pytest.approx(-2.0 / hbar_eff, abs=1e-12)
        assert res.D == pytest.approx(math.exp(-2.0 / hbar_eff), abs=1e-12)

    def test_parabolic_closed_form(self, parabolic):
        res = transparency(parabolic, energy=0.5, hbar_eff=1.0)
        expected_action = math.pi * 0.5 * math.sqrt(0.5)
        assert res.action_integral == pytest.approx(expected_action, abs=1e-14)
        x_t = math.sqrt(0.5)
        assert res.turning_points == pytest.approx((-x_t, x_t), abs=1e-14)

    def test_energy_must_be_positive(self, rect):
        with pytest.raises(ValueError):
            transparency(rect, energy=0.0, hbar_eff=1.0)
        with pytest.raises(ValueError):
            transparency(rect, energy=math.nan, hbar_eff=1.0)
        with pytest.raises(ValueError, match="energy inf"):
            transparency(rect, energy=math.inf, hbar_eff=1.0)

    def test_hbar_eff_must_be_positive(self, rect):
        with pytest.raises(ValueError):
            transparency(rect, energy=0.5, hbar_eff=0.0)
        with pytest.raises(ValueError):
            transparency(rect, energy=0.5, hbar_eff=math.nan)
        with pytest.raises(ValueError, match="hbar_eff inf"):
            transparency(rect, energy=0.5, hbar_eff=math.inf)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_fields_rejected(self, bad):
        for fields in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                RectangularBarrier(*fields)
            with pytest.raises(ValueError, match="finite"):
                ParabolicBarrier(*fields)


class TestQuadrature:
    def test_parabolic_quadrature_matches_closed_form(self, parabolic):
        """The cosine-mapped rule over the callable potential is the oracle for
        the closed-form parabolic action."""
        x_t = math.sqrt(0.5)
        action = action_integral(
            lambda x: 1.0 - x * x, energy=0.5, mass=1.0, x1=-x_t, x2=x_t
        )
        closed = transparency(parabolic, 0.5, 1.0).action_integral
        assert abs(action - closed) < 1e-8

    def test_rectangular_quadrature_is_exact(self):
        action = action_integral(lambda x: 1.0, energy=0.5, mass=1.0, x1=0.0, x2=1.0)
        assert action == pytest.approx(1.0, abs=1e-12)

    def test_empty_interval(self):
        assert action_integral(lambda x: 1.0, 0.5, 1.0, 2.0, 2.0) == 0.0


class TestSampledBarriers:
    def test_flat_sampled_barrier_matches_rectangular(self, rect):
        x = np.linspace(0.0, 1.0, 10_000)
        barrier = SampledBarrier(x=x, v=np.ones_like(x), mass=1.0)
        res = transparency(barrier, 0.5, 1.0)
        assert abs(res.action_integral - 1.0) < 1e-6
        assert res.turning_points == (0.0, 1.0)

    def test_sampled_parabola_matches_closed_form(self, parabolic):
        x = np.linspace(-1.2, 1.2, 10_000)
        barrier = SampledBarrier(x=x, v=1.0 - x * x, mass=1.0)
        res = transparency(barrier, 0.5, 1.0)
        closed = transparency(parabolic, 0.5, 1.0)
        assert abs(res.action_integral - closed.action_integral) < 1e-6
        assert res.turning_points[1] == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_sampled_below_energy_is_transparent(self):
        x = np.linspace(0.0, 1.0, 64)
        barrier = SampledBarrier(x=x, v=0.3 * np.ones_like(x), mass=1.0)
        assert transparency(barrier, 0.5, 1.0).D == 1.0

    def test_spike_grid_too_coarse(self):
        x = np.linspace(0.0, 1.0, 8)
        v = np.zeros_like(x)
        v[4] = 1.0
        barrier = SampledBarrier(x=x, v=v, mass=1.0)
        with pytest.raises(ResolutionError):
            transparency(barrier, 0.5, 1.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SampledBarrier(x=np.arange(6.0), v=np.ones(6))
        with pytest.raises(ValueError):
            SampledBarrier(x=np.zeros(10), v=np.ones(10))
        with pytest.raises(ValueError):
            SampledBarrier(x=np.arange(10.0), v=np.ones(9))
        x = np.linspace(-4.0, 4.0, 81)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                SampledBarrier(x=np.where(x == -3.0, bad, x), v=np.exp(-x * x))
            with pytest.raises(ValueError, match="finite"):
                SampledBarrier(x=x, v=np.where(x == -3.0, bad, np.exp(-x * x)))

    def test_caller_arrays_stay_writable_and_apart(self):
        x = np.linspace(-4.0, 4.0, 81)
        v = np.exp(-x * x)
        barrier = SampledBarrier(x=x, v=v)
        x[0], v[40] = -5.0, 2.0
        assert barrier.x[0] == -4.0 and barrier.v[40] == 1.0
        assert barrier.x.readonly and barrier.v.readonly
        assert not np.asarray(barrier.x).flags.writeable

    def test_two_humps_raise(self):
        """A second interval with V > E is an error, not silently dropped."""
        x = np.linspace(-8.0, 8.0, 401)
        barrier = SampledBarrier(x=x, v=np.exp(-(x + 3.0) ** 2) + 0.9 * np.exp(-(x - 3.0) ** 2))
        with pytest.raises(ValueError, match="2 separate intervals"):
            transparency(barrier, 0.5, 1.0)


GOLDEN_SAMPLED = Path(__file__).resolve().parent / "golden" / "inputs" / "sampled.json"


class TestSampledKernel:
    """The pure-Python PCHIP slopes against scipy's ``PchipInterpolator`` (tests only)."""

    def test_slopes_match_reference(self):
        rng = np.random.default_rng(20261018)
        clamps = set()
        for trial in range(200):
            n = int(rng.integers(8, 40))
            x = np.cumsum(rng.uniform(0.02, 1.0, n))
            v = rng.normal(size=n)
            if trial % 3 == 0:  # a flat run of three equal nodes
                v[int(rng.integers(0, n - 3)):][:3] = v[0]
            ours = tunneling._pchip_slopes(x.tolist(), v.tolist())
            # The reference slope at the last node comes from evaluating the
            # last segment's derivative at its right end, which rounds.
            ref = PchipInterpolator(x, v).derivative()(x)
            np.testing.assert_allclose(ours, ref, rtol=1e-15, atol=1e-15 * np.abs(ref).max())
            m = np.diff(v) / np.diff(x)
            for slope, secant in ((ours[0], m[0]), (ours[-1], m[-1])):
                if slope == 0.0 and secant != 0.0:
                    clamps.add("sign")
                elif slope == 3.0 * secant:
                    clamps.add("overshoot")
        assert clamps == {"sign", "overshoot"}

    def test_turning_points_match_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = np.concatenate(([-4.0], -4.0 + 8.0 * np.sort(rng.uniform(size=78)), [4.0]))
            v = np.exp(-(x - rng.uniform(-1.0, 1.0)) ** 2 / rng.uniform(0.5, 2.0))
            energy = rng.uniform(0.1, 0.8) * v.max()
            roots = PchipInterpolator(x, v, extrapolate=False).solve(energy)
            points = transparency(SampledBarrier(x=x, v=v), energy, 1.0).turning_points
            np.testing.assert_allclose(points, roots, rtol=0.0, atol=1e-13)

    def test_gaussian_probe_action(self):
        """exp(-x^2) on 2001 nodes at E = 0.5 against the exact action of the
        continuous barrier (mpmath, 30 digits)."""
        x = np.linspace(-4.0, 4.0, 2001)
        action = transparency(SampledBarrier(x=x, v=np.exp(-x * x)), 0.5, 1.0).action_integral
        assert abs(action / 1.2489878585695742 - 1.0) < 1e-10

    @pytest.mark.parametrize("order", (16, 32))
    def test_newton_rule_matches_golub_welsch(self, order):
        """The Newton-method rule against the Golub-Welsch one (numpy's
        ``eigh``, in this test only): cos(theta) within 3 ulp of 1 (2 at
        most measured), and the weights within 48 ulp of the largest weight.
        That is the error of the Golub-Welsch weights themselves: against a
        40-digit rule they are off by up to 27 (16 nodes) and 37 (32 nodes)
        ulp of the largest weight, the Newton weights by 1 and 5."""
        k = np.arange(1.0, order)
        beta = k / np.sqrt(4.0 * k * k - 1.0)
        nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
        theta = 0.5 * np.pi * (nodes + 1.0)
        weights = np.pi * vectors[0] ** 2 * np.sin(theta)
        ours_cos, ours_weights = tunneling._cosine_rule(order)
        assert np.max(np.abs(np.subtract(ours_cos, np.cos(theta)))) <= 3 * math.ulp(1.0)
        assert np.max(np.abs(np.subtract(ours_weights, weights))) <= 48 * math.ulp(weights.max())

    def test_rule_converged_at_16_nodes(self, monkeypatch):
        data = json.loads(GOLDEN_SAMPLED.read_text(encoding="utf-8"))
        barrier = SampledBarrier(x=data["x"], v=data["v"], mass=data["mass"])
        assert tunneling._RULE_NODES == 16
        action16 = transparency(barrier, 0.5, 1.0).action_integral
        monkeypatch.setattr(tunneling, "_RULE_NODES", 32)
        action32 = transparency(barrier, 0.5, 1.0).action_integral
        assert abs(action32 / action16 - 1.0) < 1e-14


class TestScalingAndMonotonicity:
    def test_exponent_scaling_law(self, rect):
        """ln D times hbar_eff equals -2 action independently of hbar_eff."""
        base = transparency(rect, 0.5, 1.0)
        for hbar_eff in (0.3, 1.0, 2.7, 11.0):
            res = transparency(rect, 0.5, hbar_eff)
            assert abs(res.ln_D * hbar_eff + 2.0 * base.action_integral) < 1e-12

    def test_transparency_monotone_in_hbar_eff_and_energy(self, rect):
        d_values = [transparency(rect, 0.5, h).D for h in np.linspace(0.2, 3.0, 15)]
        assert all(b > a for a, b in zip(d_values, d_values[1:]))
        e_values = [transparency(rect, e, 1.0).D for e in np.linspace(0.1, 0.99, 15)]
        assert all(b > a for a, b in zip(e_values, e_values[1:]))

    def test_transparency_monotone_in_geometry(self):
        widths = [transparency(RectangularBarrier(1.0, w), 0.5, 1.0).D for w in (0.5, 1.0, 2.0)]
        assert widths[0] > widths[1] > widths[2]
        heights = [transparency(RectangularBarrier(v, 1.0), 0.5, 1.0).D for v in (0.8, 1.0, 1.5)]
        assert heights[0] > heights[1] > heights[2]


class TestPuritySweep:
    def test_pure_state_limit(self, rect):
        table = transparency_vs_purity(rect, 0.5, 1.0, 0.0, [1.0])
        assert table["D"][0] == pytest.approx(math.exp(-2.0), abs=1e-12)
        assert table["hbar_eff"][0] == 1.0

    def test_enhancement_direction(self, rect):
        grid = [0.9, 0.7, 0.5, 0.45]
        d_values = transparency_vs_purity(rect, 0.5, 1.0, 0.0, grid)["D"]
        assert all(b > a for a, b in zip(d_values, d_values[1:]))

    def test_asymptote_invariant_is_exactly_constant(self, rect):
        grid = [0.01, 0.005, 0.002]
        table = transparency_vs_purity(rect, 0.5, 1.0, 0.0, grid, phi_mode="asymptote")
        invariants = table["invariant_product"]
        assert max(invariants) - min(invariants) < 1e-12
        # ln D = -2 A * 9 mu / 8, so mu^-1 ln D = -9 A / 4
        assert invariants[0] == pytest.approx(-9.0 / 4.0, abs=1e-12)

    def test_interpolation_invariant_nearly_constant(self, rect):
        grid = [0.01, 0.005, 0.002]
        table = transparency_vs_purity(rect, 0.5, 1.0, 0.0, grid, phi_mode="interpolation")
        invariants = table["invariant_product"]
        spread = (max(invariants) - min(invariants)) / abs(invariants[0])
        assert spread < 1e-4

    def test_correlation_enters_effective_hbar(self, rect):
        table = transparency_vs_purity(rect, 0.5, 1.0, 0.8, [1.0])
        assert table["hbar_eff"][0] == pytest.approx(1.0 / 0.6, abs=1e-12)


class TestTemperatureSweep:
    def test_asymptote_mode_invariant_exactly_constant(self, rect):
        model = ThermalModel()
        grid = [50.0, 100.0, 200.0, 500.0]
        table = transparency_vs_temperature(rect, 0.5, model, grid, phi_mode="asymptote")
        invariants = table["invariant_product"]
        assert max(invariants) - min(invariants) < 1e-10

    def test_exact_purity_with_interpolation_within_one_percent(self, rect):
        model = ThermalModel()
        grid = [50.0, 100.0, 200.0, 500.0]
        table = transparency_vs_temperature(
            rect, 0.5, model, grid, phi_mode="interpolation"
        )
        invariants = table["invariant_product"]
        assert max(invariants) / min(invariants) == pytest.approx(1.0, abs=0.01)

    def test_low_temperature_matches_bare_transparency(self, rect):
        model = ThermalModel()
        table = transparency_vs_temperature(rect, 0.5, model, [0.05])
        assert table["D"][0] == pytest.approx(math.exp(-2.0), abs=1e-6)

    def test_records_carry_exact_purity_by_default(self, rect):
        model = ThermalModel()
        table = transparency_vs_temperature(rect, 0.5, model, [2.0])
        assert table["mu"][0] == pytest.approx(math.tanh(0.25), abs=1e-12)
        assert table["phi"][0] == pytest.approx(phi(math.tanh(0.25)), abs=1e-12)
