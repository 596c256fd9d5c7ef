import math

import numpy as np
import pytest

from purity_bounds import (
    RectangularBarrier,
    dephase_step,
    diagonal_mixture,
    fock_projector,
    pure_state_density,
    purity,
    run_trajectory,
    validate_state,
)


@pytest.fixture
def plus_state():
    """Equal |0>/|1> superposition with two spare basis levels."""
    return pure_state_density([1.0, 1.0], dim=4)


@pytest.fixture
def rect():
    return RectangularBarrier(v0=1.0, width=1.0, mass=1.0)


class TestDephaseStep:
    def test_diagonal_states_are_fixed_points(self):
        state = diagonal_mixture([0.3, 0.3, 0.4], dim=5)
        stepped = dephase_step(state, gamma=2.0, dt=1.5)
        np.testing.assert_array_equal(stepped.entries, state.entries)

    def test_full_dephasing_of_equal_superposition(self, plus_state):
        stepped = dephase_step(plus_state, gamma=1.0, dt=500.0)
        assert purity(stepped) == pytest.approx(0.5, abs=1e-12)
        assert abs(stepped.entries[0, 1]) < 1e-200

    def test_partial_dephasing_purity(self, plus_state):
        """mu = 1/2 + 2 |rho_01|^2 with rho_01 = e^(-1)/2 after gamma dt = 1."""
        stepped = dephase_step(plus_state, gamma=1.0, dt=1.0)
        off = 0.5 * math.exp(-1.0)
        assert stepped.entries[0, 1].real == pytest.approx(off, abs=1e-15)
        direct_sum = float(np.sum(np.abs(stepped.entries) ** 2))
        assert direct_sum == pytest.approx(0.5 + 2.0 * off**2, abs=1e-15)
        assert purity(stepped) == pytest.approx(direct_sum, abs=1e-12)

    def test_semigroup_composition(self, plus_state):
        """n steps of dt match one step of n dt to machine precision."""
        once = dephase_step(plus_state, gamma=0.7, dt=0.9)
        split = plus_state
        for _ in range(3):
            split = dephase_step(split, gamma=0.7, dt=0.3)
        assert np.max(np.abs(split.entries - once.entries)) < 1e-12

    def test_state_invariants_preserved(self):
        from purity_bounds import FockDensityMatrix

        rng = np.random.default_rng(13)
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = z @ z.conj().T
        rho /= np.trace(rho).real
        state = FockDensityMatrix(dim=6, entries=rho)
        stepped = dephase_step(state, gamma=0.4, dt=2.0)
        assert validate_state(stepped) == []

    def test_negative_gamma_rejected(self, plus_state):
        with pytest.raises(ValueError):
            dephase_step(plus_state, gamma=-0.1, dt=1.0)

    def test_nonpositive_dt_rejected(self, plus_state):
        with pytest.raises(ValueError):
            dephase_step(plus_state, gamma=1.0, dt=0.0)

    def test_nan_rate_and_step_rejected(self, plus_state):
        with pytest.raises(ValueError, match="gamma"):
            dephase_step(plus_state, gamma=math.nan, dt=1.0)
        with pytest.raises(ValueError, match="dt"):
            dephase_step(plus_state, gamma=1.0, dt=math.nan)


class TestTrajectory:
    def test_initial_point_is_bare_transparency(self, plus_state, rect):
        traj = run_trajectory(plus_state, gamma=1.0, t_max=2.0, steps=5,
                              barrier=rect, energy=0.5)
        assert traj.records["mu"][0] == pytest.approx(1.0, abs=1e-12)
        assert traj.records["r"][0] == pytest.approx(0.0, abs=1e-12)
        assert traj.records["D"][0] == pytest.approx(math.exp(-2.0), abs=1e-9)

    def test_zero_rate_keeps_records_identical(self, plus_state, rect):
        traj = run_trajectory(plus_state, gamma=0.0, t_max=5.0, steps=4,
                              barrier=rect, energy=0.5)
        d_values = set(traj.records["D"])
        mu_values = set(traj.records["mu"])
        assert len(d_values) == 1 and len(mu_values) == 1

    def test_long_time_limit(self, plus_state, rect):
        traj = run_trajectory(plus_state, gamma=1.0, t_max=12.0, steps=7,
                              barrier=rect, energy=0.5)
        phi_half = 3.0 - math.sqrt(4.0 / 3.0)
        assert traj.records["mu"][-1] == pytest.approx(0.5, abs=1e-9)
        assert traj.records["D"][-1] == pytest.approx(math.exp(-2.0 / phi_half), abs=1e-8)

    def test_purity_falls_and_transparency_rises(self, plus_state, rect):
        traj = run_trajectory(plus_state, gamma=1.0, t_max=4.0, steps=9,
                              barrier=rect, energy=0.5)
        mus = traj.records["mu"]
        ds = traj.records["D"]
        assert all(b < a for a, b in zip(mus, mus[1:]))
        assert all(b > a for a, b in zip(ds, ds[1:]))

    def test_time_grid(self, plus_state, rect):
        traj = run_trajectory(plus_state, gamma=1.0, t_max=3.0, steps=4,
                              barrier=rect, energy=0.5)
        np.testing.assert_allclose(traj.times, [0.0, 1.0, 2.0, 3.0], atol=1e-15)
        assert traj.records["t"] == pytest.approx([0.0, 1.0, 2.0, 3.0])

    def test_states_stay_valid_along_the_way(self, plus_state, rect):
        traj = run_trajectory(plus_state, gamma=0.5, t_max=2.0, steps=5,
                              barrier=rect, energy=0.5)
        for state in traj.states:
            assert validate_state(state) == []

    def test_invariant_product_column(self, plus_state, rect):
        traj = run_trajectory(plus_state, gamma=1.0, t_max=2.0, steps=3,
                              barrier=rect, energy=0.5)
        records = traj.records
        for inv, ln_d, mu in zip(records["inv_mu_ln_D"], records["ln_D"], records["mu"]):
            assert inv == pytest.approx(ln_d / mu, abs=1e-15)

    def test_argument_validation(self, plus_state, rect):
        with pytest.raises(ValueError):
            run_trajectory(plus_state, gamma=-1.0, t_max=1.0, steps=3,
                           barrier=rect, energy=0.5)
        with pytest.raises(ValueError):
            run_trajectory(plus_state, gamma=1.0, t_max=0.0, steps=3,
                           barrier=rect, energy=0.5)
        with pytest.raises(ValueError):
            run_trajectory(plus_state, gamma=1.0, t_max=1.0, steps=1,
                           barrier=rect, energy=0.5)

    def test_nan_arguments_rejected(self, plus_state, rect):
        with pytest.raises(ValueError, match="gamma"):
            run_trajectory(plus_state, gamma=math.nan, t_max=1.0, steps=3,
                           barrier=rect, energy=0.5)
        with pytest.raises(ValueError, match="t_max"):
            run_trajectory(plus_state, gamma=1.0, t_max=math.nan, steps=3,
                           barrier=rect, energy=0.5)

    def test_diagonal_initial_state_is_static(self, rect):
        state = diagonal_mixture([0.5, 0.5], dim=4)
        traj = run_trajectory(state, gamma=3.0, t_max=2.0, steps=4,
                              barrier=rect, energy=0.5)
        mus = set(traj.records["mu"])
        assert len(mus) == 1

    def test_excited_projector_moments_feed_the_bound(self, rect):
        state = fock_projector(1, dim=4)
        traj = run_trajectory(state, gamma=1.0, t_max=1.0, steps=2,
                              barrier=rect, energy=0.5)
        assert traj.records["mu"][0] == pytest.approx(1.0, abs=1e-12)
        assert traj.records["hbar_eff"][0] == pytest.approx(1.0, abs=1e-12)
