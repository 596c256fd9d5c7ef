import math
import sys
import warnings

import numpy as np
import pytest

from purity_bounds import (
    DegenerateCorrelationError,
    FockDensityMatrix,
    GaussianState,
    InvalidStateError,
    SecondMoments,
    ThermalModel,
    TruncationWarning,
    compute_moments,
    diagonal_mixture,
    evaluate_bounds,
    fock_projector,
    pure_state_density,
    purity,
    thermal_state_fock,
    validate_state,
)

from fock_operators import fock_quadrature_operators

NAN = float("nan")


def oscillator_eigenfunctions(x, n_max):
    """Hermite-function ladder phi_0..phi_{n_max-1} on the grid x (hbar=m=omega=1)."""
    phi = np.zeros((n_max, len(x)))
    phi[0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    if n_max > 1:
        phi[1] = np.sqrt(2.0) * x * phi[0]
    for n in range(1, n_max - 1):
        phi[n + 1] = np.sqrt(2.0 / (n + 1)) * x * phi[n] - np.sqrt(n / (n + 1)) * phi[n - 1]
    return phi


class TestFockMoments:
    def test_first_excited_state(self):
        m = compute_moments(fock_projector(1, dim=4))
        assert m.sigma_qq == pytest.approx(1.5, abs=1e-12)
        assert m.sigma_pp == pytest.approx(1.5, abs=1e-12)
        assert m.sigma_qp == pytest.approx(0.0, abs=1e-12)
        assert m.r == pytest.approx(0.0, abs=1e-12)
        assert m.mu == pytest.approx(1.0, abs=1e-12)

    def test_moments_are_exact_at_minimal_dimension(self):
        # |1><1| stored with dim=2: the ladder sums keep <q^2> exact.
        with pytest.warns(TruncationWarning):
            m = compute_moments(fock_projector(1, dim=2))
        assert m.sigma_qq == pytest.approx(1.5, abs=1e-12)

    def test_truncation_warning_edge(self):
        # TRUNCATION_POPULATION_TOL = 1e-8 on either of the top two levels warns.
        for top, warns in ((0.99e-8, False), (1e-8, True)):
            state = diagonal_mixture([1.0 - top, 0.0, top, 0.0])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                compute_moments(state)
            assert any(w.category is TruncationWarning for w in caught) is warns

    def test_truncation_warning_on_top_level_population(self):
        with pytest.warns(TruncationWarning):
            compute_moments(diagonal_mixture([0.5, 0.5], dim=2))

    def test_no_warning_with_spare_levels(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compute_moments(diagonal_mixture([0.5, 0.5], dim=4))

    def test_linear_entropy_complement(self):
        m = compute_moments(diagonal_mixture([0.5, 0.5], dim=4))
        assert m.linear_entropy == pytest.approx(1.0 - m.mu, abs=0.0)


def operator_moments(state):
    """<q>, <p>, sigma_qq, sigma_pp, sigma_qp as tr(rho op), independently of the
    ladder sums: the operators are built two levels larger and their products
    sliced back, so no truncation artifact enters."""
    q, p = fock_quadrature_operators(state.dim + 2, state.hbar, state.mass, state.omega)
    ops = (q, p, q @ q, p @ p, 0.5 * (q @ p + p @ q))
    mq, mp, eq2, ep2, eqp = (float(np.trace(state.entries @ op[:state.dim, :state.dim]).real)
                             for op in ops)
    return mq, mp, eq2 - mq * mq, ep2 - mp * mp, eqp - mq * mp


def dense_states(seed, count):
    """Seeded full-rank density matrices of dim 2..32 in random oscillator units."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, 33))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = a @ a.conj().T
        hbar, mass, omega = 10.0 ** rng.uniform(-1.0, 1.0, 3)
        yield FockDensityMatrix(dim=dim, entries=rho / np.trace(rho).real, hbar=hbar, mass=mass,
                                omega=omega)


class TestLadderSums:
    def test_moments_match_the_operator_traces(self):
        """The ladder sums agree with tr(rho op) to 1e-14 of each moment's scale."""
        for state in dense_states(31, 300):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                m = compute_moments(state)
            mq, mp, sqq, spp, sqp = operator_moments(state)
            scale = math.sqrt(m.sigma_qq * m.sigma_pp)
            assert abs(m.mean_q - mq) <= 1e-14 * math.sqrt(m.sigma_qq), state.dim
            assert abs(m.mean_p - mp) <= 1e-14 * math.sqrt(m.sigma_pp), state.dim
            assert abs(m.sigma_qq - sqq) <= 1e-14 * m.sigma_qq, state.dim
            assert abs(m.sigma_pp - spp) <= 1e-14 * m.sigma_pp, state.dim
            assert abs(m.sigma_qp - sqp) <= 1e-14 * scale, state.dim

    def test_purity_matches_the_squared_spectrum(self):
        for state in dense_states(37, 300):
            eigs = np.linalg.eigvalsh(state.entries)
            assert abs(purity(state) - float(np.sum(eigs**2))) <= 1e-15, state.dim


class TestGaussianMoments:
    def test_thermal_like_purity(self):
        m = compute_moments(GaussianState(0.0, 0.0, 1.5, 1.5, 0.0, hbar=1.0))
        assert m.mu == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_thermal_purity_cross_checked_against_fock(self):
        """Gaussian sigma=1.5 corresponds to the oscillator at n_bar=1 (T=1/ln2)."""
        T = 1.0 / math.log(2.0)
        fock = thermal_state_fock(ThermalModel(), T, dim=40)
        mf = compute_moments(fock)
        mg = compute_moments(GaussianState(0.0, 0.0, 1.5, 1.5, 0.0))
        assert abs(mf.mu - mg.mu) < 1e-8
        assert abs(mf.sigma_qq - mg.sigma_qq) < 1e-8

    def test_correlated_pure_state(self):
        m = compute_moments(GaussianState(0.0, 0.0, 1.0, 0.5, 0.5, hbar=1.0))
        assert m.r == pytest.approx(0.5 / math.sqrt(0.5), abs=1e-14)
        assert m.mu == pytest.approx(1.0, abs=1e-14)

    def test_correlated_pure_state_matches_squeezed_fock_expansion(self):
        """Build the same state numerically: psi ~ exp(-(1/4 - i/4) x^2).

        For psi ~ exp(-a x^2) with a = alpha + i beta the moments are
        sigma_qq = 1/(4 alpha), sigma_pp = (alpha^2 + beta^2)/alpha and
        sigma_qp = -beta/(2 alpha); alpha = 1/4, beta = -1/4 reproduces
        (1, 0.5, 0.5).  Expanding on the number basis gives an independent
        route to the same moments.
        """
        x = np.linspace(-14.0, 14.0, 7001)
        psi = np.exp(-(0.25 - 0.25j) * x * x)
        basis = oscillator_eigenfunctions(x, 44)
        coeffs = np.trapezoid(basis * psi[None, :], x, axis=1)
        state = pure_state_density(coeffs, dim=44)
        m = compute_moments(state)
        assert m.sigma_qq == pytest.approx(1.0, abs=1e-8)
        assert m.sigma_pp == pytest.approx(0.5, abs=1e-8)
        assert m.sigma_qp == pytest.approx(0.5, abs=1e-8)
        assert m.mu == pytest.approx(1.0, abs=1e-8)

    def test_unphysical_covariance_rejected(self):
        with pytest.raises(InvalidStateError):
            compute_moments(GaussianState(0.0, 0.0, 0.4, 0.4, 0.0))

    @pytest.mark.parametrize("sigma_qp", (0.0, 5e199))
    def test_overflowing_determinant_rejected(self, sigma_qp):
        state = GaussianState(0.0, 0.0, 1e200, 1e200, sigma_qp)
        with pytest.raises(InvalidStateError, match="finite"):
            compute_moments(state)
        with pytest.raises(InvalidStateError, match="finite"):
            purity(state)

    @pytest.mark.parametrize("excess", (3e-16, 5e-13, 1e-12))
    def test_purity_above_one_within_mu_domain_tol_reads_as_one(self, excess):
        # A caller's purity follows bounds.check_purity: _MU_DOMAIN_TOL = 1e-12 above 1
        # reads as 1; twice that is out of the domain.
        m = SecondMoments.from_covariance(0.0, 0.0, 0.5, 0.5, 0.0, 1.0 + excess)
        assert (m.mu, m.linear_entropy) == (1.0, 0.0)
        assert evaluate_bounds(m, 1.0).flags["purity"]
        with pytest.raises(ValueError, match="outside"):
            SecondMoments.from_covariance(0.0, 0.0, 0.5, 0.5, 0.0, 1.0 + 2e-12)

    def test_degenerate_correlation_edge(self):
        # |r| = 1 - 2e-12 is inside DEGENERATE_R_TOL = 1e-12 of 1; 1 - 0.5e-12 is not.
        m = SecondMoments.from_covariance(0.0, 0.0, 1.0, 1.0, 1.0 - 2e-12, 1.0)
        assert m.r == 1.0 - 2e-12
        with pytest.raises(DegenerateCorrelationError):
            SecondMoments.from_covariance(0.0, 0.0, 1.0, 1.0, 1.0 - 0.5e-12, 1.0)

    def test_degenerate_correlation_rejected(self):
        big = 1.0e7
        state = GaussianState(0.0, 0.0, big, big, big * (1.0 - 5e-15))
        assert not (abs(state.sigma_qp) / big >= 1.0)  # still physical, |r| < 1
        with pytest.raises(DegenerateCorrelationError):
            compute_moments(state)


class TestNanRejected:
    """A NaN field fails the guard that a finite bad value fails."""

    @pytest.mark.parametrize("sigma_qq, sigma_pp", [(NAN, 1.0), (1.0, NAN)])
    def test_nan_variance(self, sigma_qq, sigma_pp):
        with pytest.raises(InvalidStateError):
            SecondMoments.from_covariance(0.0, 0.0, sigma_qq, sigma_pp, 0.0, 0.5)

    def test_nan_covariance(self):
        with pytest.raises(DegenerateCorrelationError):
            SecondMoments.from_covariance(0.0, 0.0, 1.0, 1.0, NAN, 0.5)

    def test_nan_purity(self):
        with pytest.raises(ValueError):
            SecondMoments.from_covariance(0.0, 0.0, 1.0, 1.0, 0.0, NAN)

    def test_nan_gaussian_determinant(self):
        with pytest.raises(InvalidStateError):
            purity(GaussianState(0.0, 0.0, NAN, 1.0, 0.0))


class TestPurity:
    def test_rank_one_projector(self):
        assert purity(fock_projector(3, dim=6)) == pytest.approx(1.0, abs=1e-14)

    def test_equal_two_level_mixture(self):
        assert purity(diagonal_mixture([0.5, 0.5])) == pytest.approx(0.5, abs=1e-14)

    def test_rank_two_family_hits_target_purity(self):
        mu = 0.7
        p0 = (1.0 + math.sqrt(2.0 * mu - 1.0)) / 2.0
        state = diagonal_mixture([p0, 1.0 - p0], dim=4)
        assert purity(state) == pytest.approx(mu, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dim = 8
            weights = rng.dirichlet(np.ones(dim))
            rho = np.diag(weights).astype(complex)
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            u, _ = np.linalg.qr(z)
            rotated = u @ rho @ u.conj().T
            a = purity(FockDensityMatrix(dim=dim, entries=rho))
            b = purity(FockDensityMatrix(dim=dim, entries=rotated))
            assert abs(a - b) < 1e-10

    def test_gaussian_purity_needs_positive_determinant(self):
        with pytest.raises(InvalidStateError):
            purity(GaussianState(0.0, 0.0, 0.5, 0.5, 0.6))


def test_sr_restatement_for_random_fock_states():
    """sigma_qq sigma_pp (1 - r^2) >= hbar^2/4 for arbitrary valid states."""
    rng = np.random.default_rng(23)
    dim = 6
    for _ in range(200):
        weights = rng.dirichlet(np.ones(dim))
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u, _ = np.linalg.qr(z)
        rho = u @ np.diag(weights).astype(complex) @ u.conj().T
        state = FockDensityMatrix(dim=dim + 2, entries=np.pad(rho, ((0, 2), (0, 2))))
        m = compute_moments(state)
        lhs = m.sigma_qq * m.sigma_pp * (1.0 - m.r**2)
        assert lhs >= 0.25 - 1e-10
        assert abs(lhs - (m.sigma_qq * m.sigma_pp - m.sigma_qp**2)) < 1e-9 * max(1.0, lhs)


def rotated_gaussian(hbar, det_scale, s, theta):
    """Gaussian state whose covariance is diag(s, det_scale / s) hbar/2 rotated by theta:
    det = det_scale hbar^2 / 4 up to rounding."""
    a, b = 0.5 * hbar * s, 0.5 * hbar * det_scale / s
    c, d = math.cos(theta), math.sin(theta)
    return GaussianState(0.0, 0.0, a * c * c + b * d * d, a * d * d + b * c * c, (a - b) * c * d,
                         hbar=hbar)


def check_outcome(state) -> str:
    """What ``check`` concludes: "invalid", "pass" (every flag true) or "fail"."""
    if validate_state(state):
        return "invalid"
    flags = evaluate_bounds(compute_moments(state), state.hbar).flags
    return "pass" if all(flags.values()) else "fail"


class TestValidMeansEveryFlagPasses:
    """Validation and the flags judge det Sigma >= hbar^2/4 by one rule, and the
    purity flag reads the same determinant, so no valid Gaussian fails a flag."""

    def test_pure_states_validate_and_pass(self):
        # Squeeze parameter 0.5..4 (variances up to e^8 hbar/2), any rotation:
        # det carries rounding up to ~1e-9 of hbar^2/4.
        rng = np.random.default_rng(1)
        outcomes = {check_outcome(rotated_gaussian(1.0, 1.0, math.exp(2.0 * rng.uniform(0.5, 4.0)),
                                                   rng.uniform(0.0, math.pi)))
                    for _ in range(2000)}
        assert outcomes == {"pass"}

    def test_states_near_the_boundary_are_invalid_or_pass(self):
        eps = sys.float_info.epsilon
        rng = np.random.default_rng(2)
        outcomes = set()
        for _ in range(1000):
            hbar, s = 10.0 ** rng.uniform(-4.0, 4.0), math.exp(2.0 * rng.uniform(0.0, 3.0))
            theta = rng.uniform(0.0, math.pi)
            for det_scale in (1.0, 1.0 + 3e-10, 1.0 - 3e-10, 1.0 + 16.0 * eps, 1.0 - 16.0 * eps,
                              1.0 + 10.0 ** rng.uniform(-16.0, 0.0)):
                outcomes.add(check_outcome(rotated_gaussian(hbar, det_scale, s, theta)))
        assert outcomes == {"invalid", "pass"}


class TestAnyHbar:
    """Validation is relative to hbar^2/4 and the purity of a valid state is at most 1,
    so hbar far from 1 neither rejects a valid state nor admits an invalid one."""

    @staticmethod
    def draws(seed, n):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            yield rng, 10.0 ** rng.uniform(-6.0, 6.0), math.exp(rng.uniform(-3.0, 3.0))

    def test_valid_states_pass_moments_and_bounds(self):
        for rng, hbar, s in self.draws(5, 1000):
            mu = 1.0 if rng.random() < 0.5 else rng.uniform(0.05, 1.0)
            state = rotated_gaussian(hbar, 1.0 / mu**2, s, rng.uniform(0.0, math.pi))
            m = compute_moments(state)
            assert 0.0 < m.mu <= 1.0
            evaluate_bounds(m, hbar)
        for rng, hbar, _ in self.draws(6, 200):
            rank = int(rng.integers(1, 5))
            amplitudes = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            state = pure_state_density(amplitudes, dim=6)._replace(hbar=hbar)
            if rank > 1:
                weights = rng.dirichlet(np.ones(rank))
                z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                u, _ = np.linalg.qr(z)
                rho = u[:, :rank] @ np.diag(weights) @ u[:, :rank].conj().T
                state = FockDensityMatrix(dim=6, entries=np.pad(rho, ((0, 2), (0, 2))), hbar=hbar)
            m = compute_moments(state)
            assert 0.0 < m.mu <= 1.0
            evaluate_bounds(m, hbar)

    def test_determinant_deficit_fails_physicality(self):
        for rng, hbar, s in self.draws(7, 1000):
            state = rotated_gaussian(hbar, 1.0 - 1e-8, s, rng.uniform(0.0, math.pi))
            assert [v.name for v in validate_state(state)] == ["physicality"], hbar
