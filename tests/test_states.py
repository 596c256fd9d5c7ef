import math
import sys

import numpy as np
import pytest

from purity_bounds import (
    FockDensityMatrix,
    GaussianState,
    InvalidStateError,
    diagonal_mixture,
    fock_projector,
    pure_state_density,
    validate_state,
)
from purity_bounds.states import STATE_TOL

from fock_operators import fock_quadrature_operators

EPS = sys.float_info.epsilon


def names(violations):
    return [v.name for v in violations]


class TestGaussianValidation:
    def test_vacuum_is_valid(self):
        state = GaussianState(0.0, 0.0, 0.5, 0.5, 0.0, hbar=1.0)
        assert validate_state(state) == []

    def test_sub_heisenberg_fails_physicality(self):
        state = GaussianState(0.0, 0.0, 0.4, 0.4, 0.0, hbar=1.0)
        report = validate_state(state)
        assert names(report) == ["physicality"]
        # det sigma = 0.16 falls short of 0.25 by 0.09
        assert report[0].magnitude == pytest.approx(0.09, abs=1e-14)

    def test_nonpositive_variance(self):
        report = validate_state(GaussianState(0.0, 0.0, -1.0, 0.5, 0.0))
        assert "positive-parameter" in names(report)

    @pytest.mark.parametrize(
        "field", ("mean_q", "mean_p", "sigma_qq", "sigma_pp", "sigma_qp", "hbar")
    )
    @pytest.mark.parametrize("value", (math.nan, math.inf))
    def test_non_finite_field_is_a_finite_violation(self, field, value):
        fields = dict(mean_q=0.0, mean_p=0.0, sigma_qq=0.5, sigma_pp=0.5, sigma_qp=0.0, hbar=1.0)
        report = validate_state(GaussianState(**{**fields, field: value}))
        assert names(report) == ["finite"]
        assert field in report[0].detail

    @pytest.mark.parametrize("sigma_qp", (0.0, 5e199))
    def test_overflowing_determinant_is_a_finite_violation(self, sigma_qp):
        report = validate_state(GaussianState(0.0, 0.0, 1e200, 1e200, sigma_qp))
        assert names(report) == ["finite"]
        assert report[0].magnitude is None
        assert "sigma_qq*sigma_pp - sigma_qp^2" in report[0].detail

    def test_correlated_pure_state_is_valid(self):
        # det sigma = 1*0.5 - 0.25 = 0.25 saturates the bound
        assert validate_state(GaussianState(0.0, 0.0, 1.0, 0.5, 0.5)) == []

    def test_tolerance_absorbs_tiny_deficit(self):
        # Every number here is exact: det = product falls short of hbar^2/4 by
        # 2 eps product, inside PASS_ROUNDING_TOL = 4 eps of the product.
        state = GaussianState(0.0, 0.0, 0.5, 0.5 * (1.0 - 2.0 * EPS), 0.0)
        assert validate_state(state) == []

    @pytest.mark.parametrize("deficit", (8.0 * EPS, 1e-12))
    def test_deficit_past_the_rounding_tolerance_fails_physicality(self, deficit):
        state = GaussianState(0.0, 0.0, 0.5, 0.5 * (1.0 - deficit), 0.0)
        report = validate_state(state)
        assert names(report) == ["physicality"]
        assert report[0].magnitude == pytest.approx(0.25 * deficit, rel=1e-3)


class TestFockValidation:
    def test_plus_state_projector_is_valid(self):
        state = FockDensityMatrix(dim=2, entries=[[0.5, 0.5], [0.5, 0.5]])
        assert validate_state(state) == []

    def test_non_hermitian_rejected(self):
        state = FockDensityMatrix(dim=2, entries=[[0.5, 0.2], [0.3, 0.5]])
        assert "hermiticity" in names(validate_state(state))

    def test_wrong_trace_rejected(self):
        state = FockDensityMatrix(dim=2, entries=[[0.6, 0.0], [0.0, 0.6]])
        assert "trace" in names(validate_state(state))

    @pytest.mark.parametrize("error, valid", [(0.99e-10, True), (-0.99e-10, True),
                                              (1.01e-10, False), (-1.01e-10, False)])
    def test_trace_edge(self, error, valid):
        # STATE_TOL = 1e-10 bounds |Tr rho - 1| absolutely.
        state = diagonal_mixture([0.5 + error, 0.5], dim=3)
        assert names(validate_state(state)) == ([] if valid else ["trace"])

    @pytest.mark.parametrize("error, valid", [(0.99e-10, True), (1.01e-10, False)])
    def test_hermiticity_edge(self, error, valid):
        # STATE_TOL bounds max |rho - rho^dagger|; the Hermitian part's eigmin is -error/2.
        state = FockDensityMatrix(dim=2, entries=[[0.5, 0.5 + error], [0.5, 0.5]])
        assert names(validate_state(state)) == ([] if valid else ["hermiticity"])

    def test_negative_eigenvalue_rejected(self):
        state = FockDensityMatrix(dim=2, entries=[[1.2, 0.0], [0.0, -0.2]])
        assert "positive-semidefinite" in names(validate_state(state))

    def test_psd_rule_and_magnitude_match_the_smallest_eigenvalue(self):
        """Seeded dense states of dim 2-32 whose smallest eigenvalue sits at 0,
        +-0.5, +-0.999, +-1.001 and +-2 STATE_TOL or at -0.3: the Cholesky rule
        rejects exactly those with eigmin < -STATE_TOL (numpy's ``eigvalsh`` is
        the reference, in this test only), and reports -eigmin to 1e-15."""
        rng = np.random.default_rng(2026)
        eigmins = [c * STATE_TOL for c in (0.0, 0.5, -0.5, 0.999, -0.999, 1.001, -1.001, 2.0, -2.0)]
        eigmins.append(-0.3)
        for trial in range(16 * len(eigmins)):
            dim = 2 + 2 * (trial % 16)
            u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            spectrum = rng.uniform(1.0, 2.0, dim)
            spectrum[0] = eigmins[trial % len(eigmins)]
            spectrum[1:] *= (1.0 - spectrum[0]) / spectrum[1:].sum()
            rho = (u * spectrum) @ u.conj().T
            eigmin = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]
            report = validate_state(FockDensityMatrix(dim=dim, entries=rho))
            if eigmin >= -STATE_TOL:
                assert report == [], (dim, eigmin)
            else:
                assert names(report) == ["positive-semidefinite"], (dim, eigmin)
                assert abs(report[0].magnitude + eigmin) <= 1e-15, (dim, eigmin)

    def test_non_finite_entries_rejected(self):
        for bad in (math.nan, math.inf):
            state = FockDensityMatrix(dim=2, entries=[[1.0, bad], [0.0, 0.0]])
            assert names(validate_state(state)) == ["finite"]
        state = FockDensityMatrix(dim=2, entries=[[1.0, 0.0], [0.0, 0.0]], mass=math.nan)
        assert names(validate_state(state)) == ["finite"]

    def test_dimension_one_rejected(self):
        state = FockDensityMatrix(dim=1, entries=[[1.0]])
        assert "dimension" in names(validate_state(state))

    def test_shape_mismatch_raises_on_construction(self):
        with pytest.raises(InvalidStateError):
            FockDensityMatrix(dim=3, entries=[[1.0, 0.0], [0.0, 0.0]])

    def test_entries_are_frozen(self):
        state = fock_projector(0, 4)
        with pytest.raises(TypeError):
            state.entries[0][0] = 0.0
        assert all(type(x) is complex for row in state.entries for x in row)

    def test_random_projector_mixtures_are_valid(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dim = int(rng.integers(2, 12))
            weights = rng.dirichlet(np.ones(dim))
            assert validate_state(diagonal_mixture(weights, dim=dim)) == []

    def test_validation_is_idempotent_and_pure(self):
        state = FockDensityMatrix(dim=2, entries=[[0.6, 0.0], [0.0, 0.6]])
        before = state.entries
        first = validate_state(state)
        second = validate_state(state)
        assert first == second
        assert state.entries == before


class TestQuadratureOperators:
    def test_dim2_position_matrix(self):
        q, _ = fock_quadrature_operators(2)
        expected = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
        np.testing.assert_allclose(q, expected, atol=1e-15)

    def test_dim3_ladder_element(self):
        q, _ = fock_quadrature_operators(3)
        # sqrt(2)/sqrt(2) = 1 connects levels 1 and 2
        assert q[1, 2] == pytest.approx(1.0, abs=1e-15)
        assert q[2, 1] == pytest.approx(1.0, abs=1e-15)

    def test_dim4_commutator_by_direct_multiplication(self):
        q, p = fock_quadrature_operators(4)
        comm = q @ p - p @ q
        for j in range(3):
            assert comm[j, j] == pytest.approx(1j, abs=1e-14)
        # truncation artifact confined to the top diagonal entry
        assert comm[3, 3] == pytest.approx(-3j, abs=1e-13)

    @pytest.mark.parametrize("dim", range(2, 13))
    def test_hermiticity_and_commutator_block(self, dim):
        q, p = fock_quadrature_operators(dim, hbar=0.7, mass=2.0, omega=1.3)
        np.testing.assert_allclose(q, q.conj().T, atol=1e-14)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-14)
        comm = q @ p - p @ q
        block = comm[: dim - 1, : dim - 1]
        target = 1j * 0.7 * np.eye(dim - 1)
        assert np.max(np.abs(block - target)) < 1e-12

    def test_unit_scaling(self):
        q1, p1 = fock_quadrature_operators(5)
        q2, p2 = fock_quadrature_operators(5, hbar=4.0)
        np.testing.assert_allclose(q2, 2.0 * q1, atol=1e-14)
        np.testing.assert_allclose(p2, 2.0 * p1, atol=1e-14)


def test_pure_state_density_normalizes():
    state = pure_state_density([3.0, 4.0], dim=4)
    assert np.trace(state.entries).real == pytest.approx(1.0, abs=1e-15)
    assert state.entries[0][0].real == pytest.approx(9.0 / 25.0, abs=1e-15)


def test_validate_rejects_non_state():
    with pytest.raises(TypeError):
        validate_state(np.eye(2))
