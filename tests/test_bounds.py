import importlib.util
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

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
    min_product_fock_mixture,
    phi,
    phi_eval,
)
from purity_bounds.bounds import BOUND_NAMES, _rank


def _load_reference():
    """``perfbench/reference.py``: Phi coded from the physics, not from this package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def window_top(k):
    """Top edge mu_k = 1/k + (k + 1) / (3k (k - 1)) of the rank-k window, exactly."""
    return Fraction(1, k) + Fraction(k + 1, 3 * k * (k - 1))


def exact_rank(mu):
    """The largest k >= 2 with mu < mu_k, walked to from 4 / (3 mu) by exact comparisons."""
    x = Fraction(mu)
    k = max(2, int(Fraction(4, 3) / x))
    while k > 2 and x >= window_top(k):
        k -= 1
    while x < window_top(k + 1):
        k += 1
    return k


def exact_phi(mu):
    """(Phi(mu) correctly rounded, its piece label) from fractions and a 40-digit decimal root;
    the value is proved by comparing Phi with the midpoints to its neighbouring doubles."""
    k = exact_rank(mu)
    radicand = k * (k * k - 1) * (Fraction(mu) - Fraction(1, k)) / 3  # Phi = k - sqrt(radicand)
    with localcontext() as ctx:
        ctx.prec = 40
        value = float(k - (Decimal(radicand.numerator) / radicand.denominator).sqrt())
        ctx.prec = 17
        label = f"rank-{k}" if k < 10**17 else f"rank-{(+Decimal(k)).normalize():e}"
    at_least = lambda m: k >= m and (k - m) ** 2 >= radicand  # Phi >= m
    largest = 2**1024 - 2**970  # halfway from the largest double to 2^1024
    if value == math.inf:
        assert at_least(largest), mu
    else:
        up = math.nextafter(value, math.inf)
        high = (Fraction(value) + Fraction(up)) / 2 if up < math.inf else Fraction(largest)
        assert at_least((Fraction(value) + Fraction(math.nextafter(value, 0.0))) / 2), mu
        assert not at_least(high), mu
    return value, label


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
        assert phi_eval(0.5, "exact").piece == "rank-3"

    def test_lower_knot_value(self):
        assert phi(7.0 / 18.0, "exact") == pytest.approx(7.0 / 3.0, abs=1e-12)

    def test_exact_is_correctly_rounded_against_a_fractions_reference(self):
        rng = random.Random(14)
        grid = [5.0 / 9.0, 7.0 / 18.0, 0.3, 0.5]
        grid += [10.0 ** rng.uniform(math.log10(5e-309), 0.0) for _ in range(10_000)]
        grid += [rng.uniform(5e-309, 1.0) for _ in range(10_000)]
        for mu in grid:
            assert tuple(phi_eval(mu)) == exact_phi(mu), mu

    def test_exact_rounds_the_closed_pieces_correctly_on_the_upper_range(self):
        """The closed forms 2 - sqrt(2 mu - 1) and 3 - sqrt(8 (mu - 1/3)) in floats
        round twice; the exact piece is the one rounding of Phi, within 2 ulp of them."""
        grid = list(np.linspace(7.0 / 18.0, 1.0, 20001))
        for edge in (7.0 / 18.0, 5.0 / 9.0):
            grid += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0)]
        for mu in grid:
            mu = float(mu)
            if mu >= 5.0 / 9.0:
                closed, piece = 2.0 - math.sqrt(2.0 * mu - 1.0), "rank-2"
            elif mu >= 7.0 / 18.0:
                closed, piece = 3.0 - math.sqrt(8.0 * (mu - 1.0 / 3.0)), "rank-3"
            else:
                continue
            pv = phi_eval(mu, "exact")
            assert tuple(pv) == exact_phi(mu) and pv.piece == piece
            assert abs(pv.value - closed) <= 2.0 * math.ulp(closed)

    @pytest.mark.parametrize("mu, k", [(0.35, 4), (0.3, 5), (0.25, 5), (0.2, 7)])
    def test_exact_matches_the_projected_gradient_minimizer(self, mu, k):
        # The double 0.3 lies below mu_5 = 3/10 exactly, so its rank is 5.
        res = min_product_fock_mixture(mu, 8, "projected-gradient")
        assert abs(2.0 * math.sqrt(res.min_product) - phi(mu)) <= 1e-12 * phi(mu)
        assert exact_rank(mu) == k and phi_eval(mu).piece == f"rank-{k}"

    def test_continuous_at_the_window_edges(self):
        # The double nearest each edge mu_k and its two neighbours, for k = 2..10^4 and
        # log-spaced k up to 6e307 (mu_k still a normal double), where many windows share an ulp.
        ks = [*range(2, 10_001), *(int(k) for k in np.geomspace(1e4, 6e307, 300))]
        for k in ks:
            edge = float(window_top(k))
            points = [math.nextafter(edge, 0.0), edge, min(math.nextafter(edge, 1.0), 1.0)]
            for mu in points:
                rank = exact_rank(mu)
                assert _rank(mu) == rank, mu
                assert rank >= 10**17 or phi_eval(mu).piece == f"rank-{rank}"
            assert abs(phi(points[0]) - phi(points[-1])) <= 1e-12 * phi(points[-1])

    def test_matches_the_independent_reference(self):
        ref = _load_reference()
        for mu in np.geomspace(1e-12, 1.0, 2001):
            mu = float(mu)
            assert abs(phi(mu) - ref.phi_true(mu)) <= 1e-14 * ref.phi_true(mu)

    def test_small_purity_follows_the_asymptote(self):
        for mu in np.geomspace(1e-300, 1e-6, 3001):
            mu = float(mu)
            assert abs(phi(mu) - 8.0 / (9.0 * mu)) <= 1e-12 * (8.0 / (9.0 * mu))

    def test_rank_location_ends_for_every_positive_double(self):
        # A step-by-step rank walk stalls below ~1e-25, where k + 1 == k.
        assert phi(1e-25) == pytest.approx(8.0 / 9.0 * 1e25, rel=1e-12)
        assert phi(1e-300) == pytest.approx(8.0 / 9.0 * 1e300, rel=1e-12)
        # 8 / (9 mu) ~ 1.8e323 exceeds the double range.
        assert phi(5e-324) == math.inf

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
        for mu in np.linspace(1e-3, 1.0, 500):
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

    def test_purity_domain_edge(self):
        # _MU_DOMAIN_TOL = 1e-12 above 1 reads as 1; twice that is out of the domain.
        assert phi(1.0 + 1e-12) == 1.0
        with pytest.raises(ValueError, match="outside"):
            phi(1.0 + 2e-12)


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

    def test_nan_correlation_rejected(self):
        with pytest.raises(DegenerateCorrelationError, match="nan"):
            effective_hbar(1.0, math.nan, 1.0)

    def test_scales_with_hbar(self):
        assert effective_hbar(2.0, 0.0, 1.0) == 2.0

    @pytest.mark.parametrize("hbar", (0.0, -1.0, math.nan))
    def test_nonpositive_or_nan_hbar_rejected(self, hbar):
        with pytest.raises(ValueError, match="hbar"):
            effective_hbar(hbar, 0.0, 1.0)
        with pytest.raises(ValueError, match="hbar"):
            evaluate_bounds(make_moments(1.0, 1.0, 0.0), hbar)


class TestEvaluateBounds:
    def test_report_tables_follow_bound_names(self):
        report = evaluate_bounds(make_moments(1.0, 0.5, 0.3, mu=0.6), hbar=1.0)
        for table in (report.bounds, report.slacks, report.flags):
            assert tuple(table) == BOUND_NAMES

    def test_vacuum_saturates_everything(self):
        report = evaluate_bounds(make_moments(0.5, 0.5, 0.0), hbar=1.0)
        assert report.slacks["heisenberg"] == 0.0
        assert report.slacks["schrodinger_robertson"] == 0.0
        assert report.slacks["purity"] == 0.0
        assert all(report.flags.values())

    def test_correlated_pure_state_saturates_sr(self):
        report = evaluate_bounds(make_moments(1.0, 0.5, 0.5), hbar=1.0)
        assert report.sr_lhs == pytest.approx(0.25, abs=1e-15)
        assert report.slacks["schrodinger_robertson"] == pytest.approx(0.0, abs=1e-15)
        assert report.bounds["schrodinger_robertson"] == pytest.approx(0.5, abs=1e-15)
        assert report.product == pytest.approx(0.5, abs=1e-15)
        assert report.bounds["purity"] == report.bounds["schrodinger_robertson"]  # mu = 1

    def test_equal_mixture_passes_purity_bound(self):
        m = compute_moments(diagonal_mixture([0.5, 0.5], dim=4))
        report = evaluate_bounds(m, hbar=1.0)
        expected_bound = (3.0 - math.sqrt(4.0 / 3.0)) ** 2 / 4.0
        assert report.product == pytest.approx(1.0, abs=1e-12)
        assert report.bounds["purity"] == pytest.approx(expected_bound, abs=1e-12)
        assert report.slacks["purity"] == pytest.approx(1.0 - expected_bound, abs=1e-9)
        assert report.flags["purity"]

    def test_bounds_are_nested(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            sqq = float(rng.lognormal(0.0, 0.5))
            spp = float(rng.lognormal(0.0, 0.5))
            sqp = float(rng.uniform(-0.9, 0.9)) * math.sqrt(sqq * spp)
            mu = float(rng.uniform(0.05, 1.0))
            report = evaluate_bounds(make_moments(sqq, spp, sqp, mu=mu), hbar=1.0)
            assert list(report.bounds.values()) == sorted(report.bounds.values())

    def test_reduction_chain_purity_to_sr(self):
        """At mu = 1 the purity bound *is* the SR bound, flags included."""
        rng = np.random.default_rng(29)
        for _ in range(10_000):
            sqq = float(rng.lognormal(0.0, 0.8))
            spp = float(rng.lognormal(0.0, 0.8))
            sqp = float(rng.uniform(-0.99, 0.99)) * math.sqrt(sqq * spp)
            report = evaluate_bounds(make_moments(sqq, spp, sqp, mu=1.0), hbar=1.0)
            assert report.bounds["purity"] == report.bounds["schrodinger_robertson"]
            sr_eq7 = report.product >= report.bounds["schrodinger_robertson"]
            assert report.flags["purity"] == sr_eq7

    def test_reduction_chain_sr_to_heisenberg(self):
        """At r = 0 the SR bound reduces to the Heisenberg bound exactly."""
        rng = np.random.default_rng(31)
        for _ in range(10_000):
            sqq = float(rng.lognormal(0.0, 0.8))
            spp = float(rng.lognormal(0.0, 0.8))
            report = evaluate_bounds(make_moments(sqq, spp, 0.0), hbar=1.0)
            assert report.bounds["schrodinger_robertson"] == report.bounds["heisenberg"]
            assert report.flags["schrodinger_robertson"] == report.flags["heisenberg"]

    def test_sr_flag_agrees_between_equivalent_forms(self):
        rng = np.random.default_rng(37)
        for _ in range(10_000):
            sqq = float(rng.lognormal(0.0, 0.8))
            spp = float(rng.lognormal(0.0, 0.8))
            sqp = float(rng.uniform(-0.99, 0.99)) * math.sqrt(sqq * spp)
            m = make_moments(sqq, spp, sqp)
            report = evaluate_bounds(m, hbar=1.0)
            eq7 = m.sigma_qq * m.sigma_pp >= 0.25 / (1.0 - m.r**2)
            assert report.flags["schrodinger_robertson"] == eq7

    def test_rounding_deficit_passes_but_1e12_deficit_fails(self):
        for mu, r in ((1.0, 0.0), (0.5, 0.3), (0.9, -0.6), (0.2, 0.0), (0.25, 0.4)):
            bound = phi(mu, "exact") ** 2 / (4.0 * (1.0 - r * r))
            rounding = 1.0 - 2.0 * np.finfo(float).eps
            for factor, expected in ((rounding, True), (1.0 - 1e-12, False)):
                s = math.sqrt(bound * factor)
                report = evaluate_bounds(make_moments(s, s, r * s, mu=mu), hbar=1.0)
                assert report.slacks["purity"] < 0.0
                assert report.flags["purity"] is expected

    def test_flags_are_plain_bools_even_for_a_nan_product(self):
        nan_moments = SecondMoments(0.0, 0.0, math.nan, math.nan, 0.0, 0.0, 0.5, 0.5)
        report = evaluate_bounds(nan_moments, 1.0)
        assert list(report.flags.values()) == [False] * 3
        assert all(type(flag) is bool for flag in report.flags.values())

    def test_rank5_minimizer_saturates_the_purity_bound(self):
        b = math.sqrt(0.005)  # p_n = 1/5 + b (2 - n): sum p^2 = 1/5 + 10 b^2 = 0.25
        state = diagonal_mixture([0.2 + b * (2 - n) for n in range(5)], 8)
        report = evaluate_bounds(compute_moments(state), hbar=1.0)
        assert abs(report.slacks["purity"]) <= 1e-12
        assert report.flags["purity"]
        assert report.phi.piece == "rank-5"

    def test_a_failing_state_cannot_pass_at_a_tiny_hbar(self):
        # One state in units of hbar: its flags match hbar = 1 until hbar^2/4
        # leaves the normal floats, where every bound would round to 0 and pass.
        expected = {"heisenberg": True, "schrodinger_robertson": True, "purity": False}
        refused = []
        for hbar in (1.0, 1e-100, 1e-150, 3e-154, 2.9e-154, 1e-200, 1e-300):
            m = make_moments(0.5 * hbar, 0.5 * hbar, 0.0, mu=0.5)
            try:
                report = evaluate_bounds(m, hbar)
            except ValueError as exc:
                assert "is too small" in str(exc)
                refused.append(hbar)
                continue
            assert report.flags == expected, hbar
        assert refused == [2.9e-154, 1e-200, 1e-300]

    def test_hbar_scaling(self):
        report = evaluate_bounds(make_moments(1.0, 1.0, 0.0, mu=0.8), hbar=2.0)
        assert report.bounds["heisenberg"] == 1.0
        assert report.hbar_eff == pytest.approx(2.0 * phi(0.8), abs=1e-14)
