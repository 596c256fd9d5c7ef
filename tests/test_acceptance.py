"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; expected values are computed from the
stated independent oracles, never copied from prose.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from purity_bounds import (
    RectangularBarrier,
    SecondMoments,
    ThermalModel,
    dephase_step,
    evaluate_bounds,
    falsification_sweep,
    min_product_fock_mixture,
    partition_function,
    phi,
    phi_curve_certified,
    pure_state_density,
    run_trajectory,
    thermal_purity,
    transparency,
    transparency_vs_purity,
    transparency_vs_temperature,
)
from purity_bounds.cli import main
from purity_bounds.tunneling import action_integral

REPO_ROOT = Path(__file__).resolve().parent.parent

PHI1 = lambda mu: 2.0 - math.sqrt(2.0 * mu - 1.0)
PHI2 = lambda mu: 3.0 - math.sqrt(8.0 * (mu - 1.0 / 3.0))
PHI_APP = lambda mu: (4.0 + math.sqrt(16.0 + 9.0 * mu * mu)) / (9.0 * mu)


def report(criterion, description):
    print(f"[PASS] criterion {criterion}: {description}")


def test_criterion_1_phi_endpoint_and_continuity():
    assert phi(1.0, "exact") == 1.0
    junction = 5.0 / 9.0
    assert abs(PHI1(junction) - PHI2(junction)) < 1e-12
    assert abs(PHI_APP(junction) - 5.0 / 3.0) < 1e-12
    report(1, "phi(1)=1 exactly; pieces meet at 5/9 within 1e-12; "
              "interpolation equals 5/3 there within 1e-12")


def test_criterion_2_oracle_agreement():
    upper = np.linspace(5.0 / 9.0, 1.0, 50)
    for row in phi_curve_certified(upper, levels=2, method="grid-refine"):
        assert abs(row.phi_oracle - PHI1(row.mu)) < 1e-12
    lower = np.linspace(7.0 / 18.0, 5.0 / 9.0, 20)
    for mu in lower:
        mu = float(mu)
        grid = 2.0 * math.sqrt(min_product_fock_mixture(mu, 3, "grid-refine").min_product)
        grad = 2.0 * math.sqrt(
            min_product_fock_mixture(mu, 3, "projected-gradient").min_product
        )
        assert abs(grid - PHI2(mu)) < 1e-12
        assert abs(grad - PHI2(mu)) < 1e-4
        assert abs(grid - grad) < 1e-12
    report(2, "face enumeration matches piece 1 on 50 points within 1e-12 and the "
              "corrected piece 2 on 20 points within 1e-12 (face enumeration) "
              "and 1e-4 (gradient)")


def test_criterion_3_piece_two_constant_certified():
    mu = 0.5
    res = min_product_fock_mixture(mu, 3)
    corrected = PHI2(mu)
    assert abs(res.min_product - (corrected / 2.0) ** 2) < 1e-15
    # The variant with 2/3 inside the root is not real anywhere on the
    # piece's domain, so no minimizer can reproduce it.
    for probe in np.linspace(7.0 / 18.0, 5.0 / 9.0, 50):
        assert 8.0 * (probe - 2.0 / 3.0) < 0.0
    verification = REPO_ROOT / "VERIFICATION.md"
    assert verification.exists()
    text = verification.read_text(encoding="utf-8")
    assert "1.8452995" in text and "2/3" in text
    report(3, "minimum at mu=0.5 equals (Phi/2)^2 with Phi=3-sqrt(8(mu-1/3)); "
              "the 2/3 variant has a negative radicand; documented in VERIFICATION.md")


def test_criterion_4_falsification_sweep():
    for mu in (0.45, 0.55, 0.7, 0.9, 1.0):
        rep = falsification_sweep(mu, dim=6, samples=10_000, seed=42)
        assert rep.min_slack >= -1e-8, f"violation at mu={mu}: {rep.min_slack}"
    report(4, "10^4 dim-6 random pure states per purity in {0.45,0.55,0.7,0.9,1.0} "
              "(seed 42), each stepped onto the bound along the gradient of det Sigma, "
              "never undercut it by 1e-8")


def test_criterion_5_asymptotes():
    for mu in (0.01, 0.005, 0.002, 0.0005):
        assert abs(PHI_APP(mu) * 9.0 * mu / 8.0 - 1.0) < 1e-4
    oscillator = ThermalModel()
    for T in (5.0, 10.0, 20.0, 100.0):
        assert abs(thermal_purity(oscillator, T) * 2.0 * T - 1.0) < 0.01
    for T in np.geomspace(0.05, 100.0, 200):
        T = float(T)
        ratio = partition_function(oscillator, T / 2.0) / partition_function(oscillator, T) ** 2
        assert abs(ratio - math.tanh(1.0 / (2.0 * T))) < 1e-12
    report(5, "interpolation ~ 8/(9 mu) within 0.01% for mu<=0.01; "
              "mu(T) ~ 1/(2T) within 1% for T>=5; Z-ratio equals tanh within 1e-12")


def test_criterion_6_tunneling_closed_forms():
    rect = RectangularBarrier(v0=1.0, width=1.0, mass=1.0)
    res = transparency(rect, energy=0.5, hbar_eff=1.0)
    assert abs(res.D - math.exp(-2.0)) < 1e-10
    x_t = math.sqrt(0.5)
    quadrature = action_integral(lambda x: 1.0 - x * x, 0.5, 1.0, -x_t, x_t)
    closed = math.pi * 0.5 * math.sqrt(0.5)
    assert abs(quadrature - closed) < 1e-8
    assert transparency(rect, energy=1.5, hbar_eff=1.0).D == 1.0
    report(6, "rectangular D = e^-2 within 1e-10; parabolic quadrature matches "
              "the closed form within 1e-8; above-barrier D = 1 exactly")


def test_criterion_7_invariance_laws():
    rect = RectangularBarrier(v0=1.0, width=1.0, mass=1.0)
    oscillator = ThermalModel()
    products = transparency_vs_temperature(
        rect, 0.5, oscillator, [50.0, 100.0, 200.0, 500.0], phi_mode="interpolation"
    )["invariant_product"]
    assert max(products) / min(products) == pytest.approx(1.0, abs=0.01)
    products = transparency_vs_purity(
        rect, 0.5, 1.0, 0.0, [0.01, 0.005, 0.002], phi_mode="asymptote"
    )["invariant_product"]
    assert max(products) - min(products) < 1e-12
    report(7, "T ln D constant within 1% on {50,100,200,500} with exact mu and "
              "interpolated Phi; mu^-1 ln D constant within 1e-12 in asymptote mode")


# Rectangular barrier with action S = width sqrt(2 m (v0 - E)) = 1, hbar = 1.
LAW_BARRIER = RectangularBarrier(v0=1.0, width=1.0, mass=1.0)


def test_criterion_7_purity_law_with_exact_phi():
    # mu^-1 ln D = -2 S / (hbar mu Phi(mu)) -> -9 S / (4 hbar) as mu -> 0; the
    # departure is -9 mu^2 / 64 for Phi_app (VERIFICATION.md), 0.1453 mu^2 at
    # most for the exact Phi.
    mus = list(map(float, np.geomspace(1e-6, 0.3, 2001)))
    products = transparency_vs_purity(LAW_BARRIER, 0.5, 1.0, 0.0, mus,
                                      phi_mode="exact")["invariant_product"]
    for mu, product in zip(mus, products):
        assert abs(product / -2.25 - 1.0) <= 0.15 * mu * mu, mu
    report(7, "mu^-1 ln D with the exact Phi within 0.15 mu^2 of its limit -9S/4 "
              "on 2001 purities in [1e-6, 0.3]")


def test_criterion_7_thermal_law_with_exact_phi():
    # T ln D -> -9 S / (8 hbar) at high T for the unit oscillator; the departure
    # is -(1/12 + 9/256) / T^2 (VERIFICATION.md).  Past T ~ 1e7 only rounding
    # is left, and 4 eps holds it only with the purity as a correctly rounded tanh.
    eps = np.finfo(float).eps
    temperatures = list(map(float, np.geomspace(10.0, 1e12, 2001)))
    products = transparency_vs_temperature(LAW_BARRIER, 0.5, ThermalModel(), temperatures,
                                           phi_mode="exact")["invariant_product"]
    for T, product in zip(temperatures, products):
        assert abs(product / -1.125 - 1.0) <= 0.12 / (T * T) + 4.0 * eps, T
    report(7, "T ln D with the exact Phi and mu = tanh(1/2T) within 0.12/T^2 + 4 eps "
              "of its limit -9S/8 on 2001 temperatures in [10, 1e12]")


def test_criterion_8_reduction_chain():
    rng = np.random.default_rng(101)
    for _ in range(10_000):
        sqq = float(rng.lognormal(0.0, 0.8))
        spp = float(rng.lognormal(0.0, 0.8))
        sqp = float(rng.uniform(-0.99, 0.99)) * math.sqrt(sqq * spp)
        pure = SecondMoments.from_covariance(0.0, 0.0, sqq, spp, sqp, 1.0)
        rep = evaluate_bounds(pure, hbar=1.0)
        assert rep.bounds["purity"] == rep.bounds["schrodinger_robertson"]
        assert rep.flags["purity"] == (rep.product >= rep.bounds["schrodinger_robertson"])
        uncorrelated = SecondMoments.from_covariance(
            0.0, 0.0, sqq, spp, 0.0, float(rng.uniform(0.4, 1.0))
        )
        rep = evaluate_bounds(uncorrelated, hbar=1.0)
        assert rep.bounds["schrodinger_robertson"] == rep.bounds["heisenberg"]
        assert rep.flags["schrodinger_robertson"] == rep.flags["heisenberg"]
    report(8, "over 10^4 random moment triples the purity bound at mu=1 equals "
              "the SR bound and SR at r=0 equals Heisenberg, flags identical")


def test_criterion_9_decoherence_thesis():
    rho0 = pure_state_density([1.0, 1.0], dim=4)
    rect = RectangularBarrier(v0=1.0, width=1.0, mass=1.0)
    trajectory = run_trajectory(rho0, gamma=1.0, t_max=12.0, steps=13,
                                barrier=rect, energy=0.5)
    mus = trajectory.records["mu"]
    ds = trajectory.records["D"]
    assert all(b < a for a, b in zip(mus, mus[1:]))
    assert all(b > a for a, b in zip(ds, ds[1:]))
    d_start = math.exp(-2.0)
    d_end = math.exp(-2.0 / PHI2(0.5))
    assert abs(ds[0] - d_start) < 1e-6
    assert abs(ds[-1] - d_end) < 1e-6
    assert abs(mus[-1] - 0.5) < 1e-6
    once = dephase_step(rho0, gamma=1.0, dt=1.0)
    split = rho0
    for _ in range(4):
        split = dephase_step(split, gamma=1.0, dt=0.25)
    assert np.max(np.abs(np.subtract(once.entries, split.entries))) < 1e-12
    report(9, f"purity falls 1 -> 0.5 strictly and D rises {d_start:.7f} -> "
              f"{d_end:.7f} strictly (endpoints within 1e-6); semigroup "
              "composition holds within 1e-12")


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path, capsys):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    vacuum = write("vacuum.json", {
        "type": "gaussian", "hbar": 1.0, "mean": [0.0, 0.0],
        "cov": {"qq": 0.5, "pp": 0.5, "qp": 0.0},
    })
    bad = write("bad.json", {
        "type": "gaussian", "hbar": 1.0, "mean": [0.0, 0.0],
        "cov": {"qq": 0.4, "pp": 0.4, "qp": 0.0},
    })
    plus = write("plus.json", {
        "type": "fock", "hbar": 1.0, "mass": 1.0, "omega": 1.0, "dim": 4,
        "re": [[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
               [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
        "im": [[0.0] * 4 for _ in range(4)],
    })
    rect = write("rect.json", {"shape": "rectangular", "v0": 1.0, "width": 1.0, "mass": 1.0})
    spike = write("spike.json", {
        "shape": "sampled", "x": list(np.linspace(0.0, 1.0, 8)),
        "v": [0, 0, 0, 0, 1.0, 0, 0, 0], "mass": 1.0,
    })

    commands = [
        ["check", vacuum],
        ["phi", "--mu", "0.5"],
        ["phi-curve", "--mu-from", "0.4", "--mu-to", "1.0", "--steps", "5"],
        ["oracle", "--mu", "0.7", "--levels", "2"],
        ["oracle", "--falsify", "--mu", "0.7", "--dim", "4", "--samples", "500",
         "--seed", "42"],
        ["thermal", "--t-min", "0.5", "--t-max", "50", "--steps", "4"],
        ["thermal", "--t-min", "50", "--t-max", "500", "--steps", "4",
         "--barrier", rect, "--energy", "0.5"],
        ["tunnel", "--barrier", rect, "--energy", "0.5", "--mu", "0.5,1"],
        ["decohere", "--state", plus, "--gamma", "1.0", "--t-max", "2", "--steps", "4",
         "--barrier", rect, "--energy", "0.5"],
    ]
    for index, argv in enumerate(commands):
        out_a = tmp_path / f"run_{index}_a.txt"
        out_b = tmp_path / f"run_{index}_b.txt"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes(), f"non-deterministic: {argv}"

    usage = main(["phi-curve", "--mu-from", "0.5", "--mu-to", "1.0", "--steps", "0"])
    assert usage == 1
    violation = main(["check", bad, "--out", str(tmp_path / "violation.json")])
    assert violation == 2
    non_convergence = main(["tunnel", "--barrier", spike, "--energy", "0.5",
                            "--out", str(tmp_path / "spike.csv")])
    assert non_convergence == 3
    capsys.readouterr()
    report(10, "all documented commands re-run byte-identically; exit codes "
               "1 (usage), 2 (bound violation), 3 (non-convergence) verified")
