"""One rule for a physical parameter: ``errors.check_positive``.

Every hbar, mass, frequency, barrier size, energy, temperature and time
the package accepts is positive and finite; 0, a negative value, inf and
NaN each raise a ValueError that names the parameter.  The unit knobs that
no result depended on are gone from the signatures, and so is a bound
check's Phi mode.
"""

from __future__ import annotations

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from purity_bounds import (
    ParabolicBarrier,
    RectangularBarrier,
    SampledBarrier,
    ThermalModel,
    diagonal_mixture,
    effective_hbar,
    evaluate_bounds,
    falsification_sweep,
    fock_projector,
    log_partition_function,
    min_product_fock_mixture,
    oscillator_mean_occupation,
    partition_function,
    phi_curve_certified,
    pure_state_density,
    thermal_bound_report,
    thermal_purity,
    thermal_state_fock,
    transparency,
    transparency_vs_purity,
    transparency_vs_temperature,
)
from purity_bounds.cli import build_parser
from purity_bounds.decoherence import dephase_step, run_trajectory
from purity_bounds.errors import check_positive
from purity_bounds.moments import SecondMoments

GAUSSIAN = str(Path(__file__).resolve().parent / "golden" / "inputs" / "gaussian.json")
RECT = RectangularBarrier(v0=1.0, width=1.0, mass=1.0)
MODEL = ThermalModel()
VACUUM = SecondMoments.from_covariance(0.0, 0.0, 0.5, 0.5, 0.0, 1.0)
X = np.linspace(-4.0, 4.0, 41)


def _check_hbar_override(value):
    args = build_parser().parse_args(["check", GAUSSIAN, "--hbar", repr(value)])
    return args.func(args)


# (parameter named in the error, call with that parameter set to the value)
GUARDS = {
    "effective_hbar": ("hbar", lambda v: effective_hbar(v, 0.0, 0.5)),
    "evaluate_bounds": ("hbar", lambda v: evaluate_bounds(VACUUM, v)),
    "ThermalModel-hbar": ("hbar", lambda v: ThermalModel(hbar=v)),
    "ThermalModel-mass": ("mass", lambda v: ThermalModel(mass=v)),
    "ThermalModel-omega": ("omega", lambda v: ThermalModel(omega=v)),
    "log_partition_function": ("temperature", lambda v: log_partition_function(MODEL, v)),
    "partition_function": ("temperature", lambda v: partition_function(MODEL, v)),
    "thermal_purity": ("temperature", lambda v: thermal_purity(MODEL, v)),
    "oscillator_mean_occupation": ("temperature", lambda v: oscillator_mean_occupation(MODEL, v)),
    "thermal_state_fock": ("temperature", lambda v: thermal_state_fock(MODEL, v, 4)),
    "thermal_bound_report": ("temperature", lambda v: thermal_bound_report(MODEL, v)),
    "RectangularBarrier-v0": ("v0", lambda v: RectangularBarrier(v0=v, width=1.0)),
    "RectangularBarrier-width": ("width", lambda v: RectangularBarrier(v0=1.0, width=v)),
    "RectangularBarrier-mass": ("mass", lambda v: RectangularBarrier(1.0, 1.0, mass=v)),
    "ParabolicBarrier-v0": ("v0", lambda v: ParabolicBarrier(v0=v, curvature=1.0)),
    "ParabolicBarrier-curvature": ("curvature", lambda v: ParabolicBarrier(1.0, curvature=v)),
    "ParabolicBarrier-mass": ("mass", lambda v: ParabolicBarrier(1.0, 1.0, mass=v)),
    "SampledBarrier-mass": ("mass", lambda v: SampledBarrier(X, np.exp(-X * X), mass=v)),
    "transparency-energy": ("energy", lambda v: transparency(RECT, v, 1.0)),
    "transparency-hbar_eff": ("hbar_eff", lambda v: transparency(RECT, 0.5, v)),
    "transparency_vs_purity": ("hbar", lambda v: transparency_vs_purity(RECT, 0.5, v, 0.0, [1.0])),
    "transparency_vs_temperature": ("temperature", lambda v: transparency_vs_temperature(
        RECT, 0.5, MODEL, [v])),
    "dephase_step": ("dt", lambda v: dephase_step(fock_projector(0, 3), 0.5, v)),
    "run_trajectory": ("t_max", lambda v: run_trajectory(fock_projector(0, 3), 0.5, v, 3,
                                                         RECT, 0.5)),
    "cli-check": ("--hbar", _check_hbar_override),
}


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("guard", GUARDS)
def test_non_positive_or_non_finite_parameter_rejected(guard, value):
    name, call = GUARDS[guard]
    message = f"{name} {value!r} must be positive and finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def test_check_positive_passes_a_positive_finite_value():
    assert check_positive("hbar", 5e-324) == 5e-324
    assert check_positive("hbar", 1.7e308) == 1.7e308


# The oracle works in units of hbar; a temperature sweep takes hbar from its
# model; the Fock constructors build natural-unit states.  A bound check takes
# the exact Phi alone: the interpolation lies above Phi in places.
REMOVED_KNOBS = {
    evaluate_bounds: {"phi_mode"},
    thermal_bound_report: {"phi_mode"},
    min_product_fock_mixture: {"hbar"},
    phi_curve_certified: {"hbar"},
    falsification_sweep: {"hbar"},
    transparency_vs_temperature: {"hbar"},
    diagonal_mixture: {"hbar", "mass", "omega"},
    pure_state_density: {"hbar", "mass", "omega"},
    fock_projector: {"hbar", "mass", "omega"},
}


@pytest.mark.parametrize("func", REMOVED_KNOBS, ids=lambda f: f.__name__)
def test_unit_knobs_are_gone(func):
    assert REMOVED_KNOBS[func].isdisjoint(inspect.signature(func).parameters)
