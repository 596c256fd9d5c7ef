"""Purity- and correlation-dependent uncertainty bounds and their effect on tunneling.

The quantum limit on the position-momentum variance product grows both with
the position-momentum correlation r and with falling state purity mu.  This
package evaluates the resulting family of bounds, the effective Planck
constant hbar Phi(mu) / sqrt(1 - r^2), certifies the multiplier Phi(mu) by
independent constrained minimization, and propagates hbar_eff into WKB
barrier-transparency calculations (thermal states and dephasing
trajectories included).

The public names below load their home module on first access (PEP 562).
No module imports numpy at load time; only ``falsification_sweep`` does.
"""

import importlib

__version__ = "0.1.0"

# Home module -> the public names it defines.
_EXPORTS = {
    "bounds": "BoundReport PhiValue effective_hbar evaluate_bounds phi phi_eval",
    "decoherence": "DephasingTrajectory dephase_step run_trajectory",
    "errors": "DegenerateCorrelationError InfeasibleTargetError InvalidStateError "
              "ResolutionError TruncationWarning",
    "moments": "SecondMoments compute_moments purity",
    "oracle": "FalsificationReport MinimizationResult PhiCurveRow falsification_sweep "
              "min_product_fock_mixture phi_curve_certified",
    "states": "FockDensityMatrix GaussianState InvariantViolation QuantumState diagonal_mixture "
              "fock_projector pure_state_density validate_state",
    "thermal": "ThermalModel log_partition_function oscillator_mean_occupation "
               "partition_function thermal_bound_report thermal_purity "
               "thermal_state_fock thermal_sweep",
    "tunneling": "BarrierSpec ParabolicBarrier RectangularBarrier SampledBarrier "
                 "TransparencyResult action_integral transparency transparency_vs_purity "
                 "transparency_vs_temperature",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
