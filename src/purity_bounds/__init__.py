"""Purity- and correlation-dependent uncertainty bounds and their effect on tunneling.

The quantum limit on the position-momentum variance product grows both with
the position-momentum correlation r and with falling state purity mu.  This
package evaluates the resulting family of bounds, the effective Planck
constant hbar Phi(mu) / sqrt(1 - r^2), certifies the multiplier Phi(mu) by
independent constrained minimization, and propagates hbar_eff into WKB
barrier-transparency calculations (thermal states and dephasing
trajectories included).
"""

from .bounds import (
    BoundReport,
    MomentMatrixA,
    PhiValue,
    effective_hbar,
    evaluate_bounds,
    moment_matrix,
    phi,
    phi_eval,
)
from .decoherence import DephasingTrajectory, dephase_step, run_trajectory
from .errors import (
    DegenerateCorrelationError,
    InfeasibleTargetError,
    InvalidStateError,
    NonConvergenceError,
    PieceDomainError,
    ResolutionError,
    TruncationWarning,
)
from .moments import SecondMoments, compute_moments, purity
from .oracle import (
    FalsificationReport,
    MinimizationResult,
    PhiCurveRow,
    falsification_sweep,
    linear_ansatz_weights,
    min_product_fock_mixture,
    phi_curve_certified,
)
from .states import (
    FockDensityMatrix,
    GaussianState,
    InvariantViolation,
    QuantumState,
    diagonal_mixture,
    fock_projector,
    fock_quadrature_operators,
    pure_state_density,
    validate_state,
)
from .thermal import (
    ThermalModel,
    log_partition_function,
    oscillator_mean_occupation,
    partition_function,
    spectrum_tail_bound,
    thermal_bound_report,
    thermal_purity,
    thermal_state_fock,
    thermal_sweep,
)
from .tunneling import (
    BarrierSpec,
    ParabolicBarrier,
    RectangularBarrier,
    SampledBarrier,
    TransparencyResult,
    action_integral,
    transparency,
    transparency_vs_purity,
    transparency_vs_temperature,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "MomentMatrixA",
    "PhiValue",
    "effective_hbar",
    "evaluate_bounds",
    "moment_matrix",
    "phi",
    "phi_eval",
    "DephasingTrajectory",
    "dephase_step",
    "run_trajectory",
    "DegenerateCorrelationError",
    "InfeasibleTargetError",
    "InvalidStateError",
    "NonConvergenceError",
    "PieceDomainError",
    "ResolutionError",
    "TruncationWarning",
    "SecondMoments",
    "compute_moments",
    "purity",
    "FalsificationReport",
    "MinimizationResult",
    "PhiCurveRow",
    "falsification_sweep",
    "linear_ansatz_weights",
    "min_product_fock_mixture",
    "phi_curve_certified",
    "FockDensityMatrix",
    "GaussianState",
    "InvariantViolation",
    "QuantumState",
    "diagonal_mixture",
    "fock_projector",
    "fock_quadrature_operators",
    "pure_state_density",
    "validate_state",
    "ThermalModel",
    "log_partition_function",
    "oscillator_mean_occupation",
    "partition_function",
    "spectrum_tail_bound",
    "thermal_bound_report",
    "thermal_purity",
    "thermal_state_fock",
    "thermal_sweep",
    "BarrierSpec",
    "ParabolicBarrier",
    "RectangularBarrier",
    "SampledBarrier",
    "TransparencyResult",
    "action_integral",
    "transparency",
    "transparency_vs_purity",
    "transparency_vs_temperature",
    "__version__",
]
