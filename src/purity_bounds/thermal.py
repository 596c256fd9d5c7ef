"""Thermal states of the harmonic oscillator: partition function, purity, bounds.

Temperature is measured in energy units (the Boltzmann constant is absorbed
into T), so the Boltzmann factor is exp(-E/T).  The purity of a thermal
state follows from the partition function alone,

    mu(T) = Z(T/2) / Z(T)^2,

which for the oscillator equals tanh(hbar omega / (2 T)) at every
temperature (an algebraic identity of the closed-form Z, not only a
small-T approximation); the purity is evaluated as that tanh.  Z goes
through log Z, so that very low temperatures do not overflow sinh.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .bounds import BoundReport, check_correlation, evaluate_bounds, phi_eval, scale_hbar
from .errors import PositiveFields, check_positive

if TYPE_CHECKING:
    from .states import FockDensityMatrix


class _ThermalFields(NamedTuple):
    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0


class ThermalModel(PositiveFields, _ThermalFields):
    """The harmonic oscillator whose thermal states are evaluated in closed form;
    hbar omega must be positive too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_positive("hbar * omega", self.hbar * self.omega)
        return self


def temperature_grid(t_min: float, t_max: float, steps: int) -> list[float]:
    """``steps`` logarithmically spaced temperatures from t_min to t_max, both
    exact: the values of ``np.geomspace`` on its scalar (non-SIMD) path."""
    if not 0 < t_min < t_max < math.inf:
        raise ValueError(f"need 0 < t_min < t_max < inf, got {t_min!r}, {t_max!r}")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    lo, hi = math.log10(t_min), math.log10(t_max)
    step = (hi - lo) / (steps - 1)
    return [float(t_min), *(10.0 ** (i * step + lo) for i in range(1, steps - 1)), float(t_max)]


def log_partition_function(model: ThermalModel, T: float) -> float:
    """log Z(T); stable for arbitrarily small positive T."""
    x = 0.5 * (model.hbar * model.omega) / check_positive("temperature", T)
    # log[1 / (2 sinh x)] = -x - log(1 - e^(-2x)); expm1 keeps 1 - e^(-2x)
    # accurate when x is tiny (high temperature).
    return -x - math.log(-math.expm1(-2.0 * x))


def partition_function(model: ThermalModel, T: float) -> float:
    """Z(T) = 1 / (2 sinh(hbar omega / 2T)); inf past the float range, T above ~1.8e308 hbar omega."""
    log_z = log_partition_function(model, T)
    try:
        return math.exp(log_z)
    except OverflowError:
        return math.inf


def thermal_purity(model: ThermalModel, T: float) -> float:
    """Purity mu(T) = Z(T/2) / Z(T)^2 = tanh(hbar omega / 2T); a ValueError if it underflows."""
    # Halved, not 2T: 2T overflows above T ~ 9e307.
    mu = math.tanh(0.5 * (model.hbar * model.omega) / check_positive("temperature", T))
    if mu == 0.0:
        raise ValueError(f"purity tanh(hbar omega / (2T)) underflows at temperature {T!r}")
    return mu


def oscillator_mean_occupation(model: ThermalModel, T: float) -> float:
    """Bose occupation 1 / (exp(hbar omega / T) - 1) of the oscillator.

    Past the overflow of expm1 (hbar omega / T > ~709.78) the occupation is
    exp(-hbar omega / T) to working precision, which underflows to 0.
    """
    x = model.hbar * model.omega / check_positive("temperature", T)
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:
        return math.exp(-x)


def thermal_state_fock(model: ThermalModel, T: float, dim: int) -> FockDensityMatrix:
    """Thermal state truncated (and renormalized) to ``dim`` levels."""
    from .states import diagonal_mixture

    check_positive("temperature", T)
    if dim < 2:
        raise ValueError(f"Fock dimension must be >= 2, got {dim}")
    # The ground-state weight is 1 before normalisation, so nothing overflows.
    w = [math.exp(-n * model.hbar * model.omega / T) for n in range(dim)]
    total = math.fsum(w)
    return diagonal_mixture([x / total for x in w])._replace(
        hbar=model.hbar, mass=model.mass, omega=model.omega)


def thermal_bound_report(model: ThermalModel, T: float) -> BoundReport:
    """``evaluate_bounds`` of the thermal state at T, the Gaussian state with zero means and
    sigma_qp and variances (n_bar + 1/2) hbar / (m omega), (n_bar + 1/2) hbar m omega, as
    ``check`` validates it: an overflow is an InvalidStateError that names what overflowed."""
    from .moments import compute_moments
    from .states import GaussianState

    # sigma_pp goes through hbar omega, which ``ThermalModel`` checks: hbar m overflows first.
    occupation = oscillator_mean_occupation(model, T) + 0.5
    state = GaussianState(0.0, 0.0, occupation * model.hbar / model.mass / model.omega,
                          occupation * (model.hbar * model.omega) * model.mass, 0.0, model.hbar)
    return evaluate_bounds(compute_moments(state), model.hbar)


def thermal_sweep(
    model: ThermalModel,
    t_min: float,
    t_max: float,
    steps: int,
    r: float = 0.0,
    phi_mode: str = "exact",
) -> dict[str, list]:
    """Logarithmic temperature sweep of (Z, mu, Phi, hbar_eff) as a thermal table."""
    temperatures = temperature_grid(t_min, t_max, steps)
    check_correlation(r)
    mu = [thermal_purity(model, T) for T in temperatures]
    phis = [phi_eval(m, phi_mode) for m in mu]
    return {
        "T": temperatures,
        "Z": [partition_function(model, T) for T in temperatures],
        "mu": mu,
        "mu_asymptote": [0.5 * (model.hbar * model.omega) / T for T in temperatures],
        "phi": [pv.value for pv in phis],
        "phi_mode": [pv.piece for pv in phis],
        "hbar_eff": [scale_hbar(model.hbar, pv.value, r) for pv in phis],
    }
