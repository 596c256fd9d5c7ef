"""Thermal states: partition function, temperature-dependent purity, bounds.

Temperature is measured in energy units (the Boltzmann constant is absorbed
into T), so the Boltzmann factor is exp(-E/T).  The purity of a thermal
state follows from the partition function alone,

    mu(T) = Z(T/2) / Z(T)^2,

which for the harmonic oscillator equals tanh(hbar omega / (2 T)) at every
temperature (an algebraic identity of the closed-form Z, not only a
small-T approximation).  All evaluations go through log Z so that very low
temperatures neither overflow sinh nor lose the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport, bound_report, check_correlation, phi_eval, scale_hbar
from .records import SweepRecord
from .states import FockDensityMatrix

OSCILLATOR = "oscillator"
SPECTRUM = "spectrum"


@dataclass(frozen=True)
class ThermalModel:
    """Either the closed-form oscillator or an explicit sorted energy spectrum."""

    kind: str
    spectrum: np.ndarray | None = None
    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0 or self.mass <= 0 or self.omega <= 0:
            raise ValueError("hbar, mass and omega must be positive")
        if self.kind == OSCILLATOR:
            if self.spectrum is not None:
                raise ValueError("oscillator closed form takes no spectrum")
        elif self.kind == SPECTRUM:
            levels = np.asarray(self.spectrum, dtype=float)
            if levels.ndim != 1 or len(levels) < 1:
                raise ValueError("spectrum must be a nonempty 1-d level list")
            if np.any(np.diff(levels) < 0):
                raise ValueError("spectrum must be sorted ascending")
            levels = levels.copy()
            levels.setflags(write=False)
            object.__setattr__(self, "spectrum", levels)
        else:
            raise ValueError(f"unknown thermal model kind {self.kind!r}")

    @classmethod
    def oscillator(cls, hbar: float = 1.0, mass: float = 1.0, omega: float = 1.0) -> "ThermalModel":
        return cls(kind=OSCILLATOR, hbar=hbar, mass=mass, omega=omega)

    @classmethod
    def from_spectrum(
        cls, levels, hbar: float = 1.0, mass: float = 1.0, omega: float = 1.0
    ) -> "ThermalModel":
        return cls(kind=SPECTRUM, spectrum=np.asarray(levels, dtype=float), hbar=hbar, mass=mass, omega=omega)


def _logsumexp(a, axis=None):
    """log(sum(exp(a))) along ``axis`` for real float input.

    Follows ``scipy.special.logsumexp`` step for step, so results agree with
    it bit for bit without importing scipy: the tied maxima are taken out of
    the shifted sum, and a non-finite result falls back to the direct
    ``log(sum(exp(a)))``.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
        # initial=-inf: an empty input sums to log(0) = -inf, as in scipy.
        a_max = np.max(a, axis=axis, keepdims=True, initial=-np.inf)
        is_max = a == a_max
        m = np.sum(is_max, axis=axis, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    out = np.squeeze(np.where(np.isfinite(out), out, direct), axis=axis)
    return out[()] if out.ndim == 0 else out


def _check_temperature(T: float) -> float:
    if not T > 0:
        raise ValueError(f"temperature {T!r} must be positive")
    return float(T)


def log_partition_function(model: ThermalModel, T: float) -> float:
    """log Z(T); stable for arbitrarily small positive T."""
    T = _check_temperature(T)
    if model.kind == OSCILLATOR:
        x = model.hbar * model.omega / (2.0 * T)
        # log[1 / (2 sinh x)] = -x - log(1 - e^(-2x)); expm1 keeps 1 - e^(-2x)
        # accurate when x is tiny (high temperature).
        return -x - math.log(-math.expm1(-2.0 * x)) if x < 350 else -x
    return float(_logsumexp(-model.spectrum / T))


def partition_function(model: ThermalModel, T: float) -> float:
    """Z(T): 1/(2 sinh(hbar omega / 2T)) for the oscillator, a level sum otherwise."""
    return math.exp(log_partition_function(model, T))


def spectrum_tail_bound(model: ThermalModel, T: float) -> float:
    """Crude truncation-error estimate exp(-E_max/T) for a spectrum model (0 for closed form)."""
    T = _check_temperature(T)
    if model.kind == OSCILLATOR:
        return 0.0
    return math.exp(-float(model.spectrum[-1]) / T)


def thermal_purity(model: ThermalModel, T: float) -> float:
    """Purity mu(T) = Z(T/2) / Z(T)^2, evaluated in the log domain."""
    T = _check_temperature(T)
    return math.exp(
        log_partition_function(model, T / 2.0) - 2.0 * log_partition_function(model, T)
    )


def oscillator_mean_occupation(model: ThermalModel, T: float) -> float:
    """Bose occupation 1 / (exp(hbar omega / T) - 1) of the oscillator.

    Past the overflow of expm1 (hbar omega / T > ~709.78) the occupation is
    exp(-hbar omega / T) to working precision, which underflows to 0.
    """
    T = _check_temperature(T)
    if model.kind != OSCILLATOR:
        raise ValueError("mean occupation is defined for the oscillator closed form")
    x = model.hbar * model.omega / T
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:
        return math.exp(-x)


def thermal_state_fock(model: ThermalModel, T: float, dim: int) -> FockDensityMatrix:
    """Oscillator thermal state truncated (and renormalized) to ``dim`` levels."""
    T = _check_temperature(T)
    if model.kind != OSCILLATOR:
        raise ValueError("Fock rendering is defined for the oscillator closed form")
    if dim < 2:
        raise ValueError(f"Fock dimension must be >= 2, got {dim}")
    log_w = -(np.arange(dim) + 0.5) * model.hbar * model.omega / T
    w = np.exp(log_w - _logsumexp(log_w))
    return FockDensityMatrix(
        dim=dim,
        entries=np.diag(w).astype(complex),
        hbar=model.hbar,
        mass=model.mass,
        omega=model.omega,
    )


def thermal_bound_report(
    model: ThermalModel, T: float, r: float = 0.0, phi_mode: str = "exact"
) -> BoundReport:
    """Purity bound at mu(T), compared against the actual thermal variance product.

    For the oscillator the actual product is ((n_bar + 1/2) hbar)^2 with the
    Bose occupation n_bar (and sigma_qp = 0); for a spectrum model the
    moments are unknown here, so the product-dependent fields are NaN and the
    flags None.
    """
    T = _check_temperature(T)
    if model.kind == OSCILLATOR:
        product = ((oscillator_mean_occupation(model, T) + 0.5) * model.hbar) ** 2
    else:
        product = math.nan
    return bound_report(product, product, model.hbar, r, thermal_purity(model, T), phi_mode)


def thermal_sweep(
    model: ThermalModel,
    t_min: float,
    t_max: float,
    steps: int,
    r: float = 0.0,
    phi_mode: str = "exact",
) -> list[SweepRecord]:
    """Logarithmic temperature sweep of (Z, mu, Phi, hbar_eff)."""
    if not 0 < t_min < t_max:
        raise ValueError("need 0 < t_min < t_max")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    check_correlation(r)
    records = []
    for T in np.geomspace(t_min, t_max, steps):
        T = float(T)
        mu = thermal_purity(model, T)
        pv = phi_eval(mu, phi_mode)
        records.append(
            SweepRecord(
                param_name="T",
                param_value=T,
                mu=mu,
                phi=pv.value,
                phi_piece=pv.piece,
                hbar_eff=scale_hbar(model.hbar, pv.value, r),
                Z=partition_function(model, T),
                mu_asymptote=model.hbar * model.omega / (2.0 * T),
            )
        )
    return records
