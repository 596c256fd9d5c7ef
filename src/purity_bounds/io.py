"""State/barrier file parsing and deterministic CSV/JSON report emission.

File schemas are strict: every documented field must be present and no
other field is accepted, so a typo in a key fails loudly instead of being
silently ignored.  CSV numbers are printed with 9 significant digits,
switching to scientific notation below 1e-4, which keeps files diffable at
the tolerances used throughout the package.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .bounds import BoundReport
from .states import FockDensityMatrix, GaussianState, QuantumState
from .tunneling import BarrierSpec, ParabolicBarrier, RectangularBarrier, SampledBarrier

SCHEMA_VERSION = 2

ORACLE_COLUMNS = [
    "mu", "phi_oracle", "phi_exact", "phi_app",
    "rel_err_exact", "rel_err_app", "method", "iterations",
]


def format_number(value: Any) -> str:
    """9 significant digits; scientific notation below 1e-4 in magnitude."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    v = float(value)
    if math.isnan(v):
        return "nan"
    if v == 0.0:
        return "0"
    if abs(v) < 1e-4:
        return f"{v:.8e}"
    return f"{v:.9g}"


def render_csv(header: list[str], rows: list[list[Any]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def render_table(table: dict[str, list]) -> str:
    """CSV of a column table: its keys are the header, its columns the rows."""
    return render_csv(list(table), list(zip(*table.values())))


# perfbench/tracing.py still wraps these names; they go with the next
# benchmark change.
tunnel_sweep_csv = thermal_sweep_csv = decohere_csv = render_table


def _require_fields(data: dict, required: set[str], what: str) -> None:
    missing = required - data.keys()
    unknown = data.keys() - required
    if missing:
        raise ValueError(f"{what}: missing field(s) {sorted(missing)}")
    if unknown:
        raise ValueError(f"{what}: unknown field(s) {sorted(unknown)}")


def _as_real(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field '{field}' must be a number, got {value!r}")
    return float(value)


def state_from_dict(data: dict) -> QuantumState:
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("state file must be a JSON object with a 'type' field")
    kind = data["type"]
    if kind == "gaussian":
        _require_fields(data, {"type", "hbar", "mean", "cov"}, "gaussian state")
        mean = data["mean"]
        if not isinstance(mean, list) or len(mean) != 2:
            raise ValueError("field 'mean' must be a [q, p] pair")
        cov = data["cov"]
        if not isinstance(cov, dict):
            raise ValueError("field 'cov' must be an object")
        _require_fields(cov, {"qq", "pp", "qp"}, "gaussian cov")
        return GaussianState(
            mean_q=_as_real(mean[0], "mean[0]"),
            mean_p=_as_real(mean[1], "mean[1]"),
            sigma_qq=_as_real(cov["qq"], "cov.qq"),
            sigma_pp=_as_real(cov["pp"], "cov.pp"),
            sigma_qp=_as_real(cov["qp"], "cov.qp"),
            hbar=_as_real(data["hbar"], "hbar"),
        )
    if kind == "fock":
        _require_fields(data, {"type", "hbar", "mass", "omega", "dim", "re", "im"}, "fock state")
        dim = data["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError(f"field 'dim' must be an integer, got {dim!r}")
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
        if re.shape != (dim, dim) or im.shape != (dim, dim):
            raise ValueError(f"'re' and 'im' must both be {dim}x{dim} matrices")
        return FockDensityMatrix(
            dim=dim,
            entries=re + 1j * im,
            hbar=_as_real(data["hbar"], "hbar"),
            mass=_as_real(data["mass"], "mass"),
            omega=_as_real(data["omega"], "omega"),
        )
    raise ValueError(f"unknown state type {kind!r}; expected 'gaussian' or 'fock'")


def load_state(path: str) -> QuantumState:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return state_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def barrier_from_dict(data: dict) -> BarrierSpec:
    if not isinstance(data, dict) or "shape" not in data:
        raise ValueError("barrier file must be a JSON object with a 'shape' field")
    shape = data["shape"]
    if shape == "rectangular":
        _require_fields(data, {"shape", "v0", "width", "mass"}, "rectangular barrier")
        return RectangularBarrier(
            v0=_as_real(data["v0"], "v0"),
            width=_as_real(data["width"], "width"),
            mass=_as_real(data["mass"], "mass"),
        )
    if shape == "parabolic":
        _require_fields(data, {"shape", "v0", "curvature", "mass"}, "parabolic barrier")
        return ParabolicBarrier(
            v0=_as_real(data["v0"], "v0"),
            curvature=_as_real(data["curvature"], "curvature"),
            mass=_as_real(data["mass"], "mass"),
        )
    if shape == "sampled":
        _require_fields(data, {"shape", "x", "v", "mass"}, "sampled barrier")
        return SampledBarrier(
            x=np.asarray(data["x"], dtype=float),
            v=np.asarray(data["v"], dtype=float),
            mass=_as_real(data["mass"], "mass"),
        )
    raise ValueError(f"unknown barrier shape {shape!r}")


def load_barrier(path: str) -> BarrierSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return barrier_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def bound_report_dict(report: BoundReport) -> dict:
    return {
        "bounds": {
            "heisenberg": report.heisenberg_bound,
            "schrodinger_robertson": report.sr_bound,
            "purity": report.purity_bound,
        },
        "product": report.product,
        "sr_lhs": report.sr_lhs,
        "hbar_eff": report.hbar_eff,
        "phi": {"value": report.phi_value, "piece": report.phi_piece},
        "slacks": {
            "heisenberg": report.heisenberg_slack,
            "schrodinger_robertson": report.sr_slack,
            "purity": report.purity_slack,
        },
        "flags": {
            "heisenberg": report.heisenberg_pass,
            "schrodinger_robertson": report.sr_pass,
            "purity": report.purity_pass,
        },
    }


def render_json(payload: dict) -> str:
    document = {"schema_version": SCHEMA_VERSION}
    document.update(payload)
    return json.dumps(document, indent=2, allow_nan=True) + "\n"
