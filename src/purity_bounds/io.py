"""State/barrier file parsing, sweep grids and deterministic CSV/JSON report emission.

File schemas are strict: every documented field must be present and no
other field is accepted, so a typo in a key fails loudly instead of being
silently ignored.  CSV numbers are printed with 9 significant digits,
switching to scientific notation below 1e-4, which keeps files diffable at
the tolerances used throughout the package.
"""

from __future__ import annotations

import json
import math
import numbers
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .bounds import BoundReport
    from .states import QuantumState
    from .tunneling import BarrierSpec

SCHEMA_VERSION = 2

ORACLE_COLUMNS = [
    "mu", "phi_oracle", "phi_exact", "phi_app",
    "rel_err_exact", "rel_err_app", "method", "iterations",
]


def format_number(value: Any) -> str:
    """9 significant digits, scientific below 1e-4 in magnitude; inf and NaN raise ValueError."""
    if isinstance(value, numbers.Integral):  # numpy registers its integer types
        return str(int(value))
    if isinstance(value, str):
        return value
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"non-finite number {v!r} in the output")
    if v == 0.0:
        return "0"
    if abs(v) < 1e-4:
        return f"{v:.8e}"
    return f"{v:.9g}"


def linear_grid(lo: float, hi: float, steps: int, what: str) -> list[float]:
    """``steps`` evenly spaced points from lo to hi, the values of np.linspace."""
    if steps < 1:
        raise ValueError(f"{what}: steps must be >= 1")
    if steps == 1:
        if lo != hi:
            raise ValueError(f"{what}: a single step needs equal endpoints")
        return [lo]
    if not -float("inf") < lo < hi < float("inf"):
        raise ValueError(f"{what}: need finite lower < upper, got {lo!r}, {hi!r}")
    step = (hi - lo) / (steps - 1)
    return [lo + i * step for i in range(steps - 1)] + [hi]


def render_csv(header: list[str], rows: list[list[Any]]) -> str:
    lines = [",".join(header)] + [",".join(map(format_number, row)) for row in rows]
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
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"field '{field}' is outside the float range") from None


def _as_reals(values, field: str) -> list[float]:
    if not isinstance(values, list):
        raise ValueError(f"field '{field}' must be a list of numbers")
    return [_as_real(value, f"{field}[{i}]") for i, value in enumerate(values)]


def _as_matrix(rows, field: str, dim: int) -> list[list[float]]:
    if not (isinstance(rows, list) and len(rows) == dim
            and all(isinstance(row, list) and len(row) == dim for row in rows)):
        raise ValueError(f"field '{field}' must be a {dim}x{dim} matrix")
    return [_as_reals(row, f"{field}[{i}]") for i, row in enumerate(rows)]


def state_from_dict(data: dict) -> QuantumState:
    from .states import FockDensityMatrix, GaussianState

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
        re, im = _as_matrix(data["re"], "re", dim), _as_matrix(data["im"], "im", dim)
        return FockDensityMatrix(
            dim=dim,
            entries=[[complex(a, b) for a, b in zip(*rows)] for rows in zip(re, im)],
            hbar=_as_real(data["hbar"], "hbar"),
            mass=_as_real(data["mass"], "mass"),
            omega=_as_real(data["omega"], "omega"),
        )
    raise ValueError(f"unknown state type {kind!r}; expected 'gaussian' or 'fock'")


def _load(path: str, parse):
    """``parse`` of the JSON in ``path``; every failure is a ValueError naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return parse(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_state(path: str) -> QuantumState:
    return _load(path, state_from_dict)


def barrier_from_dict(data: dict) -> BarrierSpec:
    from .tunneling import ParabolicBarrier, RectangularBarrier, SampledBarrier

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
        return SampledBarrier(x=_as_reals(data["x"], "x"), v=_as_reals(data["v"], "v"),
                              mass=_as_real(data["mass"], "mass"))
    raise ValueError(f"unknown barrier shape {shape!r}")


def load_barrier(path: str) -> BarrierSpec:
    return _load(path, barrier_from_dict)


def bound_report_dict(report: BoundReport) -> dict:
    """The report's fields, with ``phi`` as a {"value", "piece"} object."""
    return {**report._asdict(), "phi": report.phi._asdict()}


def render_json(payload: dict) -> str:
    document = {"schema_version": SCHEMA_VERSION}
    document.update(payload)
    return json.dumps(document, indent=2, allow_nan=False) + "\n"
