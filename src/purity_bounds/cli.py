"""Command-line surface tying the modules together.

Subcommands: check, phi, phi-curve, oracle, thermal, tunnel, decohere.
Tabular sweeps emit CSV, one column per key of the sweep's column table;
single reports (check, phi, falsification) emit JSON.  Output is byte
identical for identical arguments and seed.

Exit codes: 0 success, 1 input/usage error, 2 bound-violation finding,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, astuple, replace

import numpy as np

from . import io as _io
from .bounds import PHI_MODES, evaluate_bounds, phi, phi_eval
from .decoherence import run_trajectory
from .errors import NonConvergenceError
from .moments import compute_moments
from .oracle import FALSIFICATION_SLACK_TOL, METHODS, falsification_sweep, phi_curve_certified
from .states import FockDensityMatrix, validate_state
from .thermal import ThermalModel, thermal_sweep
from .tunneling import transparency_vs_purity, transparency_vs_temperature


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _linear_grid(lo: float, hi: float, steps: int, what: str) -> np.ndarray:
    if steps < 1:
        raise ValueError(f"{what}: steps must be >= 1")
    if steps == 1:
        if lo != hi:
            raise ValueError(f"{what}: a single step needs equal endpoints")
        return np.array([lo])
    if not lo < hi:
        raise ValueError(f"{what}: need lower < upper")
    return np.linspace(lo, hi, steps)


def _cmd_check(args) -> int:
    state = _io.load_state(args.state)
    if args.hbar is not None:
        if not args.hbar > 0:
            raise ValueError(f"--hbar {args.hbar!r} must be positive")
        state = replace(state, hbar=args.hbar)
    violations = validate_state(state)
    if violations:
        payload = {"valid": False, "violations": [asdict(v) for v in violations]}
        _emit(_io.render_json(payload), args.out)
        return 2
    m = compute_moments(state)
    report = evaluate_bounds(m, state.hbar, args.phi_mode)
    payload = {"valid": True, "hbar": state.hbar, "moments": asdict(m)}
    payload.update(_io.bound_report_dict(report))
    _emit(_io.render_json(payload), args.out)
    all_pass = report.heisenberg_pass and report.sr_pass and report.purity_pass
    return 0 if all_pass else 2


def _cmd_phi(args) -> int:
    pv = phi_eval(args.mu, args.mode)
    payload = {"mu": args.mu, "mode": args.mode, "phi": pv.value, "piece": pv.piece}
    _emit(_io.render_json(payload), args.out)
    return 0


def _cmd_phi_curve(args) -> int:
    if not 0.0 < args.mu_from <= 1.0 or not 0.0 < args.mu_to <= 1.0:
        raise ValueError("purity endpoints must lie in (0, 1]")
    grid = _linear_grid(args.mu_from, args.mu_to, args.steps, "phi-curve")
    mu = list(map(float, grid))
    table = {"mu": mu}
    for column, mode in (("phi_exact", "exact"), ("phi_app", "interpolation"),
                         ("phi_asymptote", "asymptote")):
        table[column] = [phi(m, mode) for m in mu]
    _emit(_io.render_table(table), args.out)
    return 0


def _cmd_oracle(args) -> int:
    if args.falsify:
        for name in ("mu", "dim", "samples", "seed"):
            if getattr(args, name) is None:
                raise ValueError(f"--falsify requires --{name}")
        report = falsification_sweep(args.mu, args.dim, args.samples, args.seed)
        _emit(_io.render_json(asdict(report)), args.out)
        return 2 if report.min_slack < -FALSIFICATION_SLACK_TOL else 0
    if args.mu is not None:
        grid = np.array([args.mu])
    elif args.mu_from is not None and args.mu_to is not None and args.steps is not None:
        grid = _linear_grid(args.mu_from, args.mu_to, args.steps, "oracle")
    else:
        raise ValueError("oracle needs --mu, or --mu-from/--mu-to/--steps")
    rows = [astuple(row) for row in phi_curve_certified(grid, args.levels, method=args.method)]
    _emit(_io.render_csv(_io.ORACLE_COLUMNS, rows), args.out)
    return 0


def _cmd_thermal(args) -> int:
    model = ThermalModel.oscillator(hbar=args.hbar, mass=args.mass, omega=args.omega)
    if (args.barrier is None) != (args.energy is None):
        raise ValueError("--barrier and --energy must be given together")
    if args.barrier is not None:
        barrier = _io.load_barrier(args.barrier)
        if args.steps < 2 or not 0 < args.t_min < args.t_max:
            raise ValueError("need 0 < t-min < t-max and steps >= 2")
        t_grid = np.geomspace(args.t_min, args.t_max, args.steps)
        table = transparency_vs_temperature(
            barrier, args.energy, args.hbar, model, t_grid, r=args.r, phi_mode=args.phi_mode
        )
    else:
        table = thermal_sweep(model, args.t_min, args.t_max, args.steps,
                              r=args.r, phi_mode=args.phi_mode)
    _emit(_io.render_table(table), args.out)
    return 0


def _parse_mu_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"bad --mu list {text!r}") from exc


def _cmd_tunnel(args) -> int:
    barrier = _io.load_barrier(args.barrier)
    if args.mu is not None:
        mu_grid = _parse_mu_list(args.mu)
        if not mu_grid:
            raise ValueError("--mu list is empty")
    elif args.mu_from is not None and args.mu_to is not None and args.steps is not None:
        mu_grid = _linear_grid(args.mu_from, args.mu_to, args.steps, "tunnel")
    else:
        mu_grid = [1.0]
    table = transparency_vs_purity(
        barrier, args.energy, args.hbar, args.r, mu_grid, phi_mode=args.phi_mode
    )
    _emit(_io.render_table(table), args.out)
    return 0


def _cmd_decohere(args) -> int:
    state = _io.load_state(args.state)
    if not isinstance(state, FockDensityMatrix):
        raise ValueError("decohere needs a fock state file")
    barrier = _io.load_barrier(args.barrier)
    trajectory = run_trajectory(
        state, args.gamma, args.t_max, args.steps, barrier, args.energy,
        phi_mode=args.phi_mode,
    )
    _emit(_io.render_table(trajectory.records), args.out)
    return 0


def _add_phi_mode(parser) -> None:
    parser.add_argument("--phi-mode", choices=PHI_MODES, default="exact",
                        help="which form of the bound multiplier to use")


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="purity-bounds",
        description="Purity-dependent uncertainty bounds, effective Planck "
                    "constant, and WKB barrier transparency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate all uncertainty bounds for a state file")
    p.add_argument("state", help="state JSON file")
    p.add_argument("--hbar", type=float, default=None, help="override the file's hbar")
    _add_phi_mode(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("phi", help="evaluate the bound multiplier at one purity")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--mode", choices=PHI_MODES, default="exact")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("phi-curve", help="tabulate all forms of the multiplier on a grid")
    p.add_argument("--mu-from", type=float, required=True)
    p.add_argument("--mu-to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_phi_curve)

    p = sub.add_parser("oracle", help="certify the multiplier by constrained minimization")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--mu-from", type=float, default=None)
    p.add_argument("--mu-to", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--falsify", action="store_true",
                   help="probe the bound instead: one eigen-step on det Sigma from each "
                        "of --samples random pure states")
    p.add_argument("--dim", type=int, default=None, help="matrix dimension for --falsify")
    p.add_argument("--samples", type=int, default=None, help="sample count for --falsify")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (required for --falsify)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("thermal", help="temperature sweep (optionally through a barrier)")
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--barrier", default=None, help="barrier JSON file")
    p.add_argument("--energy", type=float, default=None)
    _add_phi_mode(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_thermal)

    p = sub.add_parser("tunnel", help="barrier transparency along a purity grid")
    p.add_argument("--barrier", required=True, help="barrier JSON file")
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--mu", default=None, help="purity value or comma-separated list (default 1)")
    p.add_argument("--mu-from", type=float, default=None)
    p.add_argument("--mu-to", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    _add_phi_mode(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_tunnel)

    p = sub.add_parser("decohere", help="dephasing trajectory with transparency tracking")
    p.add_argument("--state", required=True, help="fock state JSON file")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--barrier", required=True, help="barrier JSON file")
    p.add_argument("--energy", type=float, required=True)
    _add_phi_mode(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_decohere)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
