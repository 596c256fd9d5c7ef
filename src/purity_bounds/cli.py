"""Command-line surface tying the modules together.

Subcommands: check, phi, phi-curve, oracle, thermal, tunnel, decohere.
Tabular sweeps emit CSV, one column per key of the sweep's column table;
single reports (check, phi, falsification) emit JSON.  Output is byte
identical for identical arguments and seed.

Exit codes: 0 success, 1 input/usage error, 2 bound-violation finding (the exact
Phi's, for check), 3 a sampled barrier grid too coarse to resolve the barrier.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import io as _io
from .bounds import BOUND_NAMES, METHODS, PHI_MODES, evaluate_bounds, phi, phi_eval
from .errors import ResolutionError, check_positive


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


# The most points of a --steps grid and the most ``oracle --levels``; each is built whole.
MAX_STEPS = 10**6
_ORACLE_LEVELS = 3  # the lowest number states ``oracle`` mixes without --levels
# No state lies below the bound (VERIFICATION.md, "Dense states"), so a
# falsifier slack below minus this, in units of hbar^2, is a failure, not rounding.
FALSIFICATION_SLACK_TOL = 1e-8
# Each column that can overflow, in the order checked, and the message that names its
# input: Phi grows as the purity falls, mu_asymptote as the temperature does, and the
# rest with hbar or 1/hbar (the flag or file field).
_PHI, _HBAR = "Phi overflows at purity {mu!r}", "{hbar} is out of range: {column} overflows{at}"
_OVERFLOWS = {"phi": _PHI, "phi_exact": _PHI, "phi_app": _PHI, "phi_asymptote": _PHI,
              "mu_asymptote": "mu_asymptote = hbar omega / (2T) overflows at temperature {T!r}",
              **dict.fromkeys(("sigma_qq sigma_pp", *(f"{name} bound" for name in BOUND_NAMES),
                               "hbar_eff", "ln_D", "invariant_product", "inv_mu_ln_D"), _HBAR)}


def _require_finite(table: dict, hbar: str = "", at: str = "") -> None:
    """Raise the ``_OVERFLOWS`` message of the first inf or NaN in ``table``, formatted with
    its row: ``hbar`` is the flag or file field and its value, ``at`` names a sweep's row."""
    for column, message in _OVERFLOWS.items():
        for i, value in enumerate(table.get(column, ())):
            if not math.isfinite(value):
                row = {key: values[i] for key, values in table.items()}
                row.update(hbar=hbar, column=column, at=at.format_map(row))
                raise ValueError(message.format_map(row))


def _cmd_check(args) -> int:
    from .moments import SecondMoments, _covariance, _purity
    from .states import validate_state

    state = _io.load_state(args.state)
    if args.hbar is not None:
        state = state._replace(hbar=check_positive("--hbar", args.hbar))
    violations = validate_state(state)
    if violations:
        payload = {"valid": False, "violations": [v._asdict() for v in violations]}
        _emit(_io.render_json(payload), args.out)
        return 2
    hbar = f"{args.state}: hbar {state.hbar!r}" if args.hbar is None else f"--hbar {state.hbar!r}"
    moments = _covariance(state)  # a Fock state's moments scale with hbar and can overflow
    _require_finite({"sigma_qq sigma_pp": [moments[2] * moments[3]]}, hbar)
    m = SecondMoments.from_covariance(*moments, _purity(state))
    report = evaluate_bounds(m, state.hbar)
    _require_finite({f"{name} bound": [value] for name, value in report.bounds.items()}, hbar)
    payload = {"valid": True, "hbar": state.hbar, "moments": m._asdict()}
    payload.update(_io.bound_report_dict(report))
    _emit(_io.render_json(payload), args.out)
    return 0 if all(report.flags.values()) else 2


def _cmd_phi(args) -> int:
    pv = phi_eval(args.mu, args.mode)
    _require_finite({"mu": [args.mu], "phi": [pv.value]})
    payload = {"mu": args.mu, "mode": args.mode, "phi": pv.value, "piece": pv.piece}
    _emit(_io.render_json(payload), args.out)
    return 0


def _cmd_phi_curve(args) -> int:
    mu = _io.linear_grid(args.mu_from, args.mu_to, args.steps, "phi-curve")
    modes = {"phi_exact": "exact", "phi_app": "interpolation", "phi_asymptote": "asymptote"}
    table = {"mu": mu, **{column: [phi(m, mode) for m in mu] for column, mode in modes.items()}}
    _require_finite(table)
    _emit(_io.render_table(table), args.out)
    return 0


def _purity_grid(args, command: str, parse_mu):
    """Purities from --mu (read by ``parse_mu``) or all of --mu-from/--mu-to/--steps, else None."""
    flags = (args.mu_from, args.mu_to, args.steps)
    if flags == (None, None, None):
        return None if args.mu is None else parse_mu(args.mu)
    if None in flags or args.mu is not None:
        raise ValueError(f"{command} takes --mu or all of --mu-from/--mu-to/--steps, not a mix")
    return _io.linear_grid(*flags, command)


def _cmd_oracle(args) -> int:
    from .oracle import falsification_sweep, phi_curve_certified

    other_mode = ("levels", "method") if args.falsify else ("dim", "samples", "seed")
    stray = [f"--{name}" for name in other_mode if getattr(args, name) is not None]
    if stray:
        mode = "with" if args.falsify else "without"
        raise ValueError(f"oracle {mode} --falsify does not take {', '.join(stray)}")
    if args.levels is not None and args.levels > MAX_STEPS:
        raise ValueError(f"--levels {args.levels} is above the cap of 10^6")
    grid = _purity_grid(args, "oracle", lambda mu: [mu])
    if args.falsify:
        for name in ("mu", "dim", "samples", "seed"):
            if getattr(args, name) is None:
                raise ValueError(f"--falsify requires --{name}")
        report = falsification_sweep(args.mu, args.dim, args.samples, args.seed)
        _emit(_io.render_json(report._asdict()), args.out)
        return 2 if report.min_slack < -FALSIFICATION_SLACK_TOL else 0
    if grid is None:
        raise ValueError("oracle needs --mu, or --mu-from/--mu-to/--steps")
    rows = phi_curve_certified(grid, _ORACLE_LEVELS if args.levels is None else args.levels,
                               method=args.method or METHODS[0])
    _emit(_io.render_csv(_io.ORACLE_COLUMNS, rows), args.out)
    return 0


def _cmd_thermal(args) -> int:
    from .thermal import ThermalModel, temperature_grid, thermal_sweep

    model = ThermalModel(hbar=args.hbar, omega=args.omega)
    if (args.barrier is None) != (args.energy is None):
        raise ValueError("--barrier and --energy must be given together")
    if args.barrier is not None:
        from .tunneling import transparency_vs_temperature

        barrier = _io.load_barrier(args.barrier)
        t_grid = temperature_grid(args.t_min, args.t_max, args.steps)
        table = transparency_vs_temperature(
            barrier, args.energy, model, t_grid, r=args.r, phi_mode=args.phi_mode
        )
    else:
        table = thermal_sweep(model, args.t_min, args.t_max, args.steps,
                              r=args.r, phi_mode=args.phi_mode)
    at = " at temperature {T!r}" if args.barrier is None else " at temperature {param_value!r}"
    _require_finite(table, f"--hbar {args.hbar!r}", at)
    _emit(_io.render_table(table), args.out)
    return 0


def _parse_mu_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:  # an empty item, as in "0.5,,0.3" or "", too
        raise ValueError(f"bad --mu list {text!r}") from exc


def _cmd_tunnel(args) -> int:
    from .tunneling import transparency_vs_purity

    barrier = _io.load_barrier(args.barrier)
    mu_grid = _purity_grid(args, "tunnel", _parse_mu_list) or [1.0]
    table = transparency_vs_purity(
        barrier, args.energy, args.hbar, args.r, mu_grid, phi_mode=args.phi_mode
    )
    _require_finite(table, f"--hbar {args.hbar!r}", " at purity {mu!r}")
    _emit(_io.render_table(table), args.out)
    return 0


def _cmd_decohere(args) -> int:
    from .decoherence import run_trajectory
    from .states import FockDensityMatrix

    state = _io.load_state(args.state)
    if not isinstance(state, FockDensityMatrix):
        raise ValueError("decohere needs a fock state file")
    barrier = _io.load_barrier(args.barrier)
    table = run_trajectory(state, args.gamma, args.t_max, args.steps, barrier, args.energy,
                           phi_mode=args.phi_mode).records
    _require_finite(table, f"{args.state}: hbar {state.hbar!r}", " at time {t!r}")
    _emit(_io.render_table(table), args.out)
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
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("phi", help="evaluate the bound multiplier at one purity")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--mode", choices=PHI_MODES, default="exact")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("phi-curve", help="tabulate all forms of the multiplier on a grid")
    p.add_argument("--mu-from", type=float, required=True)
    p.add_argument("--mu-to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=_cmd_phi_curve)

    p = sub.add_parser("oracle", help="certify the multiplier by constrained minimization")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--mu-from", type=float, default=None)
    p.add_argument("--mu-to", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--levels", type=int, default=None,
                   help=f"lowest levels to mix (default {_ORACLE_LEVELS})")
    p.add_argument("--method", choices=METHODS, default=None,
                   help=f"minimizer (default {METHODS[0]})")
    p.add_argument("--falsify", action="store_true",
                   help="probe the bound instead: one eigen-step on det Sigma from each "
                        "of --samples random pure states")
    p.add_argument("--dim", type=int, default=None, help="matrix dimension for --falsify")
    p.add_argument("--samples", type=int, default=None, help="sample count for --falsify")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (required for --falsify)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("thermal", help="temperature sweep (optionally through a barrier)")
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--barrier", default=None, help="barrier JSON file")
    p.add_argument("--energy", type=float, default=None)
    _add_phi_mode(p)
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
    p.set_defaults(func=_cmd_tunnel)

    p = sub.add_parser("decohere", help="dephasing trajectory with transparency tracking")
    p.add_argument("--state", required=True, help="fock state JSON file")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--barrier", required=True, help="barrier JSON file")
    p.add_argument("--energy", type=float, required=True)
    _add_phi_mode(p)
    p.set_defaults(func=_cmd_decohere)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        if getattr(args, "steps", None) is not None and args.steps > MAX_STEPS:
            raise ValueError(f"--steps {args.steps} is above the cap of 10^6")
        return args.func(args)
    except ResolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
