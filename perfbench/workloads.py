"""The benchmark's workloads.

Each workload is one client in a closed loop: ``ops(round)`` lists the
round's operations, the runner times ``Op.run`` and then calls ``Op.check``,
which compares the output with ``reference`` and returns the CSV/JSON bytes
the operation emitted.  Every input is drawn from the workload seed, one
stream per purpose: ``rng(seed, stream, ...)``.

cli-cold      the README's subcommands, each in a fresh process (import cost)
certify       one certified purity point per op: falsifier, grid and gradient
              minimizers, certified Phi curve point
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import purity_bounds as pb
from purity_bounds import io as pb_io

import reference as ref
from reference import check_phi, close, parse_csv, require

# CSV numbers carry 9 significant digits.
CSV_REL = 5e-8
# A slack below this is a violation of the bound (ROADMAP criterion 4).
SLACK_TOL = 1e-8
# Sampled barriers of at least 401 nodes on [-4 w, 4 w] reproduce the
# analytic action to about 1e-7 (PCHIP interpolation error).
SAMPLED_ACTION_REL = 1e-6
SAMPLED_EXTENT = 4.0
# A CLI call is killed after this long and counts as failed.
CLI_TIMEOUT_S = 150
# A physical state may sit on a bound (the vacuum saturates all three), so
# its slack is only required to be above -ROUNDING_REL * bound.
ROUNDING_REL = 1e-12
# Relative errors and gaps below this are reported as this: the accuracy
# metrics stay nonzero, and differences a double cannot resolve do not count
# as changes.
ACCURACY_FLOOR = 1e-15

# One certify op per purity point on (0.2, 1).  The minimizer level count
# cycles through CERTIFY_LEVELS, so every count from 4 to 8 is used and the
# 4-level minimizers never meet mu = 1/4, which they cannot reach.
CERTIFY_MUS = tuple(round(0.25 + 0.05 * k, 2) for k in range(15))
CERTIFY_LEVELS = (8, 7, 6, 5, 4)
CURVE_LEVELS = 8
FALSIFY_DIM = 8
FALSIFY_SAMPLES = 2000
# Purities whose falsifier time is also reported on its own (per-layer).
FALSIFY_MUS = (0.3, 0.5, 0.8)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bytes]


def rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def log_uniform(gen: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(gen.uniform(math.log(lo), math.log(hi))))


def package_env(root: Path) -> dict:
    """Environment for a child interpreter that imports the package from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _json(text: str) -> bytes:
    return text.encode("utf-8")


# --- shared checks -----------------------------------------------------------

def check_tunnel_csv(text, action, hbar, r, param, mu_of=None, action_rel=1e-12):
    """Rows of the tunnel/thermal-barrier CSV against the analytic action."""
    rows = parse_csv(text)
    require(len(rows) > 0, "empty tunnel table")
    for row in rows:
        value = float(row["param_value"])
        mu = float(row["mu"])
        require(row["param_name"] == param, f"param_name {row['param_name']!r}")
        if mu_of is not None:
            close(mu, mu_of(value), CSV_REL, what=f"mu({param}={value})")
        phi = float(row["phi"])
        check_phi("exact", mu, phi, 4 * CSV_REL)
        hbar_eff = hbar * phi / math.sqrt(1.0 - r * r)
        close(row["hbar_eff"], hbar_eff, 2 * CSV_REL, what="hbar_eff")
        close(row["action"], action, action_rel + CSV_REL, what="action")
        ln_d = -2.0 * action / hbar_eff
        close(row["ln_D"], ln_d, action_rel + 4 * CSV_REL, what="ln_D")
        ln_d_row = float(row["ln_D"])
        close(row["D"], math.exp(ln_d_row), CSV_REL * (2.0 + abs(ln_d_row)), what="D")
        expected = ln_d_row / mu if param == "mu" else value * ln_d_row
        close(row["invariant_product"], expected, 4 * CSV_REL, what="invariant_product")
    return rows


def check_trajectory_csv(text, rho0, hbar, mass, omega, gamma, times, action):
    rows = parse_csv(text)
    require(len(rows) == len(times), f"{len(rows)} trajectory rows for {len(times)} times")
    n = np.arange(rho0.shape[0])
    gap2 = (n[:, None] - n[None, :]) ** 2
    for row, t in zip(rows, times):
        close(row["t"], t, CSV_REL, 1e-300, what="t")
        m = ref.fock_moments(rho0 * np.exp(-gamma * t * gap2), hbar, mass, omega)
        close(row["mu"], m["mu"], CSV_REL, what=f"mu(t={t})")
        close(row["r"], m["r"], CSV_REL, 1e-12, what=f"r(t={t})")
        mu, r, phi = float(row["mu"]), float(row["r"]), float(row["phi"])
        check_phi("exact", mu, phi, 4 * CSV_REL)
        hbar_eff = hbar * phi / math.sqrt(1.0 - r * r)
        close(row["hbar_eff"], hbar_eff, 2 * CSV_REL, what="hbar_eff")
        close(row["ln_D"], -2.0 * action / hbar_eff, 4 * CSV_REL, what="ln_D")
        ln_d = float(row["ln_D"])
        close(row["D"], math.exp(ln_d), CSV_REL * (2.0 + abs(ln_d)), what="D")
        close(row["inv_mu_ln_D"], ln_d / mu, 4 * CSV_REL, what="inv_mu_ln_D")


def check_bound_report(doc, mode, hbar, mu, r, product, info):
    """One rendered bound report of a physical state against the formulas.

    Heisenberg and Schrodinger-Robertson hold for every physical state, and
    the purity bound does in "exact" mode on [7/18, 1]; there the slack must
    not be negative beyond rounding.  Pass flags that are false only by
    rounding are counted in ``info["physical_flag_false"]``.  Elsewhere Phi
    is an approximation and only the arithmetic is checked.
    """
    phi = doc["phi"]["value"]
    check_phi(mode, mu, phi, 1e-9)
    quarter = hbar * hbar / 4.0
    one_minus_r2 = 1.0 - r * r
    # name: (bound as reported, slack as reported); the SR slack is in
    # determinant units, sigma_qq sigma_pp - sigma_qp^2 - hbar^2 / 4.
    expected = {
        "heisenberg": (quarter, product - quarter),
        "schrodinger_robertson": (quarter / one_minus_r2, product * one_minus_r2 - quarter),
        "purity": (quarter * phi * phi / one_minus_r2, product - quarter * phi * phi / one_minus_r2),
    }
    close(doc["hbar_eff"], hbar * phi / math.sqrt(one_minus_r2), 1e-9, what="hbar_eff")
    close(doc["product"], product, 1e-9, what="product")
    for name, (bound, slack) in expected.items():
        close(doc["bounds"][name], bound, 1e-9, what=f"{name} bound ({mode})")
        close(doc["slacks"][name], slack, 0.0, 1e-9 * (product + bound), what=f"{name} slack")
        if name == "purity" and (mode != "exact" or mu < ref.PIECE2_MIN):
            continue
        require(doc["slacks"][name] >= -ROUNDING_REL * bound,
                f"physical state violates the {name} bound ({mode})")
        if not doc["flags"][name]:
            info["physical_flag_false"] = info.get("physical_flag_false", 0) + 1


def action_reference_info(used: float) -> dict:
    return {"used": used, "source": "mpmath, 30 digits", "roadmap_value": ref.ROADMAP_GAUSSIAN_ACTION}


def sampled_gaussian_barrier(v0, width, mass, nodes):
    x = width * np.linspace(-SAMPLED_EXTENT, SAMPLED_EXTENT, nodes)
    return pb.SampledBarrier(x=x, v=v0 * np.exp(-(x / width) ** 2), mass=mass)


def check_sampled(result, v0, width, mass, ratio, unit_action, hbar_eff):
    """Relative action error of a sampled v0 exp(-(x/w)^2) barrier."""
    exact = width * math.sqrt(mass * v0) * unit_action
    err = max(abs(result.action_integral - exact) / exact, ACCURACY_FLOOR)
    require(err <= SAMPLED_ACTION_REL, f"sampled action error {err:.3e} (ratio {ratio})")
    edge = width * math.sqrt(-math.log(ratio))
    x1, x2 = result.turning_points
    close(x1, -edge, 0.0, 1e-6 * width, what="left turning point")
    close(x2, edge, 0.0, 1e-6 * width, what="right turning point")
    close(result.ln_D, -2.0 * result.action_integral / hbar_eff, 1e-12, what="ln_D")
    return err


def curve_rel_err(rows) -> float:
    """Check certified-curve rows; return max |Phi_oracle - Phi_exact| / Phi_exact."""
    worst = ACCURACY_FLOOR
    for row in rows:
        close(row.phi_oracle, ref.phi_rank_k(row.mu, CURVE_LEVELS), 1e-9,
              what=f"Phi_oracle({row.mu})")
        check_phi("exact", row.mu, row.phi_exact)
        check_phi("interpolation", row.mu, row.phi_app)
        worst = max(worst, abs(row.phi_oracle - row.phi_exact) / row.phi_exact)
    return worst


def falsify_gap(report, mu) -> float:
    """min_slack / bound of one sweep; fails on a slack below -SLACK_TOL."""
    require(report.samples == report.used + report.skipped, "used + skipped != samples")
    require(report.used >= 1, "no sample used")
    require(report.min_slack >= -SLACK_TOL, f"bound violated: slack {report.min_slack!r} at mu {mu}")
    return max(report.min_slack / (ref.phi_true(mu) ** 2 / 4.0), ACCURACY_FLOOR)


# --- accuracy probes, for the workloads that do not measure these ------------

def probe_phi_max_rel_err() -> float:
    return curve_rel_err(pb.phi_curve_certified(CERTIFY_MUS, CURVE_LEVELS, method="projected-gradient"))


def probe_falsify_gap() -> float:
    """The README's falsifier run (mu 0.5, dim 6, 10^4 samples, seed 42)."""
    return falsify_gap(pb.falsification_sweep(0.5, 6, 10000, 42), 0.5)


def reference_barrier_transparency():
    """exp(-x^2) on [-4, 4] with 2001 nodes at E = 0.5, the action_rel_err case."""
    return pb.transparency(sampled_gaussian_barrier(1.0, 1.0, 1.0, 2001), 0.5, 1.0)


def reference_barrier_error(result, unit_action) -> float:
    return check_sampled(result, 1.0, 1.0, 1.0, 0.5, unit_action, 1.0)


def probe_action_rel_err() -> float:
    return reference_barrier_error(reference_barrier_transparency(),
                                   ref.gaussian_barrier_unit_action(0.5))


PROBES = {
    "phi_max_rel_err": probe_phi_max_rel_err,
    "falsify_gap": probe_falsify_gap,
    "action_rel_err": probe_action_rel_err,
}


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.accuracy = {}
        self.info = {}

    def ops(self, index: int, tracer) -> list[Op]:
        raise NotImplementedError

    def accuracy_metrics(self) -> dict:
        return dict(self.accuracy)

    def peak_rss_kb(self) -> int:
        """Peak RSS of the process that runs the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --- certify -----------------------------------------------------------------

class Certify(Workload):
    """One op certifies one purity point.

    At each point of ``CERTIFY_MUS`` the op runs the falsifier at dim 8, the
    grid-refine and projected-gradient minimizers at the point's level count,
    and the 8-level certified curve point, and renders the oracle CSV row and
    the falsifier JSON.  Every op has the same stages, so the op-time
    percentiles fall inside a spread of like costs.  Every round draws fresh
    falsifier seeds; the purities and level counts are fixed, because their
    cost varies with them and seed-drawn values would move the percentiles
    between seeds.
    """

    name = "certify"

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.round_gaps = {}

    def ops(self, index, tracer):
        gen = rng(self.seed, 3, index)
        return [self._point(index, mu, CERTIFY_LEVELS[i % len(CERTIFY_LEVELS)], int(gen.integers(2**31)))
                for i, mu in enumerate(CERTIFY_MUS)]

    def _point(self, index, mu, levels, falsifier_seed):
        def run():
            report = pb.falsification_sweep(mu, FALSIFY_DIM, FALSIFY_SAMPLES, falsifier_seed)
            grid = pb.min_product_fock_mixture(mu, levels, method="grid-refine")
            gradient = pb.min_product_fock_mixture(mu, levels, method="projected-gradient")
            (row,) = pb.phi_curve_certified([mu], CURVE_LEVELS, method="projected-gradient")
            text = pb_io.render_csv(pb_io.ORACLE_COLUMNS, [[
                row.mu, row.phi_oracle, row.phi_exact, row.phi_app, row.rel_err_exact,
                row.rel_err_app, row.method, row.iterations]])
            text += pb_io.render_json({
                "mu": report.mu, "dim": report.dim, "samples": report.samples, "used": report.used,
                "skipped": report.skipped, "min_slack": report.min_slack, "seed": report.seed})
            return report, grid, gradient, row, text

        def check(result):
            report, grid, gradient, row, text = result
            gap = falsify_gap(report, mu)
            self.round_gaps[index] = min(gap, self.round_gaps.get(index, math.inf))
            self._check_minimizer(grid, mu, levels, exact=False)
            self._check_minimizer(gradient, mu, levels, exact=True)
            self.accuracy["phi_max_rel_err"] = max(
                curve_rel_err([row]), self.accuracy.get("phi_max_rel_err", 0.0))
            table, doc = text.split("{", 1)
            (out_row,) = parse_csv(table)
            close(out_row["mu"], mu, CSV_REL, what="rendered mu")
            close(out_row["phi_oracle"], row.phi_oracle, CSV_REL, what="rendered phi_oracle")
            doc = json.loads("{" + doc)
            require(doc["samples"] == FALSIFY_SAMPLES and doc["seed"] == falsifier_seed,
                    "rendered falsifier report")
            close(doc["min_slack"], report.min_slack, CSV_REL, 1e-300, what="rendered min_slack")
            return _json(text)

        return Op(f"certify-{mu:g}", run, check)

    def _check_minimizer(self, res, mu, levels, exact):
        weights = np.asarray(res.optimal_weights)
        require(weights.min() >= -1e-12, "negative weight")
        close(weights.sum(), 1.0, 0.0, 1e-9, what="weight sum")
        close(np.sum(weights**2), mu, 0.0, 1e-9, what="purity")
        value = 2.0 * math.sqrt(res.min_product)
        best = ref.phi_rank_k(mu, levels)
        if exact:
            close(value, best, 1e-9, what=f"Phi({mu}, {levels} levels)")
        else:
            # A grid search returns a feasible point: it may miss the
            # minimum (recorded) but must never undercut it.
            require(value >= best * (1.0 - 1e-12), f"grid undercuts Phi({mu}): {value} < {best}")
            self.info["grid_refine_max_rel_gap"] = max(
                value / best - 1.0, self.info.get("grid_refine_max_rel_gap", 0.0))

    def accuracy_metrics(self):
        metrics = dict(self.accuracy)
        if self.round_gaps:
            metrics["falsify_gap"] = float(np.median(list(self.round_gaps.values())))
        return metrics


# --- cli-cold ----------------------------------------------------------------

class CliCold(Workload):
    """The README's subcommand set, each command in a fresh interpreter."""

    name = "cli-cold"

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        gen = rng(seed, 4)
        self.tracer = None
        self.env = package_env(root)
        self.info.update(cli_stderr_lines=0, cli_nonzero_exits=0)
        self.unit_action = None  # mpmath reference, computed at the first check
        self.child_rss_kb = 0

        # Physical Gaussian state.
        hbar = log_uniform(gen, 0.5, 2.0)
        mu, r, sqq = gen.uniform(0.3, 1.0), gen.uniform(-0.8, 0.8), log_uniform(gen, 0.2, 5.0)
        spp = hbar * hbar / (4.0 * mu * mu * sqq * (1.0 - r * r))
        self.gauss = {"type": "gaussian", "hbar": hbar, "mean": gen.standard_normal(2).tolist(),
                      "cov": {"qq": sqq, "pp": spp, "qp": r * math.sqrt(sqq * spp)}}
        # Mixed Fock state with the top two levels empty.
        dim = int(gen.integers(4, 9))
        g = gen.standard_normal((dim - 2, 2)) + 1j * gen.standard_normal((dim - 2, 2))
        rho = np.zeros((dim, dim), dtype=complex)
        rho[:dim - 2, :dim - 2] = g @ g.conj().T
        rho /= np.trace(rho).real
        self.fock_rho = rho
        self.fock = {"type": "fock", "hbar": log_uniform(gen, 0.5, 2.0), "mass": log_uniform(gen, 0.5, 2.0),
                     "omega": log_uniform(gen, 0.5, 2.0), "dim": dim,
                     "re": rho.real.tolist(), "im": rho.imag.tolist()}
        # Pure superposition for decohere (natural units, as in the README).
        amp = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        amp /= np.linalg.norm(amp)
        self.plus_rho = np.zeros((6, 6), dtype=complex)
        self.plus_rho[:4, :4] = np.outer(amp, amp.conj())
        self.plus = {"type": "fock", "hbar": 1.0, "mass": 1.0, "omega": 1.0, "dim": 6,
                     "re": self.plus_rho.real.tolist(), "im": self.plus_rho.imag.tolist()}
        self.rect = {"shape": "rectangular", "v0": gen.uniform(1, 2), "width": gen.uniform(0.5, 1.5),
                     "mass": 1.0}
        self.energy = self.rect["v0"] * gen.uniform(0.3, 0.7)
        v0, w = gen.uniform(1, 2), gen.uniform(0.5, 1.5)
        barrier = sampled_gaussian_barrier(v0, w, 1.0, 401)
        self.sampled_params = (v0, w)
        self.sampled = {"shape": "sampled", "x": barrier.x.tolist(), "v": barrier.v.tolist(), "mass": 1.0}
        self.mu_phi = gen.uniform(7 / 18, 1.0)
        self.mu_rank2 = gen.uniform(5 / 9, 1.0)
        self.r_thermal = gen.uniform(-0.5, 0.5)
        self.gamma = gen.uniform(0.2, 2.0)
        self.falsify_seed = int(gen.integers(2**31))
        for name in ("gauss", "fock", "plus", "rect", "sampled"):
            (workdir / f"{name}.json").write_text(json.dumps(getattr(self, name)), encoding="utf-8")

    def _path(self, name):
        return str(self.workdir / f"{name}.json")

    def ops(self, index, tracer):
        self.tracer = tracer  # spans come from the child processes, see _cli
        e = repr(self.energy)
        v0, w = self.sampled_params
        return [
            self._cli(["check", self._path("gauss")], self._check_gauss),
            self._cli(["check", self._path("fock")], self._check_fock),
            self._cli(["phi", "--mu", repr(self.mu_phi)], self._check_phi),
            self._cli(["phi-curve", "--mu-from", "0.39", "--mu-to", "1.0", "--steps", "50"],
                      self._check_phi_curve),
            self._cli(["oracle", "--mu", repr(self.mu_rank2), "--levels", "2"], self._oracle_check(2)),
            self._cli(["oracle", "--mu-from", "0.39", "--mu-to", "0.55", "--steps", "12", "--levels", "3"],
                      self._oracle_check(3)),
            self._cli(["oracle", "--falsify", "--mu", "0.5", "--dim", "6", "--samples", "10000",
                       "--seed", str(self.falsify_seed)], self._check_falsify),
            self._cli(["thermal", "--t-min", "0.5", "--t-max", "50", "--steps", "20",
                       "--r", repr(self.r_thermal)], self._check_thermal),
            self._cli(["thermal", "--t-min", "50", "--t-max", "500", "--steps", "4",
                       "--barrier", self._path("rect"), "--energy", e], self._check_thermal_barrier),
            self._cli(["tunnel", "--barrier", self._path("rect"), "--energy", e,
                       "--mu", "0.01,0.005,0.002"], self._check_tunnel_rect),
            self._cli(["tunnel", "--barrier", self._path("sampled"), "--energy", repr(0.5 * v0)],
                      self._check_tunnel_sampled),
            self._cli(["decohere", "--state", self._path("plus"), "--gamma", repr(self.gamma),
                       "--t-max", "12", "--steps", "25", "--barrier", self._path("rect"), "--energy", e],
                      self._check_decohere),
        ]

    def _cli(self, argv, check_stdout):
        tracer = self.tracer
        spans = self.workdir / "spans.json"
        stdout, stderr = self.workdir / "stdout", self.workdir / "stderr"
        if tracer is None:
            cmd = [sys.executable, "-m", "purity_bounds.cli", *argv]
        else:
            cmd = [sys.executable, str(self.root / "perfbench" / "cli_child.py"), str(spans), *argv]

        def run():
            """Exit code and peak RSS (kB) of the child, reaped with wait4."""
            with open(stdout, "wb") as out, open(stderr, "wb") as err:
                proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss

        def check(result):
            returncode, rss_kb = result
            out, err = stdout.read_bytes(), stderr.read_bytes()
            self.child_rss_kb = max(self.child_rss_kb, rss_kb)
            stderr_lines = len(err.splitlines())
            nonzero = int(returncode != 0)
            self.info["cli_stderr_lines"] += stderr_lines
            self.info["cli_nonzero_exits"] += nonzero
            if tracer is not None:
                tracer.counts["cli.stderr_lines"] += stderr_lines
                tracer.counts["cli.nonzero_exits"] += nonzero
                tracer.merge(json.loads(spans.read_text(encoding="utf-8")))
                spans.unlink()
            require(returncode == 0, f"{argv[0]} exited {returncode}: {err.decode(errors='replace')[-300:]}")
            check_stdout(out.decode("utf-8"))
            return out

        return Op(argv[0], run, check)

    def peak_rss_kb(self):
        """Largest peak RSS of one CLI process."""
        return self.child_rss_kb

    def _check_report(self, doc, expected, hbar):
        require(doc["valid"] is True, "state rejected")
        for key, value in expected.items():
            close(doc["moments"][key], value, 1e-9, 1e-12, what=key)
        check_bound_report(doc, "exact", hbar, expected["mu"], expected["r"],
                           expected["sigma_qq"] * expected["sigma_pp"], self.info)

    def _check_gauss(self, text):
        cov, hbar = self.gauss["cov"], self.gauss["hbar"]
        det = cov["qq"] * cov["pp"] - cov["qp"] ** 2
        self._check_report(json.loads(text), {
            "sigma_qq": cov["qq"], "sigma_pp": cov["pp"], "sigma_qp": cov["qp"],
            "r": cov["qp"] / math.sqrt(cov["qq"] * cov["pp"]), "mu": hbar / (2.0 * math.sqrt(det))}, hbar)

    def _check_fock(self, text):
        f = self.fock
        self._check_report(json.loads(text),
                           ref.fock_moments(self.fock_rho, f["hbar"], f["mass"], f["omega"]), f["hbar"])

    def _check_phi(self, text):
        check_phi("exact", self.mu_phi, json.loads(text)["phi"])

    def _check_phi_curve(self, text):
        rows = parse_csv(text)
        require(len(rows) == 50, "phi-curve rows")
        for row in rows:
            mu = float(row["mu"])
            check_phi("exact", mu, float(row["phi_exact"]), 4 * CSV_REL)
            check_phi("interpolation", mu, float(row["phi_app"]), 4 * CSV_REL)
            check_phi("asymptote", mu, float(row["phi_asymptote"]), 4 * CSV_REL)

    def _oracle_check(self, levels):
        def check(text):
            rows = parse_csv(text)
            require(len(rows) >= 1, "empty oracle table")
            for row in rows:
                mu = float(row["mu"])
                close(row["phi_oracle"], ref.phi_rank_k(mu, levels), 4 * CSV_REL, what="phi_oracle")
                check_phi("exact", mu, float(row["phi_exact"]), 4 * CSV_REL)
        return check

    def _check_falsify(self, text):
        doc = json.loads(text)
        require(doc["samples"] == 10000, "falsify samples")
        require(doc["min_slack"] >= -SLACK_TOL, f"bound violated: {doc['min_slack']}")

    def _check_thermal(self, text):
        rows = parse_csv(text)
        require(len(rows) == 20, "thermal rows")
        for row, T in zip(rows, np.geomspace(0.5, 50, 20)):
            close(row["T"], T, CSV_REL, what="T")
            close(row["Z"], ref.oscillator_z(T), 2 * CSV_REL, what="Z")
            close(row["mu"], ref.thermal_purity(T), CSV_REL, what="mu")
            phi = float(row["phi"])
            check_phi("exact", float(row["mu"]), phi, 4 * CSV_REL)
            close(row["hbar_eff"], phi / math.sqrt(1.0 - self.r_thermal**2), 2 * CSV_REL, what="hbar_eff")

    def _rect_action(self):
        return ref.rect_action(self.rect["v0"], self.rect["width"], 1.0, self.energy)

    def _check_thermal_barrier(self, text):
        rows = check_tunnel_csv(text, self._rect_action(), 1.0, 0.0, "T", ref.thermal_purity)
        require(len(rows) == 4, "thermal barrier rows")

    def _check_tunnel_rect(self, text):
        rows = check_tunnel_csv(text, self._rect_action(), 1.0, 0.0, "mu")
        require([float(row["mu"]) for row in rows] == [0.01, 0.005, 0.002], "tunnel purities")

    def _check_tunnel_sampled(self, text):
        if self.unit_action is None:
            self.unit_action = ref.gaussian_barrier_unit_action(0.5)
            self.info["gaussian_action_reference"] = action_reference_info(self.unit_action)
        v0, w = self.sampled_params
        rows = check_tunnel_csv(text, w * math.sqrt(v0) * self.unit_action, 1.0, 0.0, "mu",
                                action_rel=SAMPLED_ACTION_REL)
        require(len(rows) == 1 and float(rows[0]["mu"]) == 1.0, "tunnel default purity")

    def _check_decohere(self, text):
        check_trajectory_csv(text, self.plus_rho, 1.0, 1.0, 1.0, self.gamma,
                             np.linspace(0.0, 12.0, 25), self._rect_action())


WORKLOADS = {cls.name: cls for cls in (CliCold, Certify)}
