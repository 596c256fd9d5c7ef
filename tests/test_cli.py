import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from purity_bounds.bounds import METHODS
from purity_bounds.cli import main
from purity_bounds.io import linear_grid
from purity_bounds.oracle import min_product_fock_mixture

VACUUM = {
    "type": "gaussian",
    "hbar": 1.0,
    "mean": [0.0, 0.0],
    "cov": {"qq": 0.5, "pp": 0.5, "qp": 0.0},
}
SUB_HEISENBERG = {
    "type": "gaussian",
    "hbar": 1.0,
    "mean": [0.0, 0.0],
    "cov": {"qq": 0.4, "pp": 0.4, "qp": 0.0},
}
HALF_MIXTURE = {
    "type": "fock",
    "hbar": 1.0,
    "mass": 1.0,
    "omega": 1.0,
    "dim": 4,
    "re": [
        [0.5, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ],
    "im": [[0.0] * 4 for _ in range(4)],
}
# (|5> + i|7>)/sqrt(2): at hbar 1.7e308 its sigma_qq and sigma_qp are themselves inf.
SUPERPOSITION_5_7 = {
    "type": "fock",
    "hbar": 1.0,
    "mass": 1.0,
    "omega": 1.0,
    "dim": 10,
    "re": [[0.5 if i == j in (5, 7) else 0.0 for j in range(10)] for i in range(10)],
    "im": [[{(7, 5): 0.5, (5, 7): -0.5}.get((i, j), 0.0) for j in range(10)] for i in range(10)],
}
PLUS_STATE = {
    "type": "fock",
    "hbar": 1.0,
    "mass": 1.0,
    "omega": 1.0,
    "dim": 4,
    "re": [
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ],
    "im": [[0.0] * 4 for _ in range(4)],
}
RECT = {"shape": "rectangular", "v0": 1.0, "width": 1.0, "mass": 1.0}
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return {
        "vacuum": write("vacuum.json", VACUUM),
        "bad": write("bad.json", SUB_HEISENBERG),
        "half": write("half.json", HALF_MIXTURE),
        "plus": write("plus.json", PLUS_STATE),
        "rect": write("rect.json", RECT),
        "dir": tmp_path,
    }


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestCheck:
    def test_vacuum_passes_with_zero_slack(self, files, capsys):
        code, out = run(capsys, ["check", files["vacuum"]])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 2
        assert doc["valid"] is True
        assert doc["slacks"]["heisenberg"] == 0.0
        assert doc["slacks"]["purity"] == 0.0
        assert all(doc["flags"].values())

    def test_sub_heisenberg_exits_2_and_names_physicality(self, files, capsys):
        code, out = run(capsys, ["check", files["bad"]])
        assert code == 2
        doc = json.loads(out)
        assert doc["valid"] is False
        assert [v["name"] for v in doc["violations"]] == ["physicality"]

    def test_half_mixture_reports_purity_slack(self, files, capsys):
        code, out = run(capsys, ["check", files["half"]])
        assert code == 0
        doc = json.loads(out)
        assert doc["moments"]["mu"] == pytest.approx(0.5, abs=1e-12)
        expected_bound = (3.0 - math.sqrt(4.0 / 3.0)) ** 2 / 4.0
        assert doc["slacks"]["purity"] == pytest.approx(1.0 - expected_bound, abs=1e-9)

    def test_face_scan_minimizers_pass(self, files, capsys):
        """The minimizer at each of 240 purities on [0.05, 1] attains the exact bound and
        passes; the interpolation lies above Phi at 49 of them, so check must not judge by it."""
        path = files["dir"] / "minimizer.json"
        for mu in linear_grid(0.05, 1.0, 240, "purity"):
            w = min_product_fock_mixture(mu, 32, method="grid-refine").optimal_weights
            rows = [[w[i] if i == j else 0.0 for j in range(32)] for i in range(32)]
            path.write_text(json.dumps({**HALF_MIXTURE, "dim": 32, "re": rows,
                                        "im": [[0.0] * 32] * 32}))
            code, out = run(capsys, ["check", str(path)])
            doc = json.loads(out)
            assert code == 0, mu
            assert abs(doc["slacks"]["purity"]) <= 1e-12 * doc["bounds"]["purity"], mu

    def test_missing_file_is_input_error(self, files, capsys):
        code, _ = run(capsys, ["check", str(files["dir"] / "nope.json")])
        assert code == 1

    def test_malformed_file_is_input_error(self, files, capsys):
        path = files["dir"] / "junk.json"
        path.write_text("{")
        code, _ = run(capsys, ["check", str(path)])
        assert code == 1

    def test_integer_past_the_float_range_is_input_error(self, files, capsys):
        path = files["dir"] / "huge.json"
        path.write_text(json.dumps({**VACUUM, "cov": {**VACUUM["cov"], "qp": 10**400}}))
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: {path}: field 'cov.qp' is outside the float range\n"

    def test_hbar_override(self, files, capsys):
        code, out = run(capsys, ["check", files["vacuum"], "--hbar", "2.0"])
        assert code == 2  # vacuum at hbar=1 violates the hbar=2 bound
        doc = json.loads(out)
        assert doc["violations"][0]["name"] == "physicality"

    def test_nan_hbar_override_is_input_error(self, files, capsys):
        assert main(["check", files["vacuum"], "--hbar", "nan"]) == 1
        assert "--hbar" in capsys.readouterr().err

    def test_infinite_hbar_override_is_input_error(self, files, capsys):
        assert main(["check", files["vacuum"], "--hbar", "inf"]) == 1
        assert "--hbar inf" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, field", [
        ({**VACUUM, "cov": {**VACUUM["cov"], "qp": math.nan}}, "sigma_qp"),
        ({**VACUUM, "mean": [0.0, math.nan]}, "mean_p"),
        ({**PLUS_STATE, "re": [[0.5, math.nan, 0, 0]] + PLUS_STATE["re"][1:]}, "entries"),
    ])
    def test_non_finite_state_exits_2_with_violations(self, files, capsys, doc, field):
        path = files["dir"] / "nan_state.json"
        path.write_text(json.dumps(doc))  # the bare literal NaN
        assert "NaN" in path.read_text()
        code, out = run(capsys, ["check", str(path)])
        assert code == 2
        doc = json.loads(out, parse_constant=reject_constant)  # strict RFC 8259 JSON
        assert doc["valid"] is False
        assert [v["name"] for v in doc["violations"]] == ["finite"]
        assert doc["violations"][0]["magnitude"] is None
        assert field in doc["violations"][0]["detail"]

    @pytest.mark.parametrize("re, field", [
        ([["0.5", 0.5, 0, 0]] + PLUS_STATE["re"][1:], "re[0][0]"),
        (PLUS_STATE["re"][:3] + [[0, 0, 0, True]], "re[3][3]"),
        ([[0.5, 0.5, 0]] + PLUS_STATE["re"][1:], "re"),
    ])
    def test_string_bool_or_ragged_entries_exit_1(self, files, capsys, re, field):
        path = files["dir"] / "bad_entries.json"
        path.write_text(json.dumps({**PLUS_STATE, "re": re}))
        assert main(["check", str(path)]) == 1
        assert f"field '{field}' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("qp", (0.0, 5e199))
    def test_overflowing_determinant_exits_2_with_a_finite_violation(self, files, capsys, qp):
        path = files["dir"] / "huge.json"
        path.write_text(json.dumps({**VACUUM, "cov": {"qq": 1e200, "pp": 1e200, "qp": qp}}))
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        doc = json.loads(captured.out, parse_constant=reject_constant)
        assert [(v["name"], v["magnitude"]) for v in doc["violations"]] == [("finite", None)]

    def test_overflowing_product_names_the_hbar_flag(self, capsys):
        """sigma_qq sigma_pp scales with hbar^2; past ~1e154 it is inf, which strict
        JSON cannot print, so check names the input instead."""
        code = main(["check", str(GOLDEN_INPUTS / "fock_mixed.json"), "--hbar", "1e200"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: --hbar 1e+200 is out of range: sigma_qq sigma_pp overflows\n"

    @pytest.mark.parametrize("doc, quantity", [
        ({**HALF_MIXTURE, "hbar": 1e200}, "sigma_qq sigma_pp"),
        # Valid, with an eigenvalue of -9e-11: its product is 1.8e-10 below hbar^2/4,
        # so at hbar/2 just past sqrt(max float) the product is finite and the bounds are not.
        ({**HALF_MIXTURE, "hbar": 2.6815615860153344e154,
          "re": [[1.0 + 9e-11, 0, 0, 0], [0, -9e-11, 0, 0], [0] * 4, [0] * 4]}, "heisenberg bound"),
        ({**SUPERPOSITION_5_7, "hbar": 1.7e308}, "sigma_qq sigma_pp"),
    ], ids=["product", "bound", "moments"])
    def test_overflow_names_the_files_hbar(self, files, capsys, doc, quantity):
        path = files["dir"] / "huge_hbar.json"
        path.write_text(json.dumps(doc))
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (f"error: {path}: hbar {doc['hbar']!r} is out of range: "
                                f"{quantity} overflows\n")

    def test_overflowing_moments_name_the_hbar_flag(self, files, capsys):
        """At hbar 1.7e308 the variances are inf and r would be NaN; check names the flag."""
        path = files["dir"] / "superposition_5_7.json"
        path.write_text(json.dumps(SUPERPOSITION_5_7))
        code = main(["check", str(path), "--hbar", "1.7e308"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: --hbar 1.7e+308 is out of range: sigma_qq sigma_pp overflows\n"

    def test_fock_vacuum_passes_in_every_unit_system(self, tmp_path, capsys):
        # The vacuum saturates all three bounds; its moments carry up to a
        # few ulp of rounding, which must not fail it.
        values = (0.3, 0.5, 0.7, 1.0, 1.3, 2.0, 3.7)
        rho = np.zeros((4, 4))
        rho[0, 0] = 1.0
        path = tmp_path / "vacuum.json"
        failing = []
        for hbar, mass, omega in itertools.product(values, repeat=3):
            path.write_text(json.dumps({
                "type": "fock", "hbar": hbar, "mass": mass, "omega": omega, "dim": 4,
                "re": rho.tolist(), "im": np.zeros((4, 4)).tolist()}))
            code, out = run(capsys, ["check", str(path)])
            if code != 0 or not all(json.loads(out)["flags"].values()):
                failing.append((hbar, mass, omega))
        assert failing == []

    def test_state_just_below_the_heisenberg_bound_fails(self, files, capsys):
        # 1e-12 below hbar^2/4 is far more than rounding: validation and the
        # Schrodinger-Robertson flag apply one rule, so the state is unphysical.
        path = files["dir"] / "below.json"
        below = {"qq": 0.5, "pp": 0.5 * (1.0 - 1e-12), "qp": 0.0}
        path.write_text(json.dumps({**VACUUM, "cov": below}))
        code, out = run(capsys, ["check", str(path)])
        assert code == 2
        doc = json.loads(out)
        assert doc["valid"] is False
        assert [v["name"] for v in doc["violations"]] == ["physicality"]


class TestPhiCommands:
    def test_phi_single_value(self, capsys):
        code, out = run(capsys, ["phi", "--mu", "0.5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["phi"] == pytest.approx(3.0 - math.sqrt(4.0 / 3.0), abs=1e-12)
        assert doc["piece"] == "rank-3"

    def test_phi_curve_rows_and_header(self, capsys):
        code, out = run(capsys, ["phi-curve", "--mu-from", str(7.0 / 18.0),
                                 "--mu-to", "1.0", "--steps", "3"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "mu,phi_exact,phi_app,phi_asymptote"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(7.0 / 3.0, abs=1e-8)
        last = lines[3].split(",")
        assert float(last[1]) == 1.0

    def test_phi_curve_single_point_at_one(self, capsys):
        code, out = run(capsys, ["phi-curve", "--mu-from", "1", "--mu-to", "1", "--steps", "1"])
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[1]) == 1.0
        assert float(row[3]) == pytest.approx(8.0 / 9.0, abs=1e-9)
        # The endpoints follow the purity rule of ``phi``: 1 + 1e-13 is rounding of 1.
        code, out = run(capsys, ["phi-curve", "--mu-from", "0.5", "--mu-to", "1.0000000000001",
                                 "--steps", "2"])
        assert code == 0
        assert float(out.strip().split("\n")[2].split(",")[1]) == 1.0
        for lo, hi in (("0", "1"), ("0.5", "1.5")):
            code, out = run(capsys, ["phi-curve", "--mu-from", lo, "--mu-to", hi, "--steps", "2"])
            assert (code, out) == (1, "")

    def test_zero_steps_is_usage_error(self, capsys):
        code, _ = run(capsys, ["phi-curve", "--mu-from", "0.5", "--mu-to", "1.0", "--steps", "0"])
        assert code == 1

    def test_bad_mode_is_usage_error(self, capsys):
        code, _ = run(capsys, ["phi", "--mu", "0.5", "--mode", "guess"])
        assert code == 1
        # check takes no Phi mode: only the exact bound fails a state.
        code = main(["check", str(GOLDEN_INPUTS / "gaussian.json"), "--phi-mode", "interpolation"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "") and captured.err.startswith("usage: purity-bounds")

    def test_non_finite_result_is_input_error_not_json_token(self, capsys):
        # Phi(5e-324) overflows; strict JSON has no token for it.
        code, out = run(capsys, ["phi", "--mu", "5e-324"])
        assert code == 1 and out == ""

    def test_phi_is_finite_down_to_its_overflow(self, capsys):
        # Phi(6.25e-309) = 1.4222222222222226e308; only below ~4.95e-309 does it pass 1.8e308.
        code, out = run(capsys, ["phi", "--mu", "6.25e-309"])
        assert code == 0
        assert json.loads(out)["phi"] == 1.4222222222222226e308

    @pytest.mark.parametrize("argv, mu", [
        (["phi", "--mu", "4.9e-309"], "4.9e-309"),
        (["phi", "--mu", "1e-309"], "1e-309"),
        (["phi", "--mu", "1e-309", "--mode", "interpolation"], "1e-309"),
        (["phi-curve", "--mu-from", "1e-309", "--mu-to", "1", "--steps", "2"], "1e-309"),
        (["tunnel", "--barrier", "RECT", "--energy", "0.5", "--mu", "1,1e-309"], "1e-309"),
        # mu(1.5e308) = tanh(1 / 3e308) = 3.33e-309
        (["thermal", "--t-min", "1", "--t-max", "1.5e308", "--steps", "3"],
         "3.33333333333333e-309"),
        # Z = T / (hbar omega) overflows first in the table, and only where Phi does.
        (["thermal", "--t-min", "1", "--t-max", "1e308", "--steps", "3", "--omega", "0.5"],
         "2.5e-309"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_infinite_phi_is_an_error_naming_the_purity(self, files, capsys, argv, mu):
        """Phi overflows below mu ~ 4.95e-309; every command says so with the
        purity, before it renders anything."""
        code = main([files["rect"] if arg == "RECT" else arg for arg in argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: Phi overflows at purity {mu}\n"


class TestOracleCommand:
    def test_single_point(self, capsys):
        code, out = run(capsys, ["oracle", "--mu", "0.7", "--levels", "2"])
        assert code == 0
        lines = out.strip().split("\n")
        row = lines[1].split(",")
        assert float(row[1]) == pytest.approx(2.0 - math.sqrt(0.4), abs=1e-8)

    def test_falsify_requires_seed(self, capsys):
        code, _ = run(capsys, ["oracle", "--falsify", "--mu", "0.7", "--dim", "4",
                               "--samples", "100"])
        assert code == 1

    def test_falsify_reports_nonnegative_slack(self, capsys):
        code, out = run(capsys, ["oracle", "--falsify", "--mu", "0.7", "--dim", "4",
                                 "--samples", "200", "--seed", "42"])
        assert code == 0
        doc = json.loads(out)
        assert doc["min_slack"] >= -1e-8
        assert doc["method"] == "gradient-aligned-sampling"

    @pytest.mark.parametrize("slack, code", [(-1e-8, 0), (-1.01e-8, 2)])
    def test_falsify_exit_edge(self, capsys, monkeypatch, slack, code):
        # A slack below -FALSIFICATION_SLACK_TOL = -1e-8 is a finding, exit 2.
        import purity_bounds.oracle as oracle

        report = oracle.FalsificationReport(0.7, 4, 10, 10, 0, slack, 1)
        monkeypatch.setattr(oracle, "falsification_sweep", lambda *args: report)
        argv = ["oracle", "--falsify", "--mu", "0.7", "--dim", "4", "--samples", "10",
                "--seed", "1"]
        assert run(capsys, argv)[0] == code

    def test_needs_some_grid(self, capsys):
        code, _ = run(capsys, ["oracle"])
        assert code == 1

    @pytest.mark.parametrize("flags", [
        ["--mu", "0.5", "--mu-from", "0.1", "--mu-to", "0.2", "--steps", "3"],
        ["--mu", "0.5", "--steps", "3"],
        ["--mu-from", "0.4", "--mu-to", "0.5"],
        ["--steps", "3"],
        ["--falsify", "--mu", "0.5", "--dim", "4", "--samples", "50", "--seed", "1",
         "--mu-to", "0.6"],
    ])
    def test_partial_or_mixed_grid_flags_exit_1(self, capsys, flags):
        assert main(["oracle", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: oracle takes --mu or all of "
                                "--mu-from/--mu-to/--steps, not a mix\n")

    @pytest.mark.parametrize("argv, err", [
        (["--mu", "0.5", "--dim", "6", "--samples", "10", "--seed", "1"],
         "oracle without --falsify does not take --dim, --samples, --seed"),
        (["--mu", "0.5", "--levels", "3", "--seed", "1"],
         "oracle without --falsify does not take --seed"),
        (["--falsify", "--mu", "0.5", "--dim", "6", "--samples", "10", "--seed", "1",
          "--method", "projected-gradient", "--levels", "9"],
         "oracle with --falsify does not take --levels, --method"),
        (["--falsify", "--mu", "0.5", "--dim", "6", "--samples", "10", "--seed", "1",
          "--levels", "3"],
         "oracle with --falsify does not take --levels"),
    ])
    def test_flags_of_the_other_mode_exit_1(self, capsys, argv, err):
        assert main(["oracle", *argv]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")

    @pytest.mark.parametrize("argv, err", [
        (["--falsify", "--mu", "0.5", "--dim", "1", "--samples", "10", "--seed", "1"],
         "falsification sweep supports 2 <= dim <= 32, got 1"),
        (["--falsify", "--mu", "0.5", "--dim", "33", "--samples", "10", "--seed", "1"],
         "falsification sweep supports 2 <= dim <= 32, got 33"),
        (["--falsify", "--mu", "0.5", "--dim", "4", "--samples", "10", "--seed", "-1"],
         "seed -1 must be >= 0"),
        (["--falsify", "--mu", "0.5", "--dim", "4", "--samples", "0", "--seed", "1"],
         "samples must be in [1, 10^6]"),
        (["--falsify", "--mu", "0.5", "--dim", "4", "--samples", "1000001", "--seed", "1"],
         "samples must be in [1, 10^6]"),
        (["--mu", "0.5", "--levels", "1"], "levels must be >= 2"),
    ], ids=["dim-1", "dim-33", "seed", "samples-0", "samples-1000001", "levels"])
    def test_inputs_past_their_range_name_themselves(self, capsys, argv, err):
        assert main(["oracle", *argv]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")

    @pytest.mark.parametrize("method", ["auto", "rank2-analytic", "rank3-analytic"])
    def test_forced_rank_methods_are_gone(self, capsys, method):
        code, _ = run(capsys, ["oracle", "--mu", "0.7", "--levels", "2", "--method", method])
        assert code == 1


class TestThermalCommand:
    def test_plain_sweep_header(self, capsys):
        code, out = run(capsys, ["thermal", "--t-min", "0.5", "--t-max", "2.0", "--steps", "3"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "T,Z,mu,mu_asymptote,phi,phi_mode,hbar_eff"
        assert len(lines) == 4

    def test_sweep_through_barrier(self, files, capsys):
        code, out = run(capsys, ["thermal", "--t-min", "50", "--t-max", "500", "--steps", "4",
                                 "--barrier", files["rect"], "--energy", "0.5",
                                 "--phi-mode", "interpolation"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("param_name,param_value")
        products = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(products) / min(products) == pytest.approx(1.0, abs=0.01)

    def test_nan_correlation_exits_1(self, files, capsys):
        sweep = ["thermal", "--t-min", "1", "--t-max", "2", "--steps", "2", "--r", "nan"]
        assert run(capsys, sweep) == (1, "")
        assert run(capsys, sweep + ["--barrier", files["rect"], "--energy", "0.5"]) == (1, "")

    def test_non_finite_model_exits_1(self, capsys):
        for flag in ("--hbar", "--omega"):
            code, out = run(capsys, ["thermal", "--t-min", "1", "--t-max", "2", "--steps", "2",
                                     flag, "nan"])
            assert (code, out) == (1, "")

    def test_overflowing_hbar_omega_exits_1_naming_the_product(self, capsys):
        code = main(["thermal", "--t-min", "1", "--t-max", "2", "--steps", "2",
                     "--hbar", "1e300", "--omega", "1e300"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: hbar * omega inf must be positive and finite\n"

    def test_tiny_temperature_names_the_temperature(self, capsys):
        """mu_asymptote = hbar omega / (2T) overflows below T ~ 2.8e-309; mu is 1 there."""
        code = main(["thermal", "--t-min", "1e-320", "--t-max", "1", "--steps", "3"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == ("error: mu_asymptote = hbar omega / (2T) overflows at "
                                "temperature 1e-320\n")

    @pytest.mark.parametrize("argv, err", [
        (["--hbar", "1e308", "--r", "0.9999"], "--hbar 1e+308 is out of range: hbar_eff "
                                               "overflows at temperature 1.0"),
        (["--t-min", "1e-322", "--t-max", "1e-321", "--hbar", "1e-320", "--barrier", "RECT",
          "--energy", "0.5"], "--hbar 1e-320 is out of range: ln_D overflows at temperature 1e-322"),
        # hbar omega / (2T) = 5e-451 at the grid's middle temperature: the purity underflows.
        (["--omega", "1e-300", "--t-max", "1e300", "--steps", "3"],
         "purity tanh(hbar omega / (2T)) underflows at temperature 1e+150"),
    ], ids=["hbar_eff", "ln_D", "mu"])
    def test_ends_of_hbar_name_the_flag(self, files, capsys, argv, err):
        sweep = ["thermal", "--t-min", "1", "--t-max", "2", "--steps", "2"]
        code = main(sweep + [files["rect"] if arg == "RECT" else arg for arg in argv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {err}\n")

    @pytest.mark.parametrize("t_min", ["0.1", "1e-320"])
    def test_asymptote_below_half_hbar_omega_names_the_temperature(self, files, capsys, t_min):
        """The asymptote purity hbar omega / (2T) exceeds 1 below T = hbar omega / 2."""
        code = main(["thermal", "--t-min", t_min, "--t-max", "1", "--steps", "3",
                     "--barrier", files["rect"], "--energy", "0.5", "--phi-mode", "asymptote"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (f"error: temperature {float(t_min)!r} is below hbar omega / 2 "
                                "= 0.5, where the asymptote purity hbar omega / (2T) exceeds 1\n")

    def test_mass_is_not_an_option(self, capsys):
        # Nothing in a thermal sweep depends on the mass, only on hbar omega.
        code = main(["thermal", "--t-min", "1", "--t-max", "2", "--steps", "2", "--mass", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "--mass" in captured.err

    @pytest.mark.parametrize("grid", [("2", "1", "3"), ("0", "1", "3"), ("1", "2", "1"),
                                      ("1", "inf", "3")])
    def test_bad_grid_gives_one_error_with_or_without_barrier(self, files, capsys, grid):
        sweep = ["thermal", "--t-min", grid[0], "--t-max", grid[1], "--steps", grid[2]]
        assert main(sweep) == 1
        plain_err = capsys.readouterr().err
        assert main(sweep + ["--barrier", files["rect"], "--energy", "0.5"]) == 1
        assert capsys.readouterr().err == plain_err != ""

    def test_barrier_needs_energy(self, files, capsys):
        code, _ = run(capsys, ["thermal", "--t-min", "1", "--t-max", "2", "--steps", "2",
                               "--barrier", files["rect"]])
        assert code == 1


class TestTunnelCommand:
    def test_pure_state_transparency(self, files, capsys):
        code, out = run(capsys, ["tunnel", "--barrier", files["rect"], "--energy", "0.5",
                                 "--mu", "1"])
        assert code == 0
        lines = out.strip().split("\n")
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["D"]) == pytest.approx(math.exp(-2.0), abs=1e-9)
        assert row["param_name"] == "mu"

    def test_mu_list(self, files, capsys):
        code, out = run(capsys, ["tunnel", "--barrier", files["rect"], "--energy", "0.5",
                                 "--mu", "0.01,0.005,0.002", "--phi-mode", "asymptote"])
        assert code == 0
        lines = out.strip().split("\n")
        invariants = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(invariants) - min(invariants) < 1e-12

    @pytest.mark.parametrize("flags", [
        ["--mu-from", "0.1", "--steps", "3"],
        ["--mu", "0.5", "--mu-from", "0.1", "--mu-to", "0.2", "--steps", "3"],
        ["--mu", "1", "--mu-to", "0.2"],
    ])
    def test_partial_or_mixed_grid_flags_exit_1(self, files, capsys, flags):
        assert main(["tunnel", "--barrier", files["rect"], "--energy", "0.5", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: tunnel takes --mu or all of "
                                "--mu-from/--mu-to/--steps, not a mix\n")

    @pytest.mark.parametrize("mu", [",", "", "0.5,,0.3", "0.5,", ",0.5"])
    def test_empty_mu_item_exits_1(self, files, capsys, mu):
        assert main(["tunnel", "--barrier", files["rect"], "--energy", "0.5", "--mu", mu]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: bad --mu list {mu!r}\n")

    @pytest.mark.parametrize("grid, field", [
        ({"x": [str(k) for k in range(8)]}, "x[0]"),
        ({"v": [0, 1, 1, True, 1, 1, 1, 0]}, "v[3]"),
        ({"x": [[k] for k in range(8)]}, "x[0]"),
    ])
    def test_string_bool_or_nested_grid_entries_exit_1(self, files, capsys, grid, field):
        path = files["dir"] / "bad_grid.json"
        path.write_text(json.dumps({"shape": "sampled", "x": list(range(8)),
                                    "v": [0, 1, 1, 1, 1, 1, 1, 0], "mass": 1.0, **grid}))
        assert main(["tunnel", "--barrier", str(path), "--energy", "0.5"]) == 1
        assert f"field '{field}' must be a number" in capsys.readouterr().err

    def test_spike_barrier_exits_3(self, files, capsys):
        spike = {"shape": "sampled", "x": list(np.linspace(0.0, 1.0, 8)),
                 "v": [0, 0, 0, 0, 1.0, 0, 0, 0], "mass": 1.0}
        path = files["dir"] / "spike.json"
        path.write_text(json.dumps(spike))
        code, _ = run(capsys, ["tunnel", "--barrier", str(path), "--energy", "0.5"])
        assert code == 3

    def test_coarse_smooth_barrier_exits_3(self, files, capsys):
        # A Gaussian hump sampled on 8 nodes: only the 2 at x = -0.5, 0.5 lie above E.
        x = np.linspace(-3.5, 3.5, 8)
        coarse = {"shape": "sampled", "x": list(x), "v": list(np.exp(-x * x)), "mass": 1.0}
        path = files["dir"] / "coarse.json"
        path.write_text(json.dumps(coarse))
        code = main(["tunnel", "--barrier", str(path), "--energy", "0.5"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("error: only 2 grid nodes lie above E")

    def test_non_finite_inputs_exit_1(self, files, capsys):
        path = files["dir"] / "nan.json"
        path.write_text(json.dumps(dict(RECT, v0=float("nan"))))
        code, out = run(capsys, ["tunnel", "--barrier", str(path), "--energy", "0.5"])
        assert (code, out) == (1, "")
        code, out = run(capsys, ["tunnel", "--barrier", files["rect"], "--energy", "nan"])
        assert (code, out) == (1, "")
        for flag, name in (("--energy", "energy"), ("--hbar", "hbar")):
            argv = {"--energy": "0.5", flag: "inf"}
            assert main(["tunnel", "--barrier", files["rect"], *itertools.chain(*argv.items())]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and f"{name} inf must be" in captured.err
        assert main(["tunnel", "--barrier", files["rect"], "--energy", "0.5",
                     "--mu-from", "0.1", "--mu-to", "inf", "--steps", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "got 0.1, inf" in captured.err

    @pytest.mark.parametrize("hbar, mu, err", [
        # ln D = -2 S / hbar_eff = -inf for a subnormal hbar.
        ("1e-320", "0.5", "--hbar 1e-320 is out of range: ln_D overflows at purity 0.5"),
        # hbar_eff = hbar Phi = inf.
        ("1e308", "0.5", "--hbar 1e+308 is out of range: hbar_eff overflows at purity 0.5"),
        # ln D = -2.2e304 is finite, mu^-1 ln D is not.
        ("1e-308", "1e-4",
         "--hbar 1e-308 is out of range: invariant_product overflows at purity 0.0001"),
    ], ids=["ln_D", "hbar_eff", "invariant_product"])
    def test_ends_of_hbar_name_the_flag(self, files, capsys, hbar, mu, err):
        """Finite inputs whose result is not: one error line naming --hbar."""
        code = main(["tunnel", "--barrier", files["rect"], "--energy", "0.5", "--mu", mu,
                     "--hbar", hbar])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {err}\n")

    def test_nan_correlation_exits_1(self, files, capsys):
        code, out = run(capsys, ["tunnel", "--barrier", files["rect"], "--energy", "0.5",
                                 "--r", "nan"])
        assert (code, out) == (1, "")

    def test_two_hump_barrier_exits_1(self, files, capsys):
        x = np.linspace(-8.0, 8.0, 401)
        v = np.exp(-(x + 3.0) ** 2) + 0.9 * np.exp(-(x - 3.0) ** 2)
        path = files["dir"] / "two_humps.json"
        path.write_text(json.dumps({"shape": "sampled", "x": list(x), "v": list(v), "mass": 1.0}))
        code, out = run(capsys, ["tunnel", "--barrier", str(path), "--energy", "0.5"])
        assert (code, out) == (1, "")

    def test_bad_mu_list(self, files, capsys):
        code, _ = run(capsys, ["tunnel", "--barrier", files["rect"], "--energy", "0.5",
                               "--mu", "0.5,abc"])
        assert code == 1


def test_check_and_decohere_validate_the_state_once(files, capsys, monkeypatch):
    from purity_bounds import moments, states

    validated = []

    def counting(state):
        validated.append(state)
        return real(state)

    real = states.validate_state
    monkeypatch.setattr(states, "validate_state", counting)
    monkeypatch.setattr(moments, "validate_state", counting)
    for argv in (["check", files["plus"]], ["check", files["vacuum"]],
                 ["decohere", "--state", files["plus"], "--gamma", "1.0", "--t-max", "12",
                  "--steps", "5", "--barrier", files["rect"], "--energy", "0.5"]):
        validated.clear()
        assert main(argv) == 0 and len(validated) == 1, argv
    capsys.readouterr()


class TestDecohereCommand:
    def test_trajectory_endpoints(self, files, capsys):
        code, out = run(capsys, ["decohere", "--state", files["plus"], "--gamma", "1.0",
                                 "--t-max", "12", "--steps", "5",
                                 "--barrier", files["rect"], "--energy", "0.5"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,mu,r,phi,hbar_eff,ln_D,D,inv_mu_ln_D"
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[6]) == pytest.approx(math.exp(-2.0), abs=1e-9)
        assert float(last[1]) == pytest.approx(0.5, abs=1e-9)

    def test_state_with_purity_past_state_tol_above_1_runs(self, files, capsys):
        """Trace 1 + 9e-11 passes validation; the purity, 1 + 1.8e-10, reads as 1."""
        doc = {**PLUS_STATE, "re": [[1.00000000009, 0.0, 0.0, 0.0], *[[0.0] * 4] * 3]}
        state = files["dir"] / "over_one.json"
        state.write_text(json.dumps(doc))
        code, out = run(capsys, ["decohere", "--state", str(state), "--gamma", "1.0",
                                 "--t-max", "1", "--steps", "3",
                                 "--barrier", files["rect"], "--energy", "0.5"])
        assert code == 0
        assert [row.split(",")[1] for row in out.split()[1:]] == ["1"] * 3

    @pytest.mark.parametrize("flag, name", [("--gamma", "gamma"), ("--t-max", "t_max")])
    def test_nan_rate_or_duration_exits_1(self, files, capsys, flag, name):
        argv = {"--gamma": "1.0", "--t-max": "2"}
        argv[flag] = "nan"
        code = main(["decohere", "--state", files["plus"], "--gamma", argv["--gamma"],
                     "--t-max", argv["--t-max"], "--steps", "3",
                     "--barrier", files["rect"], "--energy", "0.5"])
        assert code == 1
        err = capsys.readouterr().err
        assert name in err and "nan" in err

    @pytest.mark.parametrize("flag, name", [("--gamma", "gamma"), ("--t-max", "t_max")])
    def test_infinite_rate_or_duration_exits_1(self, files, capsys, flag, name):
        argv = {"--gamma": "1.0", "--t-max": "2", flag: "inf"}
        code = main(["decohere", "--state", files["plus"], *itertools.chain(*argv.items()),
                     "--steps", "3", "--barrier", files["rect"], "--energy", "0.5"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith(f"error: {name} inf must be")

    @pytest.mark.parametrize("hbar, err", [
        # ln D = -2 S / hbar_eff = -inf for a subnormal hbar.
        (1e-320, "hbar 1e-320 is out of range: ln_D overflows at time 0.0"),
        # hbar_eff = hbar Phi = inf once the purity falls.
        (1.5e308, "hbar 1.5e+308 is out of range: hbar_eff overflows at time 3.0"),
    ], ids=["ln_D", "hbar_eff"])
    def test_ends_of_the_state_files_hbar_name_it(self, files, capsys, hbar, err):
        state = files["dir"] / "plus_hbar.json"
        state.write_text(json.dumps({**PLUS_STATE, "hbar": hbar}))
        code = main(["decohere", "--state", str(state), "--gamma", "1.0", "--t-max", "12",
                     "--steps", "5", "--barrier", files["rect"], "--energy", "0.5"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {state}: {err}\n")

    @pytest.mark.parametrize("gamma", ["1", "1e308"])
    def test_overflowing_decay_reaches_the_dephased_limit(self, capsys, gamma):
        """gamma t, or 4 gamma, overflows; the limit is finite: z = w = 0, and the purity
        is the main diagonal's weight S_0 = (4/9)^2 + (4/9)^2 + (1/9)^2 = 11/27."""
        code, out = run(capsys, ["decohere", "--state", str(GOLDEN_INPUTS / "superposition.json"),
                                 "--gamma", gamma, "--t-max", "1e308", "--steps", "3",
                                 "--barrier", str(GOLDEN_INPUTS / "rectangular.json"),
                                 "--energy", "0.5"])
        assert code == 0
        assert [row.split(",")[1] for row in out.split()[1:]] == ["1", "0.407407407", "0.407407407"]

    def test_gaussian_state_rejected(self, files, capsys):
        code, _ = run(capsys, ["decohere", "--state", files["vacuum"], "--gamma", "1.0",
                               "--t-max", "1", "--steps", "3",
                               "--barrier", files["rect"], "--energy", "0.5"])
        assert code == 1


def test_linear_grid_matches_linspace_bit_for_bit():
    """The CLI's numpy-free grid gives the values of np.linspace on every grid."""
    rng = np.random.default_rng(11)
    grids = [(0.1, 1.0, 2), (-3.0, -1.0, 7), (0.5, 0.5 + 1e-6, 40)]
    for _ in range(3000):
        lo = rng.uniform(-10.0, 10.0)
        span = 10.0 ** rng.uniform(-6.0, 1.0)
        grids.append((lo, lo + span, int(rng.integers(2, 200))))
    for lo, hi, steps in grids:
        expected = list(map(float.hex, np.linspace(lo, hi, steps)))
        assert list(map(float.hex, linear_grid(lo, hi, steps, "grid"))) == expected


def _no_grid(*args, **kwargs):
    raise AssertionError("a grid was built")


STEPS_COMMANDS = {
    "phi-curve": ["phi-curve", "--mu-from", "0.5", "--mu-to", "1"],
    "oracle": ["oracle", "--mu-from", "0.5", "--mu-to", "1"],
    "thermal": ["thermal", "--t-min", "1", "--t-max", "2"],
    "tunnel": ["tunnel", "--barrier", "RECT", "--energy", "0.5", "--mu-from", "0.5",
               "--mu-to", "1"],
    "decohere": ["decohere", "--state", "PLUS", "--gamma", "1", "--t-max", "1",
                 "--barrier", "RECT", "--energy", "0.5"],
}


class TestStepsCap:
    """Every --steps grid is built whole, so the CLI caps the count at 10^6
    before any grid is built, as the falsifier caps --samples."""

    @pytest.fixture
    def no_grid(self, monkeypatch):
        import purity_bounds.decoherence
        import purity_bounds.thermal

        monkeypatch.setattr("purity_bounds.io.linear_grid", _no_grid)
        monkeypatch.setattr(purity_bounds.thermal, "temperature_grid", _no_grid)
        monkeypatch.setattr(purity_bounds.decoherence, "run_trajectory", _no_grid)

    @pytest.mark.parametrize("command", sorted(STEPS_COMMANDS))
    @pytest.mark.parametrize("steps", ["1000001", "100000000000"])
    def test_steps_above_the_cap_exit_1_at_once(self, files, capsys, no_grid, command, steps):
        argv = [files.get(arg.lower(), arg) for arg in STEPS_COMMANDS[command]]
        code = main(argv + ["--steps", steps])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: --steps {steps} is above the cap of 10^6\n"

    @pytest.mark.parametrize("command", sorted(STEPS_COMMANDS))
    def test_the_cap_itself_is_accepted(self, files, capsys, no_grid, command):
        argv = [files.get(arg.lower(), arg) for arg in STEPS_COMMANDS[command]]
        with pytest.raises(AssertionError, match="a grid was built"):
            main(argv + ["--steps", "1000000"])


class TestLevelsCap:
    """``oracle --levels`` sizes the minimizers' lists, so it has the --steps cap,
    checked before the purity grid or any level list is built."""

    @pytest.fixture
    def no_lists(self, monkeypatch):
        import purity_bounds.oracle

        monkeypatch.setattr("purity_bounds.io.linear_grid", _no_grid)
        monkeypatch.setattr(purity_bounds.oracle, "phi_curve_certified", _no_grid)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("grid", [["--mu", "0.5"],
                                      ["--mu-from", "0.5", "--mu-to", "1", "--steps", "3"]])
    def test_levels_above_the_cap_exit_1_at_once(self, capsys, no_lists, method, grid):
        code = main(["oracle", *grid, "--levels", "1000001", "--method", method])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: --levels 1000001 is above the cap of 10^6\n"

    @pytest.mark.parametrize("method", METHODS)
    def test_the_cap_itself_is_accepted(self, no_lists, method):
        with pytest.raises(AssertionError, match="a grid was built"):
            main(["oracle", "--mu", "0.5", "--levels", "1000000", "--method", method])


class TestDeterminismAndUsage:
    def test_byte_identical_reruns(self, files, capsys):
        commands = [
            ["check", files["vacuum"]],
            ["phi", "--mu", "0.37"],
            ["phi-curve", "--mu-from", "0.2", "--mu-to", "1.0", "--steps", "7"],
            ["oracle", "--mu-from", "0.45", "--mu-to", "0.55", "--steps", "3", "--levels", "3"],
            ["oracle", "--falsify", "--mu", "0.9", "--dim", "4", "--samples", "300",
             "--seed", "7"],
            ["thermal", "--t-min", "0.5", "--t-max", "50", "--steps", "5"],
            ["tunnel", "--barrier", files["rect"], "--energy", "0.5", "--mu", "0.5,1"],
            ["decohere", "--state", files["plus"], "--gamma", "0.5", "--t-max", "2",
             "--steps", "4", "--barrier", files["rect"], "--energy", "0.5"],
        ]
        for argv in commands:
            _, first = run(capsys, argv)
            _, second = run(capsys, argv)
            assert first == second, f"non-deterministic output for {argv}"

    def test_out_flag_writes_identical_bytes(self, files, capsys):
        out_a = files["dir"] / "a.csv"
        out_b = files["dir"] / "b.csv"
        for out in (out_a, out_b):
            code, _ = run(capsys, ["phi-curve", "--mu-from", "0.4", "--mu-to", "0.9",
                                   "--steps", "11", "--out", str(out)])
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["tunnel", "--help"]) == 0
