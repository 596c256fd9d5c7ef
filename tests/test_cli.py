import itertools
import json
import math

import numpy as np
import pytest

from purity_bounds.cli import main

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

    def test_missing_file_is_input_error(self, files, capsys):
        code, _ = run(capsys, ["check", str(files["dir"] / "nope.json")])
        assert code == 1

    def test_malformed_file_is_input_error(self, files, capsys):
        path = files["dir"] / "junk.json"
        path.write_text("{")
        code, _ = run(capsys, ["check", str(path)])
        assert code == 1

    def test_hbar_override(self, files, capsys):
        code, out = run(capsys, ["check", files["vacuum"], "--hbar", "2.0"])
        assert code == 2  # vacuum at hbar=1 violates the hbar=2 bound
        doc = json.loads(out)
        assert doc["violations"][0]["name"] == "physicality"

    def test_nan_hbar_override_is_input_error(self, files, capsys):
        assert main(["check", files["vacuum"], "--hbar", "nan"]) == 1
        assert "--hbar" in capsys.readouterr().err

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
        doc = json.loads(out)
        assert doc["valid"] is False
        assert [v["name"] for v in doc["violations"]] == ["finite"]
        assert field in doc["violations"][0]["detail"]

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
        # 1e-12 below hbar^2/4 is inside the validation tolerance, so the
        # state is accepted, but it violates the bound by far more than rounding.
        path = files["dir"] / "below.json"
        below = {"qq": 0.5, "pp": 0.5 * (1.0 - 1e-12), "qp": 0.0}
        path.write_text(json.dumps({**VACUUM, "cov": below}))
        code, out = run(capsys, ["check", str(path)])
        assert code == 2
        doc = json.loads(out)
        assert doc["valid"] is True
        assert not any(doc["flags"].values())


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

    def test_zero_steps_is_usage_error(self, capsys):
        code, _ = run(capsys, ["phi-curve", "--mu-from", "0.5", "--mu-to", "1.0", "--steps", "0"])
        assert code == 1

    def test_bad_mode_is_usage_error(self, capsys):
        code, _ = run(capsys, ["phi", "--mu", "0.5", "--mode", "guess"])
        assert code == 1


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

    def test_needs_some_grid(self, capsys):
        code, _ = run(capsys, ["oracle"])
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
        for flag in ("--hbar", "--mass", "--omega"):
            code, out = run(capsys, ["thermal", "--t-min", "1", "--t-max", "2", "--steps", "2",
                                     flag, "nan"])
            assert (code, out) == (1, "")

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

    def test_spike_barrier_exits_3(self, files, capsys):
        spike = {"shape": "sampled", "x": list(np.linspace(0.0, 1.0, 8)),
                 "v": [0, 0, 0, 0, 1.0, 0, 0, 0], "mass": 1.0}
        path = files["dir"] / "spike.json"
        path.write_text(json.dumps(spike))
        code, _ = run(capsys, ["tunnel", "--barrier", str(path), "--energy", "0.5"])
        assert code == 3

    def test_non_finite_inputs_exit_1(self, files, capsys):
        path = files["dir"] / "nan.json"
        path.write_text(json.dumps(dict(RECT, v0=float("nan"))))
        code, out = run(capsys, ["tunnel", "--barrier", str(path), "--energy", "0.5"])
        assert (code, out) == (1, "")
        code, out = run(capsys, ["tunnel", "--barrier", files["rect"], "--energy", "nan"])
        assert (code, out) == (1, "")

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

    def test_gaussian_state_rejected(self, files, capsys):
        code, _ = run(capsys, ["decohere", "--state", files["vacuum"], "--gamma", "1.0",
                               "--t-max", "1", "--steps", "3",
                               "--barrier", files["rect"], "--energy", "0.5"])
        assert code == 1


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
