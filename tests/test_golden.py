"""Byte-for-byte regression of the CLI against recorded outputs.

Each case runs ``purity_bounds.cli.main`` in process on the input files in
``tests/golden/inputs`` and compares stdout with ``tests/golden/<case>.txt``
and the exit code with ``tests/golden/exit_codes.json``.  The determinism
tests elsewhere only compare two runs of the same code; these cases pin the
bytes across changes to the code.  CSV output prints 9 significant digits,
so the sweep cases (tunnel, thermal, decohere) are also recorded with every
float in ``repr`` form in ``tests/golden/full_precision.json``, which pins
the last ulp of each row.

A change that is meant to alter an output regenerates the recorded files:

    PYTHONPATH=src python tests/test_golden.py --regen

which prints each case whose stdout bytes, full-precision record or exit
code changed, and deletes (printing ``<case>: removed``) the record of each
case that no longer exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import purity_bounds.io as pio
from purity_bounds.cli import main
from purity_bounds.oracle import METHODS

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
MODES = ("exact", "interpolation", "asymptote")


def _cases() -> dict[str, list[str]]:
    f = lambda name: str(INPUTS / f"{name}.json")
    # check takes no Phi mode; its cases keep the names, and bytes, of the exact mode's.
    cases = {f"check-{state}-exact": ["check", f(state)]
             for state in ("gaussian", "gaussian_low_purity", "fock_mixed")}
    for mode in MODES:
        cases[f"phi-0.5-{mode}"] = ["phi", "--mu", "0.5", "--mode", mode]
        cases[f"phi-0.3-{mode}"] = ["phi", "--mu", "0.3", "--mode", mode]
        cases[f"thermal-{mode}"] = ["thermal", "--t-min", "0.5", "--t-max", "50", "--steps", "20",
                                    "--r", "0.3", "--phi-mode", mode]
        cases[f"thermal-barrier-{mode}"] = [
            "thermal", "--t-min", "50", "--t-max", "500", "--steps", "4",
            "--barrier", f("rectangular"), "--energy", "0.5", "--phi-mode", mode]
        cases[f"tunnel-rectangular-{mode}"] = [
            "tunnel", "--barrier", f("rectangular"), "--energy", "0.5",
            "--mu", "0.01,0.005,0.002", "--r", "0.2", "--phi-mode", mode]
        cases[f"tunnel-parabolic-{mode}"] = [
            "tunnel", "--barrier", f("parabolic"), "--energy", "0.7", "--hbar", "0.8",
            "--mu-from", "0.1", "--mu-to", "1.0", "--steps", "10", "--phi-mode", mode]
        cases[f"tunnel-sampled-{mode}"] = [
            "tunnel", "--barrier", f("sampled"), "--energy", "0.5", "--mu", "1,0.6,0.3",
            "--phi-mode", mode]
        cases[f"decohere-{mode}"] = [
            "decohere", "--state", f("superposition"), "--gamma", "1", "--t-max", "12",
            "--steps", "25", "--barrier", f("rectangular"), "--energy", "0.5", "--phi-mode", mode]
    cases["check-vacuum"] = ["check", f("vacuum")]
    cases["check-sub-heisenberg"] = ["check", f("sub_heisenberg")]
    cases["check-rank5-minimizer"] = ["check", f("fock_rank5_minimizer")]
    cases["check-overflow"] = ["check", f("gaussian_overflow")]
    cases["check-overflow-correlated"] = ["check", f("gaussian_overflow_correlated")]
    # Near purity 1 and far from hbar = 1, validation alone decides the outcome.
    cases["check-purity-band"] = ["check", f("gaussian_purity_band")]
    cases["check-fock-purity-band"] = ["check", f("fock_purity_band")]
    # Exactly pure (det = 1/4 in dyadic numbers): 1 - r^2 must not round into a flag.
    cases["check-pure-correlated"] = ["check", f("gaussian_pure_correlated")]
    cases["check-small-hbar"] = ["check", f("gaussian_small_hbar")]
    cases["check-large-hbar"] = ["check", f("gaussian_large_hbar")]
    # Phi^2, hbar^2 or sigma_qq sigma_pp leave the float range, the bounds do not.
    cases["check-phi-overflow"] = ["check", f("gaussian_phi_overflow")]
    cases["check-hbar-square-overflow"] = ["check", f("gaussian_hbar_square_overflow")]
    cases["check-tiny-hbar"] = ["check", f("fock_mixed"), "--hbar", "1e-300"]
    cases["thermal-hot"] = ["thermal", "--t-min", "1e8", "--t-max", "1e14", "--steps", "7"]
    cases["phi-curve"] = ["phi-curve", "--mu-from", "0.39", "--mu-to", "1.0", "--steps", "50"]
    cases["oracle-rank2"] = ["oracle", "--mu", "0.7", "--levels", "2"]
    cases["oracle-sweep"] = ["oracle", "--mu-from", "0.39", "--mu-to", "0.55", "--steps", "12",
                             "--levels", "3"]
    for method in METHODS:
        cases[f"oracle-{method}"] = ["oracle", "--mu", "0.5", "--levels", "3", "--method", method]
    cases["oracle-grid-refine-levels8"] = ["oracle", "--mu", "0.58", "--levels", "8",
                                           "--method", "grid-refine"]
    cases["oracle-grid-refine-levels32"] = ["oracle", "--mu", "0.05", "--levels", "32",
                                            "--method", "grid-refine"]
    cases["oracle-low-purity"] = ["oracle", "--mu", "0.3", "--levels", "5"]
    for dim, seed in ((6, 42), (8, 7)):
        cases[f"oracle-falsify-dim{dim}"] = [
            "oracle", "--falsify", "--mu", "0.5", "--dim", str(dim), "--samples", "2000",
            "--seed", str(seed)]
    return cases


CASES = _cases()
SWEEPS = sorted(name for name in CASES if name.split("-")[0] in ("tunnel", "thermal", "decohere"))
_format_number = pio.format_number


def _repr_number(value) -> str:
    return repr(float(value)) if isinstance(value, (float, np.floating)) else _format_number(value)


def run_case(argv: list[str], full_precision: bool = False) -> tuple[int, bytes]:
    buffer = io.StringIO()
    formatter = _repr_number if full_precision else _format_number
    with contextlib.redirect_stdout(buffer), mock.patch.object(pio, "format_number", formatter):
        code = main(argv)
    return code, buffer.getvalue().encode("utf-8")


def _full_precision() -> dict[str, str]:
    return json.loads((GOLDEN / "full_precision.json").read_text(encoding="utf-8"))


def _exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def test_every_case_is_recorded():
    assert set(_exit_codes()) == set(CASES)
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(CASES)
    assert set(_full_precision()) == set(SWEEPS)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_recorded_bytes(name):
    code, out = run_case(CASES[name])
    assert out == (GOLDEN / f"{name}.txt").read_bytes()
    assert code == _exit_codes()[name]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_values_match_recorded_full_precision(name):
    _, out = run_case(CASES[name], full_precision=True)
    assert out.decode("utf-8") == _full_precision()[name]


def _checks_a(kind: str, argv: list[str]) -> bool:
    """True for a check of a state file of the given type."""
    return argv[0] == "check" and json.loads(Path(argv[1]).read_text())["type"] == kind


# Every case but the falsifier, the one command that loads numpy.
NUMPY_FREE = sorted(name for name in CASES if not name.startswith("oracle-falsify-"))

_CHILD = """
import contextlib, io, json, sys
if sys.argv[2] == "without-numpy":
    sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import purity_bounds.io as pio
from purity_bounds.cli import main

def run(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return [code, buffer.getvalue()]

format_number = pio.format_number
results = {}
for name, (argv, sweep) in json.loads(sys.argv[1]).items():
    results[name] = run(argv)
    if sweep:  # numpy floats are floats too
        pio.format_number = lambda v: repr(float(v)) if isinstance(v, float) else format_number(v)
        results[name].append(run(argv)[1])
        pio.format_number = format_number
print(json.dumps(results))
"""


def _run_in_child(names: list[str], mode: str = "", **env: str) -> dict[str, list]:
    """Run the named cases in a fresh interpreter.

    Returns {name: [exit code, stdout]}, with the full-precision stdout
    appended for a sweep.
    """
    env = dict(os.environ, PYTHONPATH=str(GOLDEN.parent.parent / "src"), **env)
    cases = {name: [CASES[name], name in SWEEPS] for name in names}
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(cases), mode],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def _assert_recorded(results: dict[str, list]) -> None:
    for name, (code, out, *full) in results.items():
        assert out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes(), name
        assert code == _exit_codes()[name], name
        assert full == ([_full_precision()[name]] if name in SWEEPS else []), name


def test_numpy_free_cases_match_recorded_bytes_without_numpy():
    """Every command but the falsifier gives the recorded bytes with numpy
    unimportable: Fock states, dephasing, sampled barriers and the face
    enumeration included.  They run the same code as with numpy, not a
    numpy-free copy of it."""
    results = _run_in_child(NUMPY_FREE, "without-numpy")
    assert "phi-curve" in results and "check-gaussian-exact" in results and len(results) == 49
    assert "thermal-hot" in results and "oracle-sweep" in results
    assert "oracle-grid-refine-levels32" in results
    assert {"check-fock_mixed-exact", "decohere-exact", "tunnel-sampled-exact"} <= set(results)
    _assert_recorded(results)


def _openblas_dynamic_arch_on_x86() -> bool:
    """True where OpenBLAS picks its kernel at run time on an x86-64 CPU."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 only prints its configuration
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


# The minimizer, Fock check, decohere and sampled-barrier cases; the
# falsifier's eigensolver is LAPACK's and is not covered.
KERNEL_FREE = sorted(name for name in CASES
                     if (name.startswith(("oracle-", "decohere-", "tunnel-sampled-"))
                         and "falsify" not in name)
                     or _checks_a("fock", CASES[name]))


@pytest.mark.skipif(not _openblas_dynamic_arch_on_x86(),
                    reason="needs OpenBLAS built with DYNAMIC_ARCH on x86-64")
def test_oracle_and_fock_bytes_do_not_depend_on_the_blas_kernel():
    """The oracle's, the Fock moments' and the sampled action's sums are their
    own, correctly rounded: OpenBLAS's SSE kernel (safe on any x86-64) gives
    the recorded bytes and full-precision rows too."""
    assert len(KERNEL_FREE) == 7 + 5 + 3 + 3  # oracle, check, decohere, tunnel-sampled
    _assert_recorded(_run_in_child(KERNEL_FREE, OPENBLAS_CORETYPE="Prescott"))


def regenerate() -> list[str]:
    """Rewrite every recorded file and delete those of removed cases.

    Returns one line per case whose record changed or was removed.
    """
    old_codes, old_full = _exit_codes(), _full_precision()
    codes, full, changed = {}, {}, []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, argv in sorted(CASES.items()):
            path = GOLDEN / f"{name}.txt"
            old_out = path.read_bytes() if path.exists() else None
            codes[name], out = run_case(argv)
            path.write_bytes(out)
            if name in SWEEPS:
                full[name] = run_case(argv, full_precision=True)[1].decode("utf-8")
            what = [label for label, differs in (
                ("stdout", out != old_out),
                ("full precision", name in full and full[name] != old_full.get(name)),
                ("exit code", codes[name] != old_codes.get(name)),
            ) if differs]
            if what:
                changed.append(f"{name}: {', '.join(what)}")
    for path in sorted(GOLDEN.glob("*.txt")):
        if path.stem not in CASES:
            path.unlink()
            changed.append(f"{path.stem}: removed")
    (GOLDEN / "full_precision.json").write_text(json.dumps(full, indent=1, sort_keys=True) + "\n",
                                                encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n",
                                            encoding="utf-8")
    return changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_golden.py --regen")
    print("\n".join(regenerate()) or "no recorded output changed")
