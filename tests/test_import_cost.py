"""Import cost of the package and of each command.

``import purity_bounds`` loads no submodule and no numpy: the public names
resolve on first access.  Every command runs without numpy (``check`` on
either state type, ``decohere``, ``tunnel`` through any barrier, ``thermal``,
``phi``, ``phi-curve`` and ``oracle`` with either method, the ``grid-refine``
face enumeration at any level count included) except ``oracle --falsify``,
and so do the Fock state builders.  ``falsification_sweep`` is the one
function in ``src/`` that imports numpy, which an AST check of the source
enforces.  Only the commands that take a barrier load
``purity_bounds.tunneling``.  The falsifier loads numpy alone: no scipy
module and no ``numpy.polynomial`` (which costs milliseconds on every cold
call).  No module imports ``dataclasses``, and no command loads it or
``inspect`` (numpy loads ``inspect`` for the falsifier).

Each check runs in a fresh interpreter, because ``sys.modules`` of the test
process already holds whatever other tests imported.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import purity_bounds

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "tests" / "golden" / "inputs"

_SCRIPT = """
import contextlib, io, json, sys
import purity_bounds
package_only = sorted(m for m in sys.modules if m.startswith("purity_bounds."))
import purity_bounds.cli

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(purity_bounds.cli.main(argv))
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial"))
numpy = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
package = sorted(m for m in sys.modules if m.startswith("purity_bounds."))
stdlib = sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded, "numpy": numpy,
                  "package_only": package_only, "package": package, "stdlib": stdlib}))
"""


def _run(*argvs: list[str], script: str = _SCRIPT) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    result = _run()
    assert result["codes"] == [] and result["loaded"] == []


def test_import_loads_no_submodule_and_no_numpy():
    result = _run()
    assert result["package_only"] == [] and result["numpy"] == []


def test_closed_form_commands_load_no_scipy():
    rectangular = str(INPUTS / "rectangular.json")
    result = _run(
        ["phi", "--mu", "0.5"],
        ["thermal", "--t-min", "0.5", "--t-max", "50", "--steps", "5"],
        ["oracle", "--falsify", "--mu", "0.5", "--dim", "4", "--samples", "50", "--seed", "1"],
        ["tunnel", "--barrier", rectangular, "--energy", "0.5", "--mu", "1,0.5"],
    )
    assert result["codes"] == [0, 0, 0, 0] and result["loaded"] == []


def test_sampled_barrier_loads_no_scipy():
    result = _run(["tunnel", "--barrier", str(INPUTS / "sampled.json"), "--energy", "0.5",
                   "--mu", "1,0.6"])
    assert result["codes"] == [0] and result["loaded"] == []


def test_closed_form_commands_load_no_numpy():
    result = _run(
        ["phi", "--mu", "0.5"],
        ["phi-curve", "--mu-from", "0.39", "--mu-to", "1.0", "--steps", "50"],
        ["tunnel", "--barrier", str(INPUTS / "rectangular.json"), "--energy", "0.5",
         "--mu", "1,0.5"],
        ["tunnel", "--barrier", str(INPUTS / "parabolic.json"), "--energy", "0.7",
         "--mu-from", "0.1", "--mu-to", "1.0", "--steps", "10"],
    )
    assert result["codes"] == [0, 0, 0, 0] and result["numpy"] == []


def test_gaussian_check_loads_no_numpy():
    result = _run(["check", str(INPUTS / "gaussian.json")],
                  ["check", str(INPUTS / "sub_heisenberg.json")])
    assert result["codes"] == [0, 2] and result["numpy"] == []


def test_fock_check_decohere_and_sampled_tunnel_load_no_numpy():
    sampled = str(INPUTS / "sampled.json")
    result = _run(
        ["check", str(INPUTS / "fock_mixed.json")],
        ["check", str(INPUTS / "fock_rank5_minimizer.json")],
        ["decohere", "--state", str(INPUTS / "superposition.json"), "--gamma", "1",
         "--t-max", "12", "--steps", "25", "--barrier", sampled, "--energy", "0.5"],
        ["tunnel", "--barrier", sampled, "--energy", "0.5", "--mu", "1,0.6"],
    )
    assert result["codes"] == [0] * 4 and result["numpy"] == []


def test_thermal_and_oracle_without_matrices_load_no_numpy():
    gradient = ["--method", "projected-gradient"]
    # projected-gradient at 6 purities from just above 1/levels to 1, for 2..12
    # levels, and at every reachable (purity, levels) point of the benchmark's
    # certify workload (purities 0.25..0.95, 4..8 levels).
    sweeps = [["oracle", "--mu-from", repr(1.0 / levels + 0.01), "--mu-to", "1", "--steps", "6",
               "--levels", str(levels), *gradient] for levels in range(2, 13)]
    certify = [["oracle", "--mu", repr(mu), "--levels", str(levels), *gradient]
               for mu in (round(0.25 + 0.05 * k, 2) for k in range(15))
               for levels in range(4, 9) if mu > 1.0 / levels]
    result = _run(
        ["thermal", "--t-min", "0.5", "--t-max", "50", "--steps", "20"],
        ["thermal", "--t-min", "50", "--t-max", "500", "--steps", "4",
         "--barrier", str(INPUTS / "rectangular.json"), "--energy", "0.5"],
        ["oracle", "--mu", "0.7", "--levels", "2"],
        ["oracle", "--mu-from", "0.39", "--mu-to", "0.55", "--steps", "12", "--levels", "3"],
        ["oracle", "--mu", "0.5", "--levels", "3", *gradient],
        *sweeps, *certify,
    )
    assert len(certify) == 74
    assert result["codes"] == [0] * (5 + 11 + 74) and result["numpy"] == []


def test_grid_refine_loads_no_numpy():
    grid = ["--method", "grid-refine"]
    result = _run(
        ["oracle", "--mu", "0.7", "--levels", "2", *grid],
        ["oracle", "--mu-from", "0.2", "--mu-to", "1", "--steps", "9", "--levels", "8", *grid],
        ["oracle", "--mu", "0.05", "--levels", "32", *grid],
    )
    assert result["codes"] == [0, 0, 0] and result["numpy"] == []


def test_state_builders_load_no_numpy():
    script = """
import json, sys
from purity_bounds import ThermalModel, diagonal_mixture, pure_state_density, thermal_state_fock
diagonal_mixture([0.5, 0.5], 4)
pure_state_density([1.0, 1j], 3)
thermal_state_fock(ThermalModel(), 1.0, 8)
print(json.dumps({"numpy": sorted(m for m in sys.modules if m.split(".")[0] == "numpy")}))
"""
    assert _run(script=script)["numpy"] == []


def _imports(node: ast.AST, top: str, scope: str | None = None) -> list[str | None]:
    """The enclosing function (None at module level) of each import of ``top`` under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    modules = []
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
    found = [scope for module in modules if module.split(".")[0] == top]
    for child in ast.iter_child_nodes(node):
        found += _imports(child, top, scope)
    return found


def _src_imports(top: str) -> dict[str, list[str | None]]:
    """Each module under ``src/`` that imports ``top``, with the scope of each import."""
    imports = {path.relative_to(ROOT).as_posix(): _imports(ast.parse(path.read_text()), top)
               for path in sorted((ROOT / "src").rglob("*.py"))}
    return {path: found for path, found in imports.items() if found}


def test_numpy_is_imported_only_by_the_falsifier():
    assert _src_imports("numpy") == {"src/purity_bounds/oracle.py": ["falsification_sweep"]}


def _package_imports(node: ast.AST) -> set[str]:
    """The package modules that ``node`` imports when it runs: ``if TYPE_CHECKING:``
    blocks are skipped, nested function bodies are not."""
    if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
        return set().union(*map(_package_imports, node.orelse))
    found = set()
    if isinstance(node, ast.ImportFrom):
        if node.level:
            found = {node.module} if node.module else {alias.name for alias in node.names}
        elif (node.module or "").split(".")[0] == "purity_bounds":
            found = {node.module.partition(".")[2] or alias.name for alias in node.names}
    elif isinstance(node, ast.Import):
        found = {alias.name.split(".")[1] for alias in node.names
                 if alias.name.startswith("purity_bounds.")}
    return found.union(*map(_package_imports, ast.iter_child_nodes(node)))


def test_bounds_imports_only_errors():
    """``states`` validates a Gaussian by the bounds' own rule, so it imports
    ``bounds``; ``bounds`` importing back would close a cycle, and ``phi``
    would load ``states``."""
    tree = ast.parse((ROOT / "src" / "purity_bounds" / "bounds.py").read_text())
    assert _package_imports(tree) == {"errors"}
    assert "bounds" in _package_imports(ast.parse(
        (ROOT / "src" / "purity_bounds" / "states.py").read_text()))


def test_each_tolerance_is_read_only_by_the_module_that_defines_it():
    """A ``*_TOL`` is a decision of the one module that applies it: no other
    module imports it or reads it as an attribute."""
    stray = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        defined = {target.id for node in nodes if isinstance(node, ast.Assign)
                   for target in node.targets if isinstance(target, ast.Name)}
        read = ({node.id for node in nodes if isinstance(node, ast.Name)}
                | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
                | {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                   for alias in node.names})
        stray += [f"{path.name}: {name}" for name in sorted(read - defined)
                  if name.endswith("_TOL")]
    assert stray == []


def test_no_module_imports_dataclasses():
    """Records are NamedTuples, so no command pays for dataclasses and inspect."""
    assert _src_imports("dataclasses") == {}


def test_cli_cold_commands_load_no_dataclasses_or_inspect():
    """The benchmark's cli-cold command set; numpy itself loads inspect, so the
    falsifier is only held to dataclasses."""
    rectangular, sampled = str(INPUTS / "rectangular.json"), str(INPUTS / "sampled.json")
    result = _run(
        ["check", str(INPUTS / "gaussian.json")],
        ["check", str(INPUTS / "fock_mixed.json")],
        ["phi", "--mu", "0.5"],
        ["phi-curve", "--mu-from", "0.39", "--mu-to", "1.0", "--steps", "50"],
        ["oracle", "--mu", "0.7", "--levels", "2"],
        ["oracle", "--mu-from", "0.39", "--mu-to", "0.55", "--steps", "12", "--levels", "3"],
        ["thermal", "--t-min", "0.5", "--t-max", "50", "--steps", "20", "--r", "0.3"],
        ["thermal", "--t-min", "50", "--t-max", "500", "--steps", "4",
         "--barrier", rectangular, "--energy", "0.5"],
        ["tunnel", "--barrier", rectangular, "--energy", "0.5", "--mu", "0.01,0.005,0.002"],
        ["tunnel", "--barrier", sampled, "--energy", "0.5"],
        ["decohere", "--state", str(INPUTS / "superposition.json"), "--gamma", "1",
         "--t-max", "12", "--steps", "25", "--barrier", rectangular, "--energy", "0.5"],
    )
    assert result["codes"] == [0] * 11 and result["stdlib"] == []
    result = _run(["oracle", "--falsify", "--mu", "0.5", "--dim", "6", "--samples", "100",
                   "--seed", "1"])
    assert result["codes"] == [0] and result["numpy"] != []
    assert "dataclasses" not in result["stdlib"]


def test_commands_without_a_barrier_load_no_tunneling():
    result = _run(
        ["phi", "--mu", "0.5"],
        ["phi-curve", "--mu-from", "0.39", "--mu-to", "1.0", "--steps", "50"],
        ["check", str(INPUTS / "gaussian.json")],
        ["oracle", "--mu", "0.7", "--levels", "2"],
    )
    assert result["codes"] == [0] * 4
    assert "purity_bounds.tunneling" not in result["package"]
    assert "purity_bounds.oracle" in result["package"]


def test_every_public_name_is_its_home_module_attribute():
    for name in purity_bounds.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"purity_bounds.{purity_bounds._HOME[name]}")
        assert getattr(purity_bounds, name) is getattr(home, name), name
    assert set(purity_bounds.__all__) <= set(dir(purity_bounds))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from purity_bounds import *", namespace)
    assert set(purity_bounds.__all__) <= set(namespace)
    assert not hasattr(purity_bounds, "no_such_name")
