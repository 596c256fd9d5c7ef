"""The package and every command load with numpy alone: no scipy module and
no ``numpy.polynomial`` (which costs milliseconds on every cold call).

Each check runs in a fresh interpreter, because ``sys.modules`` of the test
process already holds whatever other tests imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "tests" / "golden" / "inputs"

_SCRIPT = """
import contextlib, io, json, sys
import purity_bounds, purity_bounds.cli

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(purity_bounds.cli.main(argv))
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial"))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def _run(*argvs: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _run() == {"codes": [], "loaded": []}


def test_closed_form_commands_load_no_scipy():
    rectangular = str(INPUTS / "rectangular.json")
    result = _run(
        ["phi", "--mu", "0.5"],
        ["thermal", "--t-min", "0.5", "--t-max", "50", "--steps", "5"],
        ["oracle", "--falsify", "--mu", "0.5", "--dim", "4", "--samples", "50", "--seed", "1"],
        ["tunnel", "--barrier", rectangular, "--energy", "0.5", "--mu", "1,0.5"],
    )
    assert result == {"codes": [0, 0, 0, 0], "loaded": []}


def test_sampled_barrier_loads_no_scipy():
    result = _run(["tunnel", "--barrier", str(INPUTS / "sampled.json"), "--energy", "0.5",
                   "--mu", "1,0.6"])
    assert result == {"codes": [0], "loaded": []}
