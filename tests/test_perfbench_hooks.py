"""The benchmark under ``perfbench/`` reaches into the package by name.

``perfbench/tracing.py`` wraps the functions listed in ``SPANS`` and
``perfbench/workloads.py`` calls package attributes directly; renaming or
deleting one of them breaks the benchmark without failing any other test.
These tests only read ``perfbench/``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import purity_bounds
import purity_bounds.io

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves_to_a_function():
    spans = _load_tracing().SPANS
    assert spans
    missing = []
    for module, attr, _name, _counter in spans:
        owner = importlib.import_module(f"purity_bounds.{module}")
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_every_workload_attribute_resolves():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    owners = {"pb": purity_bounds, "pb_io": purity_bounds.io}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in owners}
    assert used
    missing = sorted(f"{owner}.{attr}" for owner, attr in used if not hasattr(owners[owner], attr))
    assert missing == []
