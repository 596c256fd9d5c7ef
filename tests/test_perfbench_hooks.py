"""The benchmark under ``perfbench/`` reaches into the package by name.

``perfbench/tracing.py`` wraps the functions listed in ``SPANS``, and its
counters read attributes of their results; ``perfbench/workloads.py`` calls
package attributes directly.  Renaming or deleting one of them, or removing
or moving a parameter such a call uses, breaks the benchmark without failing
any other test.  These tests only read ``perfbench/``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import typing
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


def test_every_span_counter_reads_attributes_of_the_traced_return_type():
    tracing = _load_tracing()
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    reads = {node.name: {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                         and isinstance(n.value, ast.Name) and n.value.id == "result"}
             for node in tree.body if isinstance(node, ast.FunctionDef)}
    checked, missing = set(), []
    for module, attr, _name, counter in tracing.SPANS:
        if counter is None:
            continue
        func = getattr(importlib.import_module(f"purity_bounds.{module}"), attr)
        returns = typing.get_type_hints(func)["return"]
        for read in reads[counter.__name__]:
            checked.add(read)
            if not (hasattr(returns, read) or read in typing.get_type_hints(returns)):
                missing.append(f"{module}.{attr} -> {returns.__name__}.{read}")
    assert checked and missing == []


OWNERS = {"pb": purity_bounds, "pb_io": purity_bounds.io}


def _workloads_tree():
    return ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))


def test_every_workload_attribute_resolves():
    used = {(node.value.id, node.attr) for node in ast.walk(_workloads_tree())
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in OWNERS}
    assert used
    missing = sorted(f"{owner}.{attr}" for owner, attr in used if not hasattr(OWNERS[owner], attr))
    assert missing == []


def test_every_workload_call_binds_to_its_target():
    calls = [node for node in ast.walk(_workloads_tree())
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id in OWNERS]
    assert calls
    unbound = []
    for call in calls:
        name = f"{call.func.value.id}.{call.func.attr}"
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords):
            unbound.append(f"line {call.lineno}: {name} unpacks its arguments")
            continue
        target = getattr(OWNERS[call.func.value.id], call.func.attr)
        try:
            inspect.signature(target).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {name}: {exc}")
    assert unbound == []
