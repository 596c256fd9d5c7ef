"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each function in ``SPANS`` by a wrapper in every
loaded ``purity_bounds`` module that holds a reference to it, so calls from
one module into another (``decoherence`` -> ``compute_moments``) are seen
too.  Spans are aggregated in memory as calls, self time (duration minus
child spans) and total time per name; the first ``RAW_SPAN_CAP`` spans are
also kept raw with their parent.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import re
import statistics
import sys
import time
from collections import Counter, defaultdict

RAW_SPAN_CAP = 20000


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _falsify_name(args, kwargs, result):
    return f"oracle.falsify@{float(_arg(args, kwargs, 0, 'mu')):g}"


def _minimize_name(args, kwargs, result):
    method = getattr(result, "method", "failed")
    return {"grid-refine": "oracle.grid_refine",
            "projected-gradient": "oracle.gradient"}.get(method, "oracle.analytic")


def _transparency_name(args, kwargs, result):
    barrier = _arg(args, kwargs, 0, "barrier")
    return "tunneling.sampled" if type(barrier).__name__ == "SampledBarrier" else "tunneling.closed_form"


def _count_bytes(tracer, args, kwargs, result):
    tracer.counts["io.bytes_out"] += len(result.encode("utf-8"))


def _count_moments(tracer, args, kwargs, result):
    state = _arg(args, kwargs, 0, "state")
    if hasattr(state, "entries"):
        tracer.counts["moments.fock_calls"] += 1
        tracer.round_keys.add((state.dim, state.hbar, state.mass, state.omega))


def _count_falsify(tracer, args, kwargs, result):
    tracer.counts["oracle.falsify_samples"] += result.samples
    tracer.counts["oracle.falsify_used"] += result.used


def _count_minimize(tracer, args, kwargs, result):
    if result.method == "grid-refine":
        tracer.counts["oracle.grid_refine_evals"] += result.iterations
    elif result.method == "projected-gradient":
        tracer.counts["oracle.gradient_iters"] += result.iterations


def _count_steps(tracer, args, kwargs, result):
    tracer.counts["decoherence.steps"] += len(result.times)


# (module, function, span name or name(args, kwargs, result), counter or None)
SPANS = [
    ("cli", "main", "cli.main", None),
    ("io", "load_state", "io.load", None),
    ("io", "load_barrier", "io.load", None),
    ("io", "state_from_dict", "io.load", None),
    ("io", "barrier_from_dict", "io.load", None),
    ("io", "render_csv", "io.render", _count_bytes),
    ("io", "render_json", "io.render", _count_bytes),
    ("io", "tunnel_sweep_csv", "io.render", None),
    ("io", "thermal_sweep_csv", "io.render", None),
    ("io", "decohere_csv", "io.render", None),
    ("io", "bound_report_dict", "io.render", None),
    ("states", "validate_state", "states.validate", None),
    ("moments", "compute_moments", "moments.compute", _count_moments),
    ("bounds", "phi_eval", "bounds.phi_eval", None),
    ("bounds", "evaluate_bounds", "bounds.evaluate", None),
    ("bounds", "effective_hbar", "bounds.effective_hbar", None),
    ("oracle", "falsification_sweep", _falsify_name, _count_falsify),
    ("oracle", "min_product_fock_mixture", _minimize_name, _count_minimize),
    ("oracle", "phi_curve_certified", "oracle.curve", None),
    ("thermal", "thermal_purity", "thermal.purity", None),
    ("thermal", "thermal_sweep", "thermal.sweep", None),
    ("tunneling", "transparency", _transparency_name, None),
    ("tunneling", "transparency_vs_purity", "tunneling.sweep", None),
    ("tunneling", "transparency_vs_temperature", "tunneling.sweep", None),
    ("decoherence", "run_trajectory", "decoherence.trajectory", _count_steps),
]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.round_keys = set()
        self.reuse_ratios = []  # (Fock compute_moments calls, reuse) per round
        self._fock_calls_before = 0
        self.raw = []
        self.raw_dropped = 0
        self._children = []  # child-span time of each open span
        self._open_ids = []
        self._next_id = 0
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "purity_bounds" or name.startswith("purity_bounds.")]
        for module, attr, name, counter in SPANS:
            owner = sys.modules.get(f"purity_bounds.{module}")
            if owner is None:
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _wrap(self, fn, name, counter):
        namer = name if callable(name) else (lambda args, kwargs, result: name)

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._open_ids[-1] if self._open_ids else None
            self._open_ids.append(span_id)
            self._children.append(0.0)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._open_ids.pop()
                child = self._children.pop()
                if self._children:
                    self._children[-1] += end - start
                label = namer(args, kwargs, result)
                self.calls[label] += 1
                self.self_s[label] += end - start - child
                self.total_s[label] += end - start
                if len(self.raw) < RAW_SPAN_CAP:
                    self.raw.append((span_id, parent, label, start, end))
                else:
                    self.raw_dropped += 1
                if counter is not None and result is not None:
                    counter(self, args, kwargs, result)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- bookkeeping ----------------------------------------------------------

    def end_round(self) -> None:
        """Close one round: record its operator-key reuse for Fock moments."""
        calls = self.counts["moments.fock_calls"] - self._fock_calls_before
        self._fock_calls_before = self.counts["moments.fock_calls"]
        ratio = 1.0 - len(self.round_keys) / calls if calls else 0.0
        self.reuse_ratios.append((calls, ratio))
        self.round_keys = set()

    def to_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "keys": sorted(map(list, self.round_keys)),
            "raw": self.raw,
            "raw_dropped": self.raw_dropped,
        }

    def merge(self, data: dict) -> None:
        """Add the aggregates a traced child process wrote out."""
        self.calls.update(data["calls"])
        for name, value in data["self_s"].items():
            self.self_s[name] += value
        for name, value in data["total_s"].items():
            self.total_s[name] += value
        self.counts.update(data["counts"])
        self.round_keys.update(map(tuple, data["keys"]))
        self.raw_dropped += data["raw_dropped"] + len(data["raw"])


def layer_metrics(tracer: Tracer, rounds: int, imports: dict, overhead_ratio: float,
                  falsify_mus) -> dict:
    """Per-layer metrics, per traced round, in ``BENCHMARK.json`` order.

    ``falsify_mus`` are the purities whose falsifier time is reported on its own.
    """
    per = lambda value: value / rounds
    self_s = lambda prefix: per(sum(v for k, v in tracer.self_s.items()
                                    if k == prefix or k.startswith(prefix + "@")))
    calls = lambda name: per(tracer.calls[name])
    count = lambda name: per(tracer.counts[name])
    samples = tracer.counts["oracle.falsify_samples"]
    weighted = [(n, r) for n, r in tracer.reuse_ratios if n]
    metrics = {f"import.{key}_s": imports[key] for key in IMPORT_MODULES}
    metrics.update({
        "cli.main_self_s": self_s("cli.main"),
        "cli.calls": calls("cli.main"),
        "cli.nonzero_exits": count("cli.nonzero_exits"),
        "cli.stderr_lines": count("cli.stderr_lines"),
        "io.load_s": self_s("io.load"),
        "io.render_s": self_s("io.render"),
        "io.bytes_out": count("io.bytes_out"),
        "states.validate_s": self_s("states.validate"),
        "states.validate_calls": calls("states.validate"),
        "moments.compute_s": self_s("moments.compute"),
        "moments.compute_calls": calls("moments.compute"),
        "moments.reuse_ratio": statistics.fmean(r for _, r in weighted) if weighted else 0.0,
        "bounds.phi_eval_s": self_s("bounds.phi_eval"),
        "bounds.phi_eval_calls": calls("bounds.phi_eval"),
        "bounds.evaluate_s": self_s("bounds.evaluate"),
        "bounds.effective_hbar_s": self_s("bounds.effective_hbar"),
        "oracle.falsify_s": self_s("oracle.falsify"),
    })
    for mu in falsify_mus:
        metrics[f"oracle.falsify.mu{mu:g}_s"] = per(tracer.self_s.get(f"oracle.falsify@{mu:g}", 0.0))
    metrics.update({
        "oracle.falsify_samples": count("oracle.falsify_samples"),
        "oracle.falsify_used_ratio": tracer.counts["oracle.falsify_used"] / samples if samples else 0.0,
        "oracle.grid_refine_s": self_s("oracle.grid_refine"),
        "oracle.grid_refine_evals": count("oracle.grid_refine_evals"),
        "oracle.gradient_s": self_s("oracle.gradient"),
        "oracle.gradient_iters": count("oracle.gradient_iters"),
        "oracle.curve_s": self_s("oracle.curve"),
        "thermal.purity_s": self_s("thermal.purity"),
        "thermal.purity_calls": calls("thermal.purity"),
        "thermal.sweep_self_s": self_s("thermal.sweep"),
        "tunneling.sampled_s": self_s("tunneling.sampled"),
        "tunneling.sampled_calls": calls("tunneling.sampled"),
        "tunneling.closed_form_s": self_s("tunneling.closed_form"),
        "tunneling.sweep_self_s": self_s("tunneling.sweep"),
        "tunneling.integration_warnings": count("warnings.IntegrationWarning"),
        "decoherence.trajectory_self_s": self_s("decoherence.trajectory"),
        "decoherence.steps": count("decoherence.steps"),
        "trace.overhead_ratio": overhead_ratio,
    })
    return metrics


# Module name in ``-X importtime`` output -> metric key.
IMPORT_MODULES = {
    "purity_bounds": "purity_bounds",
    "scipy_integrate": "scipy.integrate",
    "scipy_interpolate": "scipy.interpolate",
    "scipy_special": "scipy.special",
    "numpy": "numpy",
}

_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(stderr: str) -> tuple[dict, dict]:
    """(cumulative seconds per IMPORT_MODULES key, {module: [self_s, cumulative_s]})."""
    table = {}
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            table[match.group(4)] = [int(match.group(1)) * 1e-6, int(match.group(2)) * 1e-6]
    cumulative = {key: table.get(module, [0.0, 0.0])[1] for key, module in IMPORT_MODULES.items()}
    return cumulative, table
