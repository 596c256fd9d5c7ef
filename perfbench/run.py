"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One run sets the workload up ``SETUP_REPEATS`` times in fresh
interpreters (``setup_s`` is their median), then runs whole rounds of the
workload's operations for about ``--seconds``, checking every output
against ``reference``.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` spends half the time untraced and half with spans installed
and prints the per-layer metrics (per traced round).  The last stdout line
is the result object; the line before it carries run information (machine,
versions, output digest, warnings).  A fuller record, with raw spans and
the ``-X importtime`` table, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# One client in one process: BLAS stays single-threaded unless the caller
# set otherwise.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="purity-bounds benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", default=None,
                        help="build the workload's inputs in DIR and exit (times setup_s)")
    return parser.parse_args(argv)


class Runner:
    """Runs rounds of one workload and keeps op times, failures and the digest."""

    def __init__(self, workload):
        self.workload = workload
        self.index = 0
        self.ops = 0
        self.attempted = 0
        self.failures = []
        self.warnings = Counter()
        self.digest = hashlib.sha256()

    def run(self, seconds: float, min_rounds: int, tracer=None, between=None) -> list[list[float]]:
        """Whole rounds while one more round of average length ends within
        ``seconds`` (``min_rounds`` at least); returns each round's op times.

        ``between()`` is called after each round; its time is not counted.
        """
        rounds = []
        start = time.perf_counter()
        paused = 0.0
        while len(rounds) < min_rounds or \
                (time.perf_counter() - start - paused) * (len(rounds) + 1) / len(rounds) <= seconds:
            rounds.append(self._round(tracer))
            self.index += 1
            if between is not None:
                mark = time.perf_counter()
                between()
                paused += time.perf_counter() - mark
        return rounds

    def _round(self, tracer) -> list[float]:
        times = []
        ops = self.workload.ops(self.index, tracer)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for op in ops:
                self.attempted += 1
                start = time.perf_counter()
                try:
                    result = op.run()
                except Exception as exc:  # an op that raises is a failed op
                    self.fail(op.name, exc)
                    continue
                finally:
                    times.append(time.perf_counter() - start)
                try:
                    out = op.check(result)
                except Exception as exc:  # a wrong or malformed output
                    self.fail(op.name, exc)
                    continue
                if self.index == 0:
                    self.digest.update(out)
        for warning in caught:
            name = warning.category.__name__
            self.warnings[name] += 1
            if tracer is not None:
                tracer.counts[f"warnings.{name}"] += 1
        if tracer is not None:
            tracer.end_round()
        self.ops += len(times)
        return times

    def fail(self, name, exc) -> None:
        message = f"{name}: {type(exc).__name__}: {exc}"
        if len(self.failures) < 5:
            print(f"failed op {message}\n{traceback.format_exc()}", file=sys.stderr)
        self.failures.append(message)


def time_setup(args, workdir: Path) -> float:
    workdir.mkdir()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(workdir)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"setup failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return elapsed


def import_times() -> tuple[dict, dict]:
    from tracing import parse_importtime
    from workloads import package_env

    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import purity_bounds"],
                          capture_output=True, cwd=ROOT, env=package_env(ROOT), timeout=120)
    return parse_importtime(proc.stderr.decode(errors="replace"))


def machine_info() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "purity_bounds" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(SRC))
    import purity_bounds

    if Path(purity_bounds.__file__).resolve().parent != SRC / "purity_bounds":
        print(f"error: imported purity_bounds from {purity_bounds.__file__}", file=sys.stderr)
        return 2
    from workloads import FALSIFY_MUS, PROBES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, Path(args.setup_only), ROOT)
        return 0
    from tracing import Tracer, layer_metrics

    OUT.mkdir(exist_ok=True)
    record = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tmp = Path(tmp)
        # Set-up samples are spread over the run, one before the rounds and
        # one after each round, so that a short slow spell of the machine
        # does not move all of them.
        setup = []

        def take_setup():
            if len(setup) < SETUP_REPEATS:
                setup.append(time_setup(args, tmp / f"setup{len(setup)}"))

        take_setup()
        work = tmp / "run"
        work.mkdir()
        workload = WORKLOADS[args.workload](args.seed, work, ROOT)
        runner = Runner(workload)
        if args.trace:
            base = runner.run(args.seconds / 2, 1, between=take_setup)
            tracer = Tracer()
            tracer.install()
            try:
                rounds = runner.run(args.seconds / 2, 1, tracer, take_setup)
            finally:
                tracer.uninstall()
            imports, import_table = import_times()
            overhead = statistics.median(map(sum, rounds)) / statistics.median(map(sum, base))
            metrics = layer_metrics(tracer, len(rounds), imports, overhead, FALSIFY_MUS)
            record["importtime"] = import_table
            record["spans"] = tracer.to_dict()
            wanted = spec["per_layer"]
        else:
            # Two rounds at least, so that the tail is a median over rounds.
            rounds = runner.run(args.seconds, 2, between=take_setup)
            while len(setup) < SETUP_REPEATS:
                take_setup()
            accuracy = workload.accuracy_metrics()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for key, probe in PROBES.items():
                    if key not in accuracy:
                        runner.attempted += 1
                        try:
                            accuracy[key] = probe()
                        except Exception as exc:  # a probe whose output misses its reference
                            runner.fail(f"probe {key}", exc)
                            accuracy[key] = -1.0
            runner.warnings.update(w.category.__name__ for w in caught)
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(map(sum, rounds)),
                "op_p50_ms": statistics.median(t for times in rounds for t in times) * 1e3,
                # Every round runs the same op kinds; its slowest op is the tail.
                "op_tail_ms": statistics.median(map(max, rounds)) * 1e3,
                "peak_rss_mb": workload.peak_rss_kb() / 1024.0,
                **accuracy,
            }
            wanted = spec["end_to_end"]

    mismatch = {m["name"] for m in wanted} ^ set(metrics)
    if mismatch:
        print(f"error: metric set differs from BENCHMARK.json: {sorted(mismatch)}", file=sys.stderr)
        return 2
    failed = len(runner.failures)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops": runner.ops, "rounds": runner.index, "measured_rounds": len(rounds),
        "failed_ratio": failed / runner.attempted,
        "failures": runner.failures[:5], "output_sha256": runner.digest.hexdigest(),
        "warnings": dict(runner.warnings), "setup_samples_s": setup,
        **workload.info, "machine": machine_info(),
    }
    record.update(info=info, metrics=metrics, round_s=[sum(times) for times in rounds])
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
