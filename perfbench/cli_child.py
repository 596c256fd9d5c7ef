"""Traced entry for one CLI call.

    python3 perfbench/cli_child.py SPANS_JSON [purity-bounds arguments...]

Runs ``purity_bounds.cli.main`` like ``python -m purity_bounds.cli`` does,
with the benchmark's spans installed, and writes the span aggregates and
the count of displayed warnings to SPANS_JSON.  Stdout, stderr and the exit
code stay the CLI's own.
"""

import json
import sys
import warnings
from pathlib import Path

from tracing import Tracer


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    from purity_bounds import cli

    tracer = Tracer()
    tracer.install()
    show = warnings.showwarning

    def counting_showwarning(message, category, *args, **kwargs):
        tracer.counts[f"warnings.{category.__name__}"] += 1
        show(message, category, *args, **kwargs)

    warnings.showwarning = counting_showwarning
    try:
        return cli.main(argv)
    finally:
        tracer.raw = []
        spans_path.write_text(json.dumps(tracer.to_dict()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
