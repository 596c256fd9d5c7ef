"""Bit-for-bit regression of the falsifier's power-family projection.

The projection is pinned on seeded Dirichlet batches by the sha256 of
``t.tobytes()`` and of ``converged.tobytes()``.  A rewrite of the kernel
that changes a single ulp fails here, which the CLI goldens (9 printed
digits) would not catch.  The record holds only these power-projection
entries; ``grid-refine`` is exact and is checked against the exact Phi in
``tests/test_oracle.py`` instead.

A change that is meant to alter the kernel's output regenerates the file:

    PYTHONPATH=src python tests/test_oracle_kernels.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from purity_bounds.oracle import _power_projection

RECORD = Path(__file__).resolve().parent / "golden" / "oracle_kernels.json"

POWER_DIMS = (2, 4, 6, 8)
POWER_MUS = (0.3, 0.5, 0.8, 0.95, 0.99)
POWER_ROWS = 1000


def _power_entry(dim: int, mu: float) -> dict:
    rng = np.random.default_rng(1000 * dim + round(100 * mu))
    t, converged = _power_projection(rng.dirichlet(np.ones(dim), size=POWER_ROWS), mu)
    return {
        "dim": dim,
        "mu": mu,
        "converged": int(converged.sum()),
        "t_sha256": hashlib.sha256(t.tobytes()).hexdigest(),
        "converged_sha256": hashlib.sha256(converged.tobytes()).hexdigest(),
    }


# The power family cannot go below purity 1/dim.
POWER = [(dim, mu) for dim in POWER_DIMS for mu in POWER_MUS if mu > 1.0 / dim]


def _recorded() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_every_case_is_recorded():
    assert [(e["dim"], e["mu"]) for e in _recorded()["power_projection"]] == POWER


def test_power_projection_matches_record():
    recorded = _recorded()["power_projection"]
    assert [_power_entry(e["dim"], e["mu"]) for e in recorded] == recorded


def regenerate() -> None:
    record = {"power_projection": [_power_entry(dim, mu) for dim, mu in POWER]}
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_oracle_kernels.py --regen")
    regenerate()
