"""Bit-for-bit regression of the two oracle kernels against recorded values.

``grid-refine`` is pinned at a few purities per level count (2..8): the
``repr`` of ``min_product`` and of every optimal weight, and the evaluation
count.  The falsifier's power-family projection is pinned on seeded
Dirichlet batches by the sha256 of ``t.tobytes()`` and of
``converged.tobytes()``.  A rewrite of either kernel that changes a single
ulp fails here, which the CLI goldens (9 printed digits, one purity per
method) would not catch.

A change that is meant to alter a kernel's output regenerates the file:

    PYTHONPATH=src python tests/test_oracle_kernels.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from purity_bounds.oracle import _power_projection, min_product_fock_mixture

RECORD = Path(__file__).resolve().parent / "golden" / "oracle_kernels.json"

GRID_CASES = {
    2: (0.55, 0.7, 0.9, 0.99),
    3: (0.4, 0.5, 0.6, 0.8),
    4: (0.3, 0.45, 0.6, 0.9),
    5: (0.25, 0.35, 0.5, 0.7),
    6: (0.2, 0.3, 0.5, 0.8),
    7: (0.2, 0.3, 0.45, 0.6),
    8: (0.25, 0.4, 0.58, 0.75),
}
POWER_DIMS = (2, 4, 6, 8)
POWER_MUS = (0.3, 0.5, 0.8, 0.95, 0.99)
POWER_ROWS = 1000


def _grid_entry(mu: float, levels: int) -> dict:
    res = min_product_fock_mixture(mu, levels, method="grid-refine")
    return {
        "mu": mu,
        "levels": levels,
        "min_product": repr(res.min_product),
        "weights": [repr(float(w)) for w in res.optimal_weights],
        "iterations": res.iterations,
    }


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


GRID = [(mu, levels) for levels, mus in GRID_CASES.items() for mu in mus]
# The power family cannot go below purity 1/dim.
POWER = [(dim, mu) for dim in POWER_DIMS for mu in POWER_MUS if mu > 1.0 / dim]


def _recorded() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_every_case_is_recorded():
    record = _recorded()
    assert [(e["mu"], e["levels"]) for e in record["grid_refine"]] == GRID
    assert [(e["dim"], e["mu"]) for e in record["power_projection"]] == POWER


@pytest.mark.parametrize("levels", sorted(GRID_CASES))
def test_grid_refine_matches_record(levels):
    recorded = [e for e in _recorded()["grid_refine"] if e["levels"] == levels]
    assert [_grid_entry(e["mu"], levels) for e in recorded] == recorded


def test_power_projection_matches_record():
    recorded = _recorded()["power_projection"]
    assert [_power_entry(e["dim"], e["mu"]) for e in recorded] == recorded


def regenerate() -> None:
    record = {
        "grid_refine": [_grid_entry(mu, levels) for mu, levels in GRID],
        "power_projection": [_power_entry(dim, mu) for dim, mu in POWER],
    }
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_oracle_kernels.py --regen")
    regenerate()
