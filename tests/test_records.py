"""The package's records are NamedTuples.

Each keeps the field names, order, defaults and ``repr`` text it had as a
frozen dataclass, builds by keyword and by position, and refuses attribute
assignment.  The five records that check or normalise their fields do so in
the constructor, ``_make`` and ``_replace`` alike.
"""

from __future__ import annotations

import math
import re

import pytest

import purity_bounds
from purity_bounds import (
    BoundReport,
    DephasingTrajectory,
    FalsificationReport,
    FockDensityMatrix,
    GaussianState,
    InvalidStateError,
    InvariantViolation,
    MinimizationResult,
    ParabolicBarrier,
    PhiCurveRow,
    PhiValue,
    RectangularBarrier,
    SampledBarrier,
    SecondMoments,
    ThermalModel,
    TransparencyResult,
)
from purity_bounds.io import bound_report_dict

NAMES = ("heisenberg", "schrodinger_robertson", "purity")
GRID = [float(x) for x in range(8)]

# (record, its required fields by position, its defaults, its repr as a frozen dataclass)
RECORDS = [
    (PhiValue, (1.5, "rank-2"), {}, "PhiValue(value=1.5, piece='rank-2')"),
    (BoundReport,
     (dict.fromkeys(NAMES, 0.25), 0.25, 0.25, 1.0, PhiValue(1.0, "rank-2"),
      dict.fromkeys(NAMES, 0.0), dict.fromkeys(NAMES, True)), {},
     "BoundReport(bounds={'heisenberg': 0.25, 'schrodinger_robertson': 0.25, 'purity': 0.25}, "
     "product=0.25, sr_lhs=0.25, hbar_eff=1.0, phi=PhiValue(value=1.0, piece='rank-2'), "
     "slacks={'heisenberg': 0.0, 'schrodinger_robertson': 0.0, 'purity': 0.0}, "
     "flags={'heisenberg': True, 'schrodinger_robertson': True, 'purity': True})"),
    (SecondMoments, (0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 1.0, 0.0), {},
     "SecondMoments(mean_q=0.0, mean_p=0.0, sigma_qq=0.5, sigma_pp=0.5, sigma_qp=0.0, r=0.0, "
     "mu=1.0, linear_entropy=0.0)"),
    (GaussianState, (0.0, 0.0, 0.5, 0.5, 0.0), {"hbar": 1.0},
     "GaussianState(mean_q=0.0, mean_p=0.0, sigma_qq=0.5, sigma_pp=0.5, sigma_qp=0.0, hbar=1.0)"),
    (FockDensityMatrix, (2, (((1 + 0j), 0j), (0j, 0j))), {"hbar": 1.0, "mass": 1.0, "omega": 1.0},
     "FockDensityMatrix(dim=2, entries=(((1+0j), 0j), (0j, 0j)), hbar=1.0, mass=1.0, omega=1.0)"),
    (InvariantViolation, ("trace", 0.5, "x"), {},
     "InvariantViolation(name='trace', magnitude=0.5, detail='x')"),
    (MinimizationResult, (0.5, 0.5, 0.25, (0.5, 0.5), "grid-refine", 2), {},
     "MinimizationResult(mu_target=0.5, achieved_mu=0.5, min_product=0.25, "
     "optimal_weights=(0.5, 0.5), method='grid-refine', iterations=2)"),
    (FalsificationReport, (0.5, 6, 10, 10, 0, 0.1, 42), {"method": "gradient-aligned-sampling"},
     "FalsificationReport(mu=0.5, dim=6, samples=10, used=10, skipped=0, min_slack=0.1, seed=42, "
     "method='gradient-aligned-sampling')"),
    (PhiCurveRow, (0.5, 1.0, 1.0, 1.0, 0.0, 0.0, "grid-refine", 3), {},
     "PhiCurveRow(mu=0.5, phi_oracle=1.0, phi_exact=1.0, phi_app=1.0, rel_err_exact=0.0, "
     "rel_err_app=0.0, method='grid-refine', iterations=3)"),
    (ThermalModel, (), {"hbar": 1.0, "mass": 1.0, "omega": 1.0},
     "ThermalModel(hbar=1.0, mass=1.0, omega=1.0)"),
    (RectangularBarrier, (1.0, 2.0), {"mass": 1.0},
     "RectangularBarrier(v0=1.0, width=2.0, mass=1.0)"),
    (ParabolicBarrier, (1.0, 2.0), {"mass": 1.0},
     "ParabolicBarrier(v0=1.0, curvature=2.0, mass=1.0)"),
    (SampledBarrier, (GRID, [0.0] * 8), {"mass": 1.0},
     re.compile(r"SampledBarrier\(x=<memory at 0x[0-9a-f]+>, v=<memory at 0x[0-9a-f]+>, "
                r"mass=1\.0\)")),
    (TransparencyResult, (1.0, 0.0, 0.0, None, 1.0), {},
     "TransparencyResult(D=1.0, ln_D=0.0, action_integral=0.0, turning_points=None, "
     "hbar_eff_used=1.0)"),
    (DephasingTrajectory, ([0.0], {"t": [0.0]}), {},
     "DephasingTrajectory(times=[0.0], records={'t': [0.0]})"),
]
IDS = [record.__name__ for record, *_ in RECORDS]


def _same(a, b) -> bool:
    """Equal fields; a memoryview equals another of the same values."""
    return type(a) is type(b) and all(
        (x.tolist() == y.tolist()) if isinstance(x, memoryview) else x == y for x, y in zip(a, b))


def test_every_public_record_is_covered():
    public = (getattr(purity_bounds, name) for name in purity_bounds.__all__)
    records = {obj for obj in public if isinstance(obj, type) and issubclass(obj, tuple)}
    assert records == {record for record, *_ in RECORDS} and len(records) == 15


@pytest.mark.parametrize("record, required, defaults, text", RECORDS, ids=IDS)
def test_construction_by_position_and_keyword_with_defaults(record, required, defaults, text):
    assert record._field_defaults == defaults
    built = record(*required)
    assert type(built) is record
    assert _same(built, record(*required, *defaults.values()))
    assert _same(built, record(**dict(zip(record._fields, required)), **defaults))
    assert _same(built, record._make([*required, *defaults.values()]))
    with pytest.raises(TypeError):
        record(*required, *defaults.values(), None)


@pytest.mark.parametrize("record, required, defaults, text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_text(record, required, defaults, text):
    if isinstance(text, re.Pattern):
        assert text.fullmatch(repr(record(*required)))
    else:
        assert repr(record(*required)) == text


@pytest.mark.parametrize("record, required, defaults, text", RECORDS, ids=IDS)
def test_attribute_assignment_raises(record, required, defaults, text):
    built = record(*required)
    with pytest.raises(AttributeError):
        setattr(built, record._fields[0], getattr(built, record._fields[0]))
    with pytest.raises(AttributeError):
        built.not_a_field = 1.0
    with pytest.raises(AttributeError):
        delattr(built, record._fields[-1])


# (record, its required fields, a change that _replace and the constructor reject)
INVALID = [
    (FockDensityMatrix, (2, [[1, 0], [0, 0]]), {"entries": [[1, 0]]}, InvalidStateError),
    (RectangularBarrier, (1.0, 1.0), {"v0": -1.0}, ValueError),
    (ParabolicBarrier, (1.0, 1.0), {"curvature": math.nan}, ValueError),
    (SampledBarrier, (GRID, [0.0] * 8), {"x": GRID[::-1]}, ValueError),
    (SampledBarrier, (GRID, [0.0] * 8), {"mass": 0.0}, ValueError),
    (ThermalModel, (), {"omega": math.inf}, ValueError),
    (ThermalModel, (), {"hbar": 1e300, "omega": 1e300}, ValueError),
]


@pytest.mark.parametrize("record, required, change, error", INVALID,
                         ids=[f"{r.__name__}-{'-'.join(c)}" for r, _, c, _ in INVALID])
def test_constructor_make_and_replace_reject_a_bad_value(record, required, change, error):
    valid = record(*required)
    fields = {**valid._asdict(), **change}
    with pytest.raises(error):
        record(**fields)
    with pytest.raises(error):
        record._make(fields.values())
    with pytest.raises(error):
        valid._replace(**change)


def test_fock_entries_become_tuples_of_complex_on_every_path():
    rho = FockDensityMatrix(2, [[1, 0], [0, 0]])
    for built in (rho, rho._replace(entries=[[0, 0], [0, 1]]),
                  FockDensityMatrix._make([2, [[0, 0], [0, 1]]])):
        assert type(built.entries) is tuple
        assert all(type(row) is tuple and all(type(x) is complex for x in row)
                   for row in built.entries)
    assert rho._replace(entries=[[0, 0], [0, 1]]).populations() == (0.0, 1.0)
    assert rho._replace(hbar=2.0) == FockDensityMatrix(2, rho.entries, hbar=2.0)


def test_sampled_grids_become_read_only_copies_on_every_path():
    x, v = list(GRID), [0.0] * 8
    barrier = SampledBarrier(x, v)
    for built in (barrier, barrier._replace(v=[1.0] * 8), barrier._replace(mass=2.0)):
        for grid in (built.x, built.v):
            assert isinstance(grid, memoryview) and grid.readonly and grid.format == "d"
    assert barrier._replace(v=[1.0] * 8).v.tolist() == [1.0] * 8
    assert barrier._replace(mass=2.0).x.tolist() == GRID
    x[0] = -1.0
    assert barrier.x[0] == 0.0


def test_replace_of_a_validated_record_names_unknown_fields():
    with pytest.raises(ValueError, match="unexpected field"):
        RectangularBarrier(1.0, 1.0)._replace(height=2.0)


def test_bound_report_dict_nests_phi():
    report = BoundReport(*RECORDS[1][1])
    rendered = bound_report_dict(report)
    assert list(rendered) == list(BoundReport._fields)
    assert rendered["phi"] == {"value": 1.0, "piece": "rank-2"}
    assert rendered["bounds"] is report.bounds
