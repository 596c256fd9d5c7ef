import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from purity_bounds import (
    FockDensityMatrix,
    GaussianState,
    ParabolicBarrier,
    RectangularBarrier,
    SampledBarrier,
    ThermalModel,
    pure_state_density,
    run_trajectory,
    thermal_sweep,
    transparency_vs_purity,
    transparency_vs_temperature,
)
from purity_bounds.cli import main
from purity_bounds.io import (
    ORACLE_COLUMNS,
    barrier_from_dict,
    format_number,
    load_barrier,
    load_state,
    render_csv,
    render_json,
    render_table,
    state_from_dict,
)

README = Path(__file__).resolve().parent.parent / "README.md"
RECT = RectangularBarrier(v0=1.0, width=1.0, mass=1.0)
TUNNEL = "`thermal --barrier` and `tunnel`"

GAUSSIAN_DOC = {
    "type": "gaussian",
    "hbar": 1.0,
    "mean": [0.0, 0.0],
    "cov": {"qq": 0.5, "pp": 0.5, "qp": 0.0},
}

FOCK_DOC = {
    "type": "fock",
    "hbar": 1.0,
    "mass": 1.0,
    "omega": 1.0,
    "dim": 2,
    "re": [[0.5, 0.5], [0.5, 0.5]],
    "im": [[0.0, 0.0], [0.0, 0.0]],
}


class TestNumberFormatting:
    def test_nine_significant_digits(self):
        assert format_number(0.1353352832366127) == "0.135335283"

    def test_scientific_below_threshold(self):
        assert format_number(4.539992976e-05) == "4.53999298e-05"
        assert format_number(-3.2e-7) == "-3.20000000e-07"

    def test_zero_and_integers_and_strings(self):
        assert format_number(0.0) == "0"
        assert format_number(7) == "7"
        assert format_number("rank-2") == "rank-2"

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_raises(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            format_number(value)

    def test_boundary_uses_plain_notation(self):
        assert format_number(1e-4) == "0.0001"


class TestStateFiles:
    def test_gaussian_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(GAUSSIAN_DOC))
        state = load_state(str(path))
        assert isinstance(state, GaussianState)
        assert state.sigma_qq == 0.5
        assert state.hbar == 1.0

    def test_fock_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(FOCK_DOC))
        state = load_state(str(path))
        assert isinstance(state, FockDensityMatrix)
        np.testing.assert_allclose(state.entries, [[0.5, 0.5], [0.5, 0.5]])

    def test_unknown_field_rejected(self):
        doc = dict(GAUSSIAN_DOC, comment="hello")
        with pytest.raises(ValueError, match="unknown field.*comment"):
            state_from_dict(doc)

    def test_missing_field_rejected(self):
        doc = dict(GAUSSIAN_DOC)
        del doc["hbar"]
        with pytest.raises(ValueError, match="missing field.*hbar"):
            state_from_dict(doc)

    def test_unknown_cov_key_rejected(self):
        doc = json.loads(json.dumps(GAUSSIAN_DOC))
        doc["cov"]["pq"] = 0.1
        with pytest.raises(ValueError, match="unknown field"):
            state_from_dict(doc)

    def test_bad_mean_shape(self):
        doc = dict(GAUSSIAN_DOC, mean=[0.0])
        with pytest.raises(ValueError, match="mean"):
            state_from_dict(doc)

    def test_non_numeric_value(self):
        doc = json.loads(json.dumps(FOCK_DOC))
        doc["hbar"] = "one"
        with pytest.raises(ValueError, match="hbar"):
            state_from_dict(doc)

    def test_dim_mismatch(self):
        doc = json.loads(json.dumps(FOCK_DOC))
        doc["dim"] = 3
        with pytest.raises(ValueError, match="3x3"):
            state_from_dict(doc)

    @pytest.mark.parametrize("field, rows, where", [
        ("re", [["0.5", 0], [0, "0.5"]], "re[0][0]"),
        ("im", [[0, 0], [0, True]], "im[1][1]"),
        ("re", [[0.5, 0.5], [0.5]], "re"),
        ("im", [[0, 0], 0], "im"),
        ("re", [[0.5, 0.5]], "re"),
    ])
    def test_matrix_entries_are_numbers_in_square_rows(self, field, rows, where):
        with pytest.raises(ValueError, match=re.escape(f"field '{where}' must be")):
            state_from_dict(dict(FOCK_DOC, **{field: rows}))

    def test_matrix_entries_become_complex_rows(self):
        state = state_from_dict(dict(FOCK_DOC, im=[[0, -0.25], [0.25, 0]]))
        assert state.entries == ((0.5 + 0j, 0.5 - 0.25j), (0.5 + 0.25j, 0.5 + 0j))

    def test_unknown_type(self):
        with pytest.raises(ValueError, match="unknown state type"):
            state_from_dict({"type": "wigner"})

    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="broken.json"):
            load_state(str(path))


class TestBarrierFiles:
    def test_rectangular(self, tmp_path):
        path = tmp_path / "rect.json"
        path.write_text(json.dumps({"shape": "rectangular", "v0": 1.0, "width": 1.0, "mass": 1.0}))
        barrier = load_barrier(str(path))
        assert isinstance(barrier, RectangularBarrier)

    def test_parabolic(self):
        barrier = barrier_from_dict(
            {"shape": "parabolic", "v0": 1.0, "curvature": 2.0, "mass": 1.0}
        )
        assert isinstance(barrier, ParabolicBarrier)

    def test_sampled(self):
        barrier = barrier_from_dict(
            {"shape": "sampled", "x": list(np.linspace(0, 1, 16)), "v": [1.0] * 16, "mass": 1.0}
        )
        assert isinstance(barrier, SampledBarrier)

    @pytest.mark.parametrize("field, values, where", [
        ("x", [str(k) for k in range(16)], "x[0]"),
        ("v", [1.0] * 15 + [False], "v[15]"),
        ("x", "0123456789abcdef", "x"),
    ])
    def test_grid_entries_are_numbers(self, field, values, where):
        doc = {"shape": "sampled", "x": list(range(16)), "v": [1.0] * 16, "mass": 1.0}
        with pytest.raises(ValueError, match=re.escape(f"field '{where}' must be")):
            barrier_from_dict({**doc, field: values})

    def test_unknown_shape(self):
        with pytest.raises(ValueError, match="unknown barrier shape"):
            barrier_from_dict({"shape": "triangular", "v0": 1.0})

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown field"):
            barrier_from_dict(
                {"shape": "rectangular", "v0": 1.0, "width": 1.0, "mass": 1.0, "height": 2.0}
            )

    def test_invalid_geometry_surfaces_as_value_error(self):
        with pytest.raises(ValueError):
            barrier_from_dict({"shape": "rectangular", "v0": -1.0, "width": 1.0, "mass": 1.0})


class TestRendering:
    def test_csv_layout(self):
        text = render_csv(["a", "b"], [[1.0, 0.5], [2.0, 0.25]])
        assert text == "a,b\n1,0.5\n2,0.25\n"

    def test_table_layout(self):
        text = render_table({"a": [1.0, 2.0], "b": [0.5, 0.25]})
        assert text == "a,b\n1,0.5\n2,0.25\n"

    def test_column_contracts_are_fixed(self):
        assert ORACLE_COLUMNS == readme_header("`oracle`")

    def test_json_carries_schema_version(self):
        doc = json.loads(render_json({"x": 1}))
        assert doc["schema_version"] == 2
        assert doc["x"] == 1


def readme_header(producer: str) -> list[str]:
    """The header that README's "CSV column contracts" gives for ``producer``."""
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith(f"- {producer}"):
            return line.rsplit("`", 2)[1].split(", ")
    raise AssertionError(f"README has no column contract for {producer}")


def assert_table(table: dict[str, list], producer: str) -> None:
    assert list(table) == readme_header(producer)
    assert len({len(column) for column in table.values()}) == 1


class TestTableContracts:
    """Each sweep's column table carries exactly its README header, in order."""

    def test_purity_sweep(self):
        assert_table(transparency_vs_purity(RECT, 0.5, 1.0, 0.2, [0.9, 0.5, 0.3]), TUNNEL)

    def test_temperature_sweep(self):
        model = ThermalModel()
        for mode in ("exact", "asymptote"):
            table = transparency_vs_temperature(RECT, 0.5, model, [50.0, 500.0],
                                                phi_mode=mode)
            assert_table(table, TUNNEL)

    def test_thermal_sweep(self):
        assert_table(thermal_sweep(ThermalModel(), 0.5, 5.0, 3), "`thermal` (plain)")

    def test_trajectory(self):
        trajectory = run_trajectory(pure_state_density([1.0, 1.0], dim=4), 1.0, 2.0, 3,
                                    RECT, 0.5)
        assert_table(trajectory.records, "`decohere`")

    def test_phi_curve(self, capsys):
        assert main(["phi-curve", "--mu-from", "0.4", "--mu-to", "1", "--steps", "3"]) == 0
        lines = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert lines[0] == readme_header("`phi-curve`")
        assert [len(line) for line in lines] == [4] * 4

    def test_empty_purity_grid_renders_the_header_only(self):
        table = transparency_vs_purity(RECT, 0.5, 1.0, 0.0, [])
        assert render_table(table) == ",".join(readme_header(TUNNEL)) + "\n"
