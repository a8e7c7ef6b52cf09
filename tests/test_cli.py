"""Command-line contract: validation, outputs, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grwlab import cli
from grwlab.cli import (
    _format_column,
    dispatch,
    list_scenarios,
    main,
    resolve_config,
    run,
    write_outputs,
)
from grwlab.collapse import KERNELS
from grwlab.errors import ConfigError
from grwlab.scenarios import SCENARIOS, ScenarioResult, Series

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return str(path)


# Configs that once got past resolve_config (exit 2, or exit 0 with failed
# verdicts), as YAML text: PyYAML reads 1e300 as a string, so the floats use
# YAML 1.1 syntax.  CI reads these texts from here and runs them through the
# console script.
OUT_OF_BOUNDS_CONFIGS = {
    "dt_list_1e300": (
        "scenario: hegerfeldt_regrowth\nparams: {dt_list: [0.0, 1.0e+300]}\n", "params.dt_list"
    ),
    # a repeated time, which would drop a row of tail_mass_by_dt; -0.0 is 0.0
    "dt_list_repeated": (
        "scenario: hegerfeldt_regrowth\nparams: {dt_list: [0.0, 0.001, 0.001, 0.002]}\n",
        "params.dt_list",
    ),
    "dt_list_signed_zero": (
        "scenario: hegerfeldt_regrowth\nparams: {dt_list: [0.0, -0.0, 0.001]}\n",
        "params.dt_list",
    ),
    "box_2e-300": (
        "scenario: hegerfeldt_regrowth\ngrid: {x_min: -1.0e-300, x_max: 1.0e-300}\n",
        "grid.x_min/x_max",
    ),
    "window_100": ("scenario: hegerfeldt_regrowth\nparams: {window: 100}\n", "params.window"),
    "marble_box_1e-300": (
        "scenario: marble_in_box\nparams: {box: [0.0, 1.0e-300]}\n", "params.box"
    ),
    "marble_box_1e300": (
        "scenario: marble_in_box\nparams: {box: [0.0, 1.0e+300]}\n", "params.box"
    ),
    "n_points_1e8": (
        "scenario: wallace_displacement\ngrid: {n_points: 100000000}\n", "grid.n_points"
    ),
    # a physics field or a grid that the scenario does not read
    "billiard_kernel": (
        "scenario: billiard_collision\nphysics: {kernel: ideal}\n", "physics.kernel"
    ),
    "chain_grid": ("scenario: measurement_chain\ngrid: {n_points: 8}\n", "config.grid"),
    # the packet at 0 lies outside the box
    "dilemma_box_1_40": (
        "scenario: kernel_dilemma\ngrid: {x_min: 1.0, x_max: 40.0, n_points: 4096}\n",
        "grid.x_min/x_max",
    ),
    # the regrown packets spread over the box edges
    "dilemma_regrow_dt_1e6": (
        "scenario: kernel_dilemma\nparams: {regrow_dt: 1.0e+6}\n", "params.regrow_dt"
    ),
    # the render grid's spacing is below the float spacing of its coordinates
    "marble_box_far": (
        "scenario: marble_in_box\nparams: {box: [1.0e+17, 1.0000000000000004e+17]}\n",
        "params.box",
    ),
    # a physics field that the configured kernel does not read
    "chain_window_gaussian": (
        "scenario: measurement_chain\nphysics: {window: 5.0}\n", "physics.window"
    ),
    "marble_sigma_ideal": (
        "scenario: marble_in_box\nphysics: {kernel: ideal, sigma: 3.0}\n", "physics.sigma"
    ),
    # magnitudes whose squares overflow or underflow
    "chain_sigma_1e300": (
        "scenario: measurement_chain\nphysics: {sigma: 1.0e+300}\n", "physics.sigma"
    ),
    "chain_sigma_1e-300": (
        "scenario: measurement_chain\nphysics: {lam: 2, sigma: 1.0e-300}\n"
        "params: {separation: 8.0}\n",
        "physics.sigma",
    ),
    "wallace_sigma_1e300": (
        "scenario: wallace_displacement\nphysics: {sigma: 1.0e+300}\n", "physics.sigma"
    ),
    "wallace_sigma_1e-300": (
        "scenario: wallace_displacement\nphysics: {sigma: 1.0e-300}\n", "physics.sigma"
    ),
    "wallace_s_1e-300": ("scenario: wallace_displacement\nparams: {s: 1.0e-300}\n", "params.s"),
    "wallace_sigma_1e-305_long_grid": (
        "scenario: wallace_displacement\nunits: si\nphysics: {sigma: 1.0e-305}\n"
        "params: {s: 1.0e-7}\ngrid: {x_min: -3.2e+296, x_max: 2}\n",
        "physics.sigma",
    ),
    # the run's exact edge check: the truncated packet's short wavelengths
    # reach the box edges, though the free packet keeps 5 widths inside
    "regrowth_dt_1": (
        "scenario: hegerfeldt_regrowth\nparams: {dt_list: [0.0, 1.0]}\n", "grid.x_min/x_max"
    ),
    "regrowth_dt_1_box_8": (
        "scenario: hegerfeldt_regrowth\ngrid: {x_min: -8.0, x_max: 8.0, n_points: 512}\n"
        "params: {window: 1.0, dt_list: [0.0, 1.0]}\n",
        "grid.x_min/x_max",
    ),
    "dilemma_window_0.4": (
        "scenario: kernel_dilemma\nphysics: {window: 0.4}\n", "grid.x_min/x_max"
    ),
    # the tail packet at y = 1e-7 is inside the box, the centre x = 0 is not
    # 5 widths inside it
    "wallace_x_max_1e-6": (
        "scenario: wallace_displacement\nparams: {y: 1.0e-7}\ngrid: {x_max: 1.0e-6}\n",
        "params.x",
    ),
    # the compact hit's window holds no grid point
    "dilemma_window_0.001": (
        "scenario: kernel_dilemma\nphysics: {window: 0.001}\ngrid: {x_min: -16.005}\n",
        "grid.n_points",
    ),
    # the Gaussian column's structure window around the far packet's centre
    # underflows, though the displaced lobe peak does not
    "dilemma_separation_32": (
        "scenario: kernel_dilemma\nparams: {separation: 32.0, packet_width: 0.9}\n"
        "grid: {x_min: -16.0, x_max: 48.0, n_points: 4096}\n",
        "params.separation",
    ),
    # a falsy section that is not a mapping; only a missing or null one is empty
    "params_empty_list": ("scenario: measurement_chain\nparams: []\n", "params"),
    "params_zero": ("scenario: billiard_collision\nparams: 0\n", "params"),
    "physics_false": ("scenario: marble_in_box\nphysics: false\n", "physics"),
    "grid_empty_string": ("scenario: kernel_dilemma\ngrid: ''\n", "grid"),
}

# Configs that once exited 2 and now run with every verdict true, except the
# statistical Born check.  CI reads these texts from here and runs them through
# the console script.
EXIT_ZERO_CONFIGS = {
    # physics.window follows the configured sigma, not the unit mode's
    "dilemma_sigma_4": "scenario: kernel_dilemma\nphysics: {sigma: 4.0}\n",
    # branch 0 has zero weight and is never selected
    "chain_zero_weight_branch": (
        "scenario: measurement_chain\nparams: {a: 0.0, b: 1.0, separation: 100.0}\n"
    ),
    # y sigma^2 overflows; the law is written as a step from y toward x
    "wallace_sigma_1e150": (
        "scenario: wallace_displacement\nphysics: {sigma: 1.0e+150}\nparams: {y: 1.0e+150}\n"
    ),
    # a narrow packet's dimensional norm^2 lies far below 1e-30
    "wallace_sigma_1e-31": "scenario: wallace_displacement\nphysics: {sigma: 1.0e-31}\n",
    "wallace_sigma_1e-150": "scenario: wallace_displacement\nphysics: {sigma: 1.0e-150}\n",
    "regrowth_si_sigma_1e-32": (
        "scenario: hegerfeldt_regrowth\nunits: si\nphysics: {sigma: 1.0e-32}\n"
    ),
}


@pytest.fixture
def chain_config(tmp_path):
    return write_config(
        tmp_path / "chain.yaml",
        {
            "scenario": "measurement_chain",
            "seed": 42,
            "units": "scaled",
            "out_dir": str(tmp_path / "out"),
            "physics": {"lam": 0.001, "sigma": 1.0},
            "params": {"n_pointer": 1000, "n_trials": 300},
        },
    )


class TestRun:
    def test_valid_config_exits_zero_and_writes_summary(self, chain_config, tmp_path):
        assert run(chain_config) == 0
        summary_path = tmp_path / "out" / "summary.measurement_chain.json"
        assert summary_path.exists()
        payload = json.loads(summary_path.read_text())
        assert "selection_frequency_0" in payload["result"]["summary"]
        assert payload["artifact"]["name"] == "grwlab"
        assert payload["config"]["seed"] == 42
        assert (tmp_path / "out" / "series.trials.csv").exists()

    def test_bad_q_exits_one_with_range_message(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "bad.yaml",
            {"scenario": "marble_in_box", "params": {"q": 0.7}},
        )
        assert run(config) == 1
        assert "(0, 0.5)" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "bad.yaml",
            {"scenario": "marble_in_box", "params": {"q": 0.1, "banana": 1}},
        )
        assert run(config) == 1
        assert "banana" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path):
        assert run(str(tmp_path / "nope.yaml")) == 1

    def test_runtime_error_exits_two(self, tmp_path, capsys):
        # a valid config whose output directory cannot be made: its parent
        # is a regular file
        (tmp_path / "file").write_text("")
        config = write_config(
            tmp_path / "billiard.yaml",
            {"scenario": "billiard_collision", "out_dir": str(tmp_path / "file" / "out")},
        )
        assert run(config) == 2
        assert capsys.readouterr().err.startswith("runtime error: ")

    @pytest.mark.parametrize("units", ["scaled", "si"])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_bare_config_runs_and_passes(self, scenario, units, tmp_path):
        # every default resolves to a run that exits 0; only the Born
        # frequency is a statistical check that a seed may fail
        config = write_config(tmp_path / "bare.yaml", {"scenario": scenario, "units": units})
        assert run(config, out_override=str(tmp_path / "out")) == 0
        payload = json.loads((tmp_path / "out" / f"summary.{scenario}.json").read_text())
        assert set(payload["result"]) == {"name", "summary", "verdicts"}
        failed = {key for key, ok in payload["result"]["verdicts"].items() if not ok}
        assert failed <= {"born_frequency_within_3sigma"}

    def test_same_config_and_seed_byte_identical(self, chain_config, tmp_path):
        assert run(chain_config) == 0
        out = tmp_path / "out"
        first = {
            p.name: p.read_bytes() for p in out.iterdir()
        }
        assert run(chain_config) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second
        assert set(first) == {"summary.measurement_chain.json", "series.trials.csv"}

    def test_seed_override_changes_results(self, chain_config, tmp_path):
        assert run(chain_config) == 0
        baseline = (tmp_path / "out" / "series.trials.csv").read_bytes()
        assert run(chain_config, seed_override=43) == 0
        assert (tmp_path / "out" / "series.trials.csv").read_bytes() != baseline

    def test_trial_series_cells_parse_as_numbers(self, chain_config, tmp_path):
        assert run(chain_config) == 0
        lines = (tmp_path / "out" / "series.trials.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[3:]]
        assert len(rows) == 300
        for trial, (index, time, branch, tail) in enumerate(rows):
            assert int(index) == trial
            assert float(time) >= 0.0
            assert branch in ("0", "1")
            assert 0.0 < float(tail) < 1.0

    @pytest.mark.parametrize(
        "scenario, section, key, value",
        [
            ("measurement_chain", "params", "separation", math.nan),
            ("measurement_chain", "params", "a", math.nan),
            ("wallace_displacement", "grid", "x_min", math.nan),
            ("marble_in_box", "params", "box", [-math.inf, 2.0]),
            ("hegerfeldt_regrowth", "params", "dt_list", [math.inf]),
        ],
    )
    def test_non_finite_value_exits_one_naming_field(
        self, tmp_path, capsys, scenario, section, key, value
    ):
        config = write_config(
            tmp_path / "nonfinite.yaml",
            {"scenario": scenario, "out_dir": str(tmp_path / "out"), section: {key: value}},
        )
        assert run(config) == 1
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "scenario, sections, field",
        [
            ("kernel_dilemma", {"physics": {"window": 3.0}}, "physics.window"),
            ("kernel_dilemma", {"physics": {"window": 2.0}}, "physics.window"),
            ("kernel_dilemma", {"params": {"separation": 1.0}}, "physics.window"),
            # y lies outside the box, and farther than half its length from x
            ("wallace_displacement", {"params": {"y": 100}}, "params.x/y"),
            ("wallace_displacement", {"params": {"x": -40, "y": -30}}, "params.x"),
            ("wallace_displacement", {"params": {"x": -30, "y": 30}}, "params.x/y"),
            # the hit-suppressed tail lobe underflows to exactly 0
            (
                "wallace_displacement",
                {
                    "physics": {"sigma": 0.5},
                    "grid": {"x_min": -32, "x_max": 32, "n_points": 4096},
                    "params": {"x": 0, "y": 31, "s": 0.5},
                },
                "params.x/y",
            ),
            # the second packet lies outside the default (-16, 16) box
            ("kernel_dilemma", {"params": {"separation": 40}}, "params.separation"),
            # the Gaussian hit's far lobe underflows to exactly 0
            (
                "kernel_dilemma",
                {
                    "grid": {"x_min": -100, "x_max": 100, "n_points": 8192},
                    "params": {"separation": 60},
                },
                "params.separation",
            ),
            # grids too coarse to hold the packet
            ("kernel_dilemma", {"grid": {"n_points": 2}}, "grid.n_points"),
            ("hegerfeldt_regrowth", {"grid": {"n_points": 4}}, "grid.n_points"),
            # below the magnitude bound, which keeps the device rate in [1e-150, 1e156]
            ("measurement_chain", {"physics": {"lam": 1.0e-320}}, "physics.lam"),
            # dx = 8 physics.sigma, and dx = 16 params.s
            ("wallace_displacement", {"grid": {"n_points": 8}}, "grid.n_points"),
            ("wallace_displacement", {"params": {"s": 0.001}}, "grid.n_points"),
            # no n_points up to the cap resolves the width: 2 length / width overflows
            (
                "wallace_displacement",
                {
                    "physics": {"sigma": 1e-150},
                    "params": {"s": 1e-7},
                    "grid": {"x_min": -3.2e296, "x_max": 2.0},
                },
                "grid.n_points",
            ),
            # the squared distance between the centres overflows
            (
                "wallace_displacement",
                {"grid": {"x_min": -1e200, "x_max": 1e200}, "params": {"y": 1e199}},
                "params.x/y",
            ),
            # y lies inside the box, but not 5 widths (params.s) inside it
            ("wallace_displacement", {"params": {"y": 30}}, "params.y"),
        ],
    )
    def test_cross_field_violation_exits_one_naming_field(
        self, tmp_path, capsys, scenario, sections, field
    ):
        config = write_config(
            tmp_path / "cross.yaml",
            {"scenario": scenario, "out_dir": str(tmp_path / "out"), **sections},
        )
        assert run(config) == 1
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, field", OUT_OF_BOUNDS_CONFIGS.values(), ids=OUT_OF_BOUNDS_CONFIGS.keys()
    )
    def test_out_of_bounds_config_exits_one_naming_field(self, tmp_path, capsys, text, field):
        config = tmp_path / "bounds.yaml"
        config.write_text(text)
        assert run(str(config), out_override=str(tmp_path / "out")) == 1
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # the rejections that no other test reaches, run without --out; the top
    # level's message names the config file
    @pytest.mark.parametrize(
        "text, message",
        [
            ("scenario: measurement_chain\nphysics: {kernel: gauss}\n", "physics.kernel:"),
            ("- scenario: billiard_collision\n", "config.yaml: top level must be a mapping"),
            ("scenario: billiard_collision\nunits: cgs\n", "units:"),
            ("scenario: billiard_collision\nseed: -1\n", "seed:"),
            ("scenario: billiard_collision\nseed: 1.5\n", "seed:"),
            ("scenario: billiard_collision\nout_dir: [a]\n", "out_dir:"),
            ('scenario: billiard_collision\nout_dir: ""\n', "out_dir:"),
            ("scenario: kernel_dilemma\ngrid: {x_min: 16.0, x_max: -16.0}\n", "grid.x_max:"),
            ("scenario: kernel_dilemma\ngrid: {n_points: 2048.0}\n", "grid.n_points:"),
            ("scenario: billiard_collision\nparams: [1]\n", "params:"),
            ("scenario: wallace_displacement\nparams: {x: 1.0, y: 1.0}\n", "params.x/y:"),
        ],
    )
    def test_rejection_exits_one_naming_field(self, tmp_path, monkeypatch, capsys, text, message):
        monkeypatch.chdir(tmp_path)
        Path("config.yaml").write_text(text)
        assert run("config.yaml") == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert list(tmp_path.iterdir()) == [tmp_path / "config.yaml"]

    @pytest.mark.parametrize("text", EXIT_ZERO_CONFIGS.values(), ids=EXIT_ZERO_CONFIGS.keys())
    def test_once_failing_config_exits_zero_and_passes(self, tmp_path, text):
        config = tmp_path / "config.yaml"
        config.write_text(text)
        assert run(str(config), out_override=str(tmp_path / "out")) == 0
        scenario = yaml.safe_load(text)["scenario"]
        payload = json.loads((tmp_path / "out" / f"summary.{scenario}.json").read_text())
        failed = {key for key, ok in payload["result"]["verdicts"].items() if not ok}
        assert failed <= {"born_frequency_within_3sigma"}

    # the spans at their bounds, and max(|lo|, |hi|) = 1e8 span
    @pytest.mark.parametrize(
        "box", [[0.0, 1e-150], [-1e150, 0.0], [399999996.0, 4e8], [-4e14, -399999996e6]]
    )
    def test_marble_box_at_the_span_bounds_passes(self, tmp_path, box):
        config = write_config(
            tmp_path / "marble.yaml",
            {"scenario": "marble_in_box", "out_dir": str(tmp_path / "out"), "params": {"box": box}},
        )
        assert run(config) == 0
        summary = json.loads((tmp_path / "out" / "summary.marble_in_box.json").read_text())
        assert all(summary["result"]["verdicts"].values())

    @pytest.mark.parametrize("scenario", ["measurement_chain", "marble_in_box"])
    def test_compact_window_is_read_and_recorded(self, tmp_path, scenario):
        config = write_config(
            tmp_path / "compact.yaml",
            {
                "scenario": scenario,
                "out_dir": str(tmp_path / "out"),
                "physics": {"kernel": "compact_support", "window": 2.0},
            },
        )
        assert run(config) == 0
        payload = json.loads((tmp_path / "out" / f"summary.{scenario}.json").read_text())
        assert payload["config"]["physics"]["window"] == 2.0

    def test_summary_is_strict_json_when_a_weight_vanishes(self, tmp_path):
        # q = |b|^2 = 0 leaves no finite dominance ratio; JSON has no Infinity
        config = write_config(
            tmp_path / "billiard.yaml",
            {
                "scenario": "billiard_collision",
                "out_dir": str(tmp_path / "out"),
                "params": {"a": 1.0, "b": 0.0},
            },
        )
        assert run(config) == 0
        text = (tmp_path / "out" / "summary.billiard_collision.json").read_text()
        summary = json.loads(text, parse_constant=pytest.fail)["result"]["summary"]
        assert summary["dominance_ratio"] is None
        assert summary["dominance_assumed_ok"] is True

    def test_series_header_names_units_and_coordinate(self, tmp_path):
        config = write_config(
            tmp_path / "marble.yaml",
            {
                "scenario": "marble_in_box",
                "out_dir": str(tmp_path / "out"),
                "params": {"inside_weight": 0.95, "q": 0.1},
            },
        )
        assert run(config) == 0
        lines = (tmp_path / "out" / "series.matter_density.csv").read_text().splitlines()
        assert lines[0].startswith("# grwlab ")
        assert lines[1].startswith("# config: ")
        assert lines[2].split(",")[0] == "x [L]"
        assert "matter_density [M/L]" in lines[2]

    def test_si_units_label_headers(self, tmp_path):
        config = write_config(
            tmp_path / "marble_si.yaml",
            {
                "scenario": "marble_in_box",
                "units": "si",
                "out_dir": str(tmp_path / "out_si"),
                "params": {"inside_weight": 0.95, "q": 0.1},
            },
        )
        assert run(config) == 0
        header = (
            (tmp_path / "out_si" / "series.matter_density.csv").read_text().splitlines()[2]
        )
        assert header.split(",")[0] == "x [m]"
        assert "matter_density [kg/m]" in header


def test_numpy_float_cells_written_as_plain_floats():
    assert _format_column(np.array([np.float64(0.1)])) == ["0.1"]
    assert _format_column(np.array([0.1])) == ["0.1"]
    assert _format_column(np.array([3])) == ["3"]


def per_cell_lines(data) -> list[str]:
    """The per-cell writer that column-wise formatting replaced: ``repr`` of
    every float cell, ``str`` of any other."""
    return [
        ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
        for row in zip(*data)
    ]


NAN_WITH_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
# -0.0 beside 0.0, NaNs of either sign and another payload, infinities,
# subnormals
SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, -math.nan, NAN_WITH_PAYLOAD, math.inf, -math.inf, 5e-324, -2.5e-310, 0.1
]
CELLS = {
    "float": (st.floats() | st.sampled_from(SPECIAL_FLOATS), np.float64),
    "int": (st.integers(-(2**63), 2**63 - 1), np.int64),
    "label": (st.text("01_ab", min_size=1, max_size=4), str),
}


@st.composite
def tables(draw):
    """Float, int and label columns of one length, each repeating a few values."""
    n_rows = draw(st.integers(0, 20))
    data = []
    for kind in draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=4)):
        values, dtype = CELLS[kind]
        pool = draw(st.lists(values, min_size=1, max_size=5))
        cells = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
        data.append(np.array(cells, dtype=dtype))
    return tuple(data)


def write_table(table, out: str) -> Path:
    """Write ``table`` as series ``t`` into ``out``; returns the CSV's path."""
    columns = [(f"c{i}", "fraction") for i in range(len(table))]
    result = ScenarioResult(name="table", series={"t": Series(columns, table)})
    return write_outputs(result, {"units": "scaled"}, Path(out))[1]


@settings(deadline=None)
@given(table=tables())
@example(table=(np.array([0.0, -0.0, 0.0, -0.0]), np.array([3, 3, -1, 3])))
# blocks of 3 rows: no rows, an exact multiple, a multiple + 1, and 0.0 and
# -0.0 only ever in different blocks
@example(table=(np.array([], dtype=np.float64), np.array([], dtype=str)))
@example(table=(np.array([1, 2, 3, 1, 2, 3]), np.array(["a", "b", "a", "b", "a", "b"])))
@example(table=(np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.1]), np.arange(7)))
@example(table=(np.array([0.0, 0.0, 0.0, -0.0, -0.0, -0.0, 0.0]),))
def test_series_csv_matches_per_cell_writer(table):
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as out:
        patch.setattr(cli, "_BLOCK_ROWS", 3)
        lines = write_table(table, out).read_text().split("\n")
    assert lines[2] == ",".join(f"c{i} [1]" for i in range(len(table)))
    assert lines[3:] == per_cell_lines(table) + [""]


def test_series_writer_memory_does_not_grow_with_rows():
    def write_peak(n_rows):
        # few distinct values, so the time goes to the rows and not to repr
        table = (
            np.arange(n_rows) % 7,
            np.arange(n_rows) % 5 * 0.1,
            np.asarray(["0", "1"])[np.arange(n_rows) % 2],
            np.arange(n_rows) % 3 - 0.0,
        )
        with tempfile.TemporaryDirectory() as out:
            tracemalloc.start()
            try:
                write_table(table, out)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    write_peak(1000)  # numpy's first-call set-up is not the writer's
    # Cell text held for every row would add at least a list slot (8 bytes)
    # a row, 640 KB here; numpy's small-buffer cache moves a few KiB.
    assert write_peak(10**5) < write_peak(2 * 10**4) + 32 * 1024


def test_series_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError, match="columns of one length"):
        Series([("a", "count"), ("b", "count")], (np.arange(3), np.arange(4)))


class TestResolveConfig:
    def test_defaults_filled(self):
        config = resolve_config({"scenario": "kernel_dilemma"})
        assert config["units"] == "scaled"
        assert config["physics"]["sigma"] == 1.0
        assert config["params"]["separation"] == 4.0
        assert config["grid"]["n_points"] == 2048

    def test_units_override(self):
        config = resolve_config({"scenario": "measurement_chain"}, units_override="si")
        assert config["units"] == "si"
        assert config["physics"]["lam"] == 1e-16
        assert config["physics"]["sigma"] == 1e-5

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"scenario": "teleportation"})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"scenario": "billiard_collision", "mystery": 1})

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config(
                {"scenario": "measurement_chain", "params": {"a": 1.0, "b": 1.0}}
            )

    @pytest.mark.parametrize("key, value", [("n_pointer", 10**10), ("n_trials", 10**12)])
    def test_ensemble_sizes_capped(self, key, value):
        # resolve only: the rejected sizes would ask for tens of GiB
        with pytest.raises(ConfigError, match=rf"^params\.{key}: must be in \[1, 10\^6\]"):
            resolve_config({"scenario": "measurement_chain", "params": {key: value}})

    def test_ensemble_sizes_at_the_caps_accepted(self):
        params = resolve_config(
            {"scenario": "measurement_chain", "params": {"n_pointer": 10**6, "n_trials": 10**6}}
        )["params"]
        assert (params["n_pointer"], params["n_trials"]) == (10**6, 10**6)

    @pytest.mark.parametrize(
        "lam, n_pointer", [(1.0e-150, 1), (1.0e150, 10**6)], ids=["slowest", "fastest"]
    )
    def test_device_rate_at_the_field_bounds_runs(self, lam, n_pointer):
        # the rate n_pointer * lam lies in [1e-150, 1e156], so the summed waits
        # of 10^6 trials, at most 10^6 * 53 ln 2 / rate, stay finite
        config = resolve_config(
            {
                "scenario": "measurement_chain",
                "physics": {"lam": lam},
                "params": {"n_pointer": n_pointer, "n_trials": 10**6},
            }
        )
        result = dispatch(config)
        for key in ("mean_first_hit_time", "expected_first_hit_time", "mean_tail_weight"):
            assert math.isfinite(result.summary[key])
        assert all(result.verdicts.values())

    def test_grid_points_capped(self):
        # resolve only: 10^8 points would ask for 1.6 GB per complex array
        with pytest.raises(ConfigError, match=r"^grid\.n_points: must be in \[2, 2\^20\]"):
            resolve_config({"scenario": "kernel_dilemma", "grid": {"n_points": 10**8}})

    def test_grid_points_at_the_cap_accepted(self):
        grid = resolve_config({"scenario": "kernel_dilemma", "grid": {"n_points": 2**20}})["grid"]
        assert grid["n_points"] == 2**20

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
    def test_load_config_matches_pure_python_parser(self, path):
        assert cli.load_config(path) == yaml.load(path.read_text(), Loader=yaml.SafeLoader)

    @pytest.mark.parametrize(
        "raw",
        [
            {"scenario": "kernel_dilemma", "physics": {"sigma": 4.0}},
            {
                "scenario": "measurement_chain",
                "physics": {"kernel": "compact_support", "sigma": 2.0},
            },
            {
                "scenario": "marble_in_box",
                "units": "si",
                "physics": {"kernel": "compact_support", "sigma": 3e-5},
            },
        ],
    )
    def test_window_defaults_to_the_configured_sigma(self, raw):
        physics = resolve_config(raw)["physics"]
        assert physics["window"] == physics["sigma"] == raw["physics"]["sigma"]

    def test_complex_amplitudes_accepted(self):
        config = resolve_config(
            {
                "scenario": "billiard_collision",
                "params": {"a": [0.6, 0.6], "b": [0.5291502622129181, 0.0]},
            }
        )
        a = complex(*config["params"]["a"])
        b = complex(*config["params"]["b"])
        assert abs(a) ** 2 + abs(b) ** 2 == pytest.approx(1.0, abs=1e-9)


class ReadRecorder(dict):
    """A config block that records which of its keys are read."""

    def __init__(self, block):
        super().__init__(block)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def physics_cases():
    """Each scenario in both unit modes, and each kernel where one is read."""
    for scenario, spec in sorted(SCENARIOS.items()):
        for units in ("scaled", "si"):
            for kernel in sorted(KERNELS) if "kernel" in spec.physics else [None]:
                yield scenario, units, kernel


def kernel_fields(kernel: str | None) -> set[str]:
    """The physics fields a kernel reads: its dataclass fields."""
    return {f.name for f in dataclasses.fields(KERNELS[kernel])} if kernel else set()


@pytest.mark.parametrize("scenario, units, kernel", list(physics_cases()))
def test_dispatch_reads_exactly_the_resolved_physics(scenario, units, kernel):
    raw = {"scenario": scenario, "units": units}
    if kernel is not None:
        raw["physics"] = {"kernel": kernel}
    config = resolve_config(raw)
    config["physics"] = physics = ReadRecorder(config["physics"])
    dispatch(config)
    expected = set(SCENARIOS[scenario].physics) | kernel_fields(kernel)
    assert physics.read == set(physics) == expected
    assert (config["grid"] is None) == (SCENARIOS[scenario].grid is None)


# the physics keys that measurement_chain or marble_in_box could be given
PHYSICS_NUMBERS = ("hbar", "mass", "lam", "sigma", "window")


@st.composite
def kernel_physics_blocks(draw):
    """A physics block for a scenario that reads a kernel: an optional kernel
    and a subset of the numeric keys, each at its unit default times 0.5, 1
    or 2."""
    scenario = draw(st.sampled_from(["measurement_chain", "marble_in_box"]))
    units = draw(st.sampled_from(["scaled", "si"]))
    # the unit defaults: kernel_dilemma reads hbar, mass, sigma and window
    defaults = resolve_config({"scenario": "kernel_dilemma", "units": units})["physics"]
    defaults |= resolve_config({"scenario": "measurement_chain", "units": units})["physics"]
    block = {}
    kernel = draw(st.sampled_from([None, *sorted(KERNELS)]))
    if kernel is not None:
        block["kernel"] = kernel
    for key in draw(st.lists(st.sampled_from(PHYSICS_NUMBERS), unique=True)):
        block[key] = defaults[key] * draw(st.sampled_from([0.5, 1.0, 2.0]))
    return scenario, units, block


@settings(deadline=None)
@given(case=kernel_physics_blocks())
@example(case=("measurement_chain", "scaled", {"window": 5.0}))
@example(case=("marble_in_box", "scaled", {"kernel": "ideal", "sigma": 3.0}))
def test_kernel_physics_block_resolves_to_what_dispatch_reads(case):
    scenario, units, block = case
    raw = {"scenario": scenario, "units": units, "physics": block}
    if scenario == "measurement_chain":
        raw["params"] = {"n_trials": 20}
    allowed = set(SCENARIOS[scenario].physics) | kernel_fields(block.get("kernel", "gaussian"))
    unknown = sorted(set(block) - allowed)
    if unknown:
        with pytest.raises(ConfigError, match=rf"^physics\.{unknown[0]}\b.*unknown key"):
            resolve_config(raw)
        return
    try:
        config = resolve_config(raw)
    except ConfigError as exc:
        assert re.match(r"^[a-z_]+\.[a-z_/]+: ", str(exc)), exc
        return
    config["physics"] = physics = ReadRecorder(config["physics"])
    dispatch(config)
    assert physics.read == set(physics) == allowed


# The sizes that set a run's time are capped in the property test below, to
# keep it within tier-1 time; the cap tests above cover the caps themselves.
SMALL = {"n_trials": 200, "n_pointer": 100, "n_points": 2048}


def field_defaults(scenario: str, units: str) -> dict[str, dict]:
    """Each settable field's resolved default, by section; a scenario that
    reads a kernel gets every kernel's fields."""
    config = resolve_config({"scenario": scenario, "units": units})
    sections = {key: dict(config[key] or {}) for key in ("physics", "grid", "params")}
    if "kernel" in SCENARIOS[scenario].physics:
        raw = {"scenario": scenario, "units": units, "physics": {"kernel": "compact_support"}}
        sections["physics"] |= resolve_config(raw)["physics"]
    return sections


def scale(value, factor: float):
    """A default times ``factor``: each number of a list, and an integer
    rounded (at least 1)."""
    if isinstance(value, list):
        return [scale(v, factor) for v in value]
    if isinstance(value, int):
        return max(1, round(value * factor))
    return value * factor


@st.composite
def scaled_configs(draw):
    """Any scenario in either unit mode, with a subset of its physics, grid
    and params keys each at 0.25-4x its resolved default (a kernel: any)."""
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    units = draw(st.sampled_from(["scaled", "si"]))
    raw = {"scenario": scenario, "units": units}
    for section, defaults in field_defaults(scenario, units).items():
        if not defaults:
            continue
        block = {}
        for key in draw(st.lists(st.sampled_from(sorted(defaults)), unique=True)):
            if key == "kernel":
                block[key] = draw(st.sampled_from(sorted(KERNELS)))
                continue
            block[key] = scale(defaults[key], draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])))
            if key in SMALL:
                block[key] = min(block[key], SMALL[key])
        if block:
            raw[section] = block
    return raw


def with_examples(texts):
    """An ``@example`` for each config text."""

    def decorate(test):
        for text in texts:
            test = example(raw=yaml.safe_load(text))(test)
        return test

    return decorate


@settings(deadline=None)
@given(raw=scaled_configs())
@with_examples(text for text, _ in OUT_OF_BOUNDS_CONFIGS.values())
@with_examples(EXIT_ZERO_CONFIGS.values())
def test_config_near_its_defaults_exits_zero_or_one_naming_field(raw):
    # no config exits 2: a config that would fail at run time is rejected,
    # and the rejection names the field to change (the section, where the
    # section is not a mapping)
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "config.yaml"
        path.write_text(yaml.safe_dump(raw))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(str(path), out_override=str(Path(out) / "out"))
    assert code in (0, 1), err.getvalue()
    if code == 1:
        field = r"[a-z_]+\.[a-z_/]+[:,] |(physics|grid|params): expected a mapping$"
        assert re.match(rf"config error: ({field})", err.getvalue()), err.getvalue()


class TestCliEntry:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "hegerfeldt_regrowth" in out
        assert "wallace_displacement" in out
        assert len([line for line in out.splitlines() if line.strip()]) == 6

    def test_list_scenarios_text_matches(self):
        text = list_scenarios()
        assert text.count("\n") == 5

    def test_run_subcommand(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "billiard.yaml",
            {"scenario": "billiard_collision", "out_dir": str(tmp_path / "out")},
        )
        assert main(["run", config]) == 0
        digest = capsys.readouterr().out
        assert "billiard_collision" in digest
        assert "[pass]" in digest

    def test_scaled_si_flags_exclusive(self, tmp_path):
        config = write_config(
            tmp_path / "billiard.yaml",
            {"scenario": "billiard_collision", "out_dir": str(tmp_path / "out")},
        )
        with pytest.raises(SystemExit):
            main(["run", config, "--scaled", "--si"])
