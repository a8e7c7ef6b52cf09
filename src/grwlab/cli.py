"""Config-driven command line: validate, dispatch, and write results.

Usage:
    grwlab run <config.yaml> [--seed N] [--out DIR] [--scaled | --si]
    grwlab list

Outputs per run: ``summary.<scenario>.json`` plus one ``series.<name>.csv``
per data table, every file embedding the fully resolved config and the
package version.  Identical (config, seed) pairs produce byte-identical
files.  Exit codes: 0 success, 1 invalid config, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .collapse import KERNELS
from .errors import BoundaryContamination, ConfigError
from .scenarios import (
    MAGNITUDE,
    SCENARIOS,
    Field,
    ScenarioResult,
    parse_integer,
    parse_number,
    reject_unknown,
    resolve_fields,
)
from .state import Grid1D, PhysicsParams

_TOP_KEYS = {"scenario", "seed", "units", "out_dir", "physics", "grid", "params"}


def _parse_kernel(name: str, value) -> str:
    if not isinstance(value, str) or value not in KERNELS:
        raise ConfigError(f"{name}: expected one of {sorted(KERNELS)}, got {value!r}")
    return value


# defaults are read from the unit mode's PhysicsParams, overridden by the
# fields resolved before them: window follows the configured sigma
_PHYSICS_FIELDS = {
    "hbar": Field(parse_number, lambda d: d["hbar"], MAGNITUDE),
    "mass": Field(parse_number, lambda d: d["mass"], MAGNITUDE),
    "lam": Field(parse_number, lambda d: d["lam"], MAGNITUDE),
    "sigma": Field(parse_number, lambda d: d["sigma"], MAGNITUDE),
    "kernel": Field(_parse_kernel, "gaussian"),
    "window": Field(parse_number, lambda d: d["sigma"], MAGNITUDE),
}
# defaults are read from the scenario's grid: half_width and n_points
_GRID_FIELDS = {
    "x_min": Field(parse_number, lambda g: -g["half_width"]),
    "x_max": Field(parse_number, lambda g: g["half_width"]),
    # one CLI run of the heaviest grid scenario at the cap peaks near 233 MiB RSS (README)
    "n_points": Field(
        parse_integer, lambda g: g["n_points"], (lambda n: 2 <= n <= 2**20, "must be in [2, 2^20]")
    ),
}

# dimension -> unit label, per unit mode
_UNITS = {
    "si": dict(length="m", time="s", mass="kg", mass_per_length="kg/m", per_length="1/m"),
    "scaled": dict(length="L", time="T", mass="M", mass_per_length="M/L", per_length="1/L"),
}
_DIMENSIONLESS = {"fraction": "1", "count": "1", "label": "-"}
# rows per block of a series CSV (README, outputs)
_BLOCK_ROWS = 1024


def load_config(path: str | Path) -> dict:
    # libyaml's parser where PyYAML was built with it; the same constructor
    # and resolver either way, so the same dicts
    raw = yaml.load(Path(path).read_text(), Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return raw


def resolve_config(
    raw: dict,
    seed_override: int | None = None,
    out_override: str | None = None,
    units_override: str | None = None,
) -> dict:
    """Validate and fill in defaults; returns the fully resolved config.

    Unknown keys anywhere are rejected with a field-level message.  The
    physics fields, grid, params fields, defaults and cross-field rules
    come from the scenario's entry in ``SCENARIOS``.
    """

    scenario = raw.get("scenario")
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ConfigError(f"scenario: expected one of {sorted(SCENARIOS)}, got {scenario!r}")
    spec = SCENARIOS[scenario]
    reject_unknown(raw, _TOP_KEYS if spec.grid else _TOP_KEYS - {"grid"}, "config")

    units = units_override or raw.get("units", "scaled")
    if units not in ("scaled", "si"):
        raise ConfigError(f"units: expected 'scaled' or 'si', got {units!r}")

    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed: expected a non-negative integer, got {seed!r}")

    out_dir = out_override or raw.get("out_dir", "grwlab_out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"out_dir: expected a non-empty path string, got {out_dir!r}")

    # a missing or null section is empty; anything else must be a mapping
    sections = {k: {} if raw.get(k) is None else raw[k] for k in ("physics", "grid", "params")}
    unit_defaults = PhysicsParams.scaled(lam=1e-3) if units == "scaled" else PhysicsParams()
    physics_fields = {key: _PHYSICS_FIELDS[key] for key in spec.physics}
    section = sections["physics"]
    if "kernel" in physics_fields and isinstance(section, dict):
        # the kernel's fields join the physics fields; a falsy name fails below
        kernel = physics_fields["kernel"]
        name = kernel.parse("physics.kernel", section.get("kernel") or kernel.default)
        physics_fields |= {f.name: _PHYSICS_FIELDS[f.name] for f in fields(KERNELS[name])}
    physics = resolve_fields(section, "physics", physics_fields, vars(unit_defaults))

    grid = None
    if spec.grid is not None:
        grid_default = {"half_width": spec.grid[0] * physics["sigma"], "n_points": spec.grid[1]}
        grid = resolve_fields(sections["grid"], "grid", _GRID_FIELDS, grid_default)
        if grid["x_max"] <= grid["x_min"]:
            raise ConfigError("grid.x_max: must exceed grid.x_min")

    params = resolve_fields(sections["params"], "params", spec.fields, physics)
    if spec.check is not None:
        spec.check(params, physics, grid)

    return {
        "scenario": scenario,
        "seed": seed,
        "units": units,
        "out_dir": out_dir,
        "physics": physics,
        "grid": grid,
        "params": params,
    }


def dispatch(config: dict) -> ScenarioResult:
    """Run the configured scenario and return its result."""
    spec, grid = SCENARIOS[config["scenario"]], config["grid"]
    return spec.run(config["params"], config["physics"], grid and Grid1D(**grid), config["seed"])


def _format_column(values: np.ndarray, end: str = "") -> list[str]:
    """Each cell's text plus ``end``: ``str`` of its Python scalar (``repr``
    for a float), made once per distinct value.  Floats are told apart by
    bit pattern, so -0.0 and 0.0 keep their own texts."""
    keys = values.view(np.int64) if values.dtype == np.float64 else values
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    texts = np.array([str(value) + end for value in values[first].tolist()], dtype=object)
    return texts[inverse].tolist()


def write_outputs(result: ScenarioResult, config: dict, out_dir: Path) -> list[Path]:
    """Write summary JSON and series CSVs; returns the paths written."""
    payload = {
        "artifact": {"name": "grwlab", "version": __version__},
        "config": config,
        "result": {"name": result.name, "summary": result.summary, "verdicts": result.verdicts},
    }
    # strict JSON: a non-finite summary value raises before anything is written
    summary = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = out_dir / f"summary.{result.name}.json"
    summary_path.write_text(summary)
    paths = [summary_path]

    unit_map = _UNITS[config["units"]] | _DIMENSIONLESS
    config_line = json.dumps(config, sort_keys=True, separators=(",", ":"))
    for name, series in result.series.items():
        series_path = out_dir / f"series.{name}.csv"
        header = ",".join(f"{col} [{unit_map.get(dim, dim)}]" for col, dim in series.columns)
        with series_path.open("w") as out:
            out.write(f"# grwlab {__version__}\n# config: {config_line}\n{header}\n")
            # column by column within a block of rows: only one block's text
            # is held at a time, whatever the row count
            ends = [","] * (len(series.data) - 1) + ["\n"]
            for start in range(0, len(series.data[0]), _BLOCK_ROWS):
                block = [column[start : start + _BLOCK_ROWS] for column in series.data]
                cells = [""] * (len(block) * len(block[0]))
                for j, (column, end) in enumerate(zip(block, ends)):
                    cells[j :: len(block)] = _format_column(column, end)
                out.write("".join(cells))
        paths.append(series_path)
    return paths


def _digest(result: ScenarioResult, paths: list[Path]) -> str:
    lines = [f"scenario: {result.name}"]
    for key, value in result.summary.items():
        lines.append(f"  {key}: {_summarize(value)}")
    lines.append("verdicts:")
    for key, ok in result.verdicts.items():
        lines.append(f"  [{'pass' if ok else 'FAIL'}] {key}")
    lines.append("outputs:")
    for p in paths:
        lines.append(f"  {p}")
    return "\n".join(lines)


def _summarize(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return text if len(text) <= 100 else text[:97] + "..."


def list_scenarios() -> str:
    """One line per scenario: name and what it measures."""
    width = max(len(name) for name in SCENARIOS)
    return "\n".join(
        f"{name.ljust(width)}  {SCENARIOS[name].description}" for name in sorted(SCENARIOS)
    )


def run(
    config_path: str,
    seed_override: int | None = None,
    out_override: str | None = None,
    units_override: str | None = None,
) -> int:
    """Execute one configured scenario; returns the process exit code."""
    try:
        raw = load_config(config_path)
        config = resolve_config(raw, seed_override, out_override, units_override)
    except (OSError, yaml.YAMLError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        result = dispatch(config)
        paths = write_outputs(result, config, Path(config["out_dir"]))
    except BoundaryContamination as exc:
        # the run's exact edge check: the box is too small for this config,
        # found before anything is written
        print(f"config error: grid.x_min/x_max: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - any runtime failure maps to exit 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(_digest(result, paths))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="grwlab",
        description="Collapse-dynamics scenarios with seeded, machine-readable results",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a scenario from a YAML config")
    run_parser.add_argument("config", help="path to the YAML run configuration")
    run_parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_parser.add_argument("--out", default=None, help="override the output directory")
    mode = run_parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--scaled", action="store_true", help="force scaled desk units (hbar = m = 1)"
    )
    mode.add_argument("--si", action="store_true", help="force SI units")

    sub.add_parser("list", help="list available scenarios")

    args = parser.parse_args(argv)
    if args.command == "list":
        print(list_scenarios())
        return 0
    units = "scaled" if args.scaled else ("si" if args.si else None)
    return run(args.config, args.seed, args.out, units)


if __name__ == "__main__":
    sys.exit(main())
