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
import math
import sys
from pathlib import Path

import yaml

from . import __version__
from .collapse import CompactSupportKernel, GaussianKernel, IdealKernel
from .errors import ConfigError
from .scenarios import (
    SCENARIO_DESCRIPTIONS,
    ScenarioResult,
    billiard_collision,
    hegerfeldt_regrowth,
    kernel_dilemma,
    marble_in_box,
    measurement_chain,
    wallace_displacement,
)
from .state import Grid1D, PhysicsParams

_TOP_KEYS = {"scenario", "seed", "units", "out_dir", "physics", "grid", "params"}
_PHYSICS_KEYS = {"hbar", "mass", "lam", "sigma", "kernel", "window"}
_GRID_KEYS = {"x_min", "x_max", "n_points"}
_PARAM_KEYS = {
    "measurement_chain": {"a", "b", "n_pointer", "separation", "n_trials"},
    "marble_in_box": {"inside_weight", "box", "q"},
    "billiard_collision": {"a", "b"},
    "wallace_displacement": {"x", "y", "s"},
    "hegerfeldt_regrowth": {"window", "dt_list"},
    "kernel_dilemma": {"separation", "packet_width", "regrow_dt"},
}

_UNITS_SI = {
    "length": "m",
    "time": "s",
    "mass": "kg",
    "mass_per_length": "kg/m",
    "per_length": "1/m",
    "fraction": "1",
    "count": "1",
    "label": "-",
}
_UNITS_SCALED = {
    "length": "L",
    "time": "T",
    "mass": "M",
    "mass_per_length": "M/L",
    "per_length": "1/L",
    "fraction": "1",
    "count": "1",
    "label": "-",
}


def _is_finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {unknown}; allowed keys are {sorted(allowed)}"
        )


def _number(section: dict, key: str, where: str, default=None):
    value = section.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where}.{key}: must be finite, got {value!r}")
    return float(value)


def _integer(section: dict, key: str, where: str, default=None):
    value = section.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
    return int(value)


def _amplitude(section: dict, key: str, where: str, default: complex) -> complex:
    value = section.get(key)
    if value is None:
        return default
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    if all(_is_finite_number(v) for v in parts):
        return complex(float(parts[0]), float(parts[1]))
    raise ConfigError(
        f"{where}.{key}: expected a finite number or [re, im] pair, got {value!r}"
    )


def load_config(path: str | Path) -> dict:
    raw = yaml.safe_load(Path(path).read_text())
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

    Unknown keys anywhere are rejected with a field-level message.
    """
    _reject_unknown(raw, _TOP_KEYS, "config")

    scenario = raw.get("scenario")
    if scenario not in SCENARIO_DESCRIPTIONS:
        raise ConfigError(
            f"scenario: expected one of {sorted(SCENARIO_DESCRIPTIONS)}, got {scenario!r}"
        )

    units = units_override or raw.get("units", "scaled")
    if units not in ("scaled", "si"):
        raise ConfigError(f"units: expected 'scaled' or 'si', got {units!r}")

    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed: expected a non-negative integer, got {seed!r}")

    out_dir = out_override or raw.get("out_dir", "grwlab_out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"out_dir: expected a path string, got {out_dir!r}")

    physics_raw = raw.get("physics", {}) or {}
    if not isinstance(physics_raw, dict):
        raise ConfigError("physics: expected a mapping")
    _reject_unknown(physics_raw, _PHYSICS_KEYS, "physics")
    defaults = PhysicsParams.scaled(lam=1e-3) if units == "scaled" else PhysicsParams.si()
    physics = {
        "hbar": _number(physics_raw, "hbar", "physics", defaults.hbar),
        "mass": _number(physics_raw, "mass", "physics", defaults.mass),
        "lam": _number(physics_raw, "lam", "physics", defaults.lam),
        "sigma": _number(physics_raw, "sigma", "physics", defaults.sigma),
        "kernel": physics_raw.get("kernel", "gaussian"),
        "window": _number(physics_raw, "window", "physics", defaults.sigma),
    }
    if physics["kernel"] not in ("gaussian", "compact_support", "ideal"):
        raise ConfigError(
            "physics.kernel: expected 'gaussian', 'compact_support' or 'ideal', "
            f"got {physics['kernel']!r}"
        )
    for key in ("hbar", "mass", "lam", "sigma", "window"):
        if physics[key] <= 0:
            raise ConfigError(f"physics.{key}: must be strictly positive, got {physics[key]}")

    sigma = physics["sigma"]
    grid_raw = raw.get("grid", {}) or {}
    if not isinstance(grid_raw, dict):
        raise ConfigError("grid: expected a mapping")
    _reject_unknown(grid_raw, _GRID_KEYS, "grid")
    grid_defaults = {
        "wallace_displacement": (-32.0 * sigma, 32.0 * sigma, 4096),
        "hegerfeldt_regrowth": (-64.0 * sigma, 64.0 * sigma, 4096),
        "kernel_dilemma": (-16.0 * sigma, 16.0 * sigma, 2048),
    }.get(scenario, (-16.0 * sigma, 16.0 * sigma, 2048))
    grid = {
        "x_min": _number(grid_raw, "x_min", "grid", grid_defaults[0]),
        "x_max": _number(grid_raw, "x_max", "grid", grid_defaults[1]),
        "n_points": _integer(grid_raw, "n_points", "grid", grid_defaults[2]),
    }
    if grid["x_max"] <= grid["x_min"]:
        raise ConfigError("grid.x_max: must exceed grid.x_min")
    if grid["n_points"] < 2:
        raise ConfigError(f"grid.n_points: must be >= 2, got {grid['n_points']}")

    params_raw = raw.get("params", {}) or {}
    if not isinstance(params_raw, dict):
        raise ConfigError("params: expected a mapping")
    _reject_unknown(params_raw, _PARAM_KEYS[scenario], "params")
    params = _resolve_scenario_params(scenario, params_raw, sigma, physics)

    return {
        "scenario": scenario,
        "seed": seed,
        "units": units,
        "out_dir": out_dir,
        "physics": physics,
        "grid": grid,
        "params": params,
    }


def _resolve_scenario_params(
    scenario: str, section: dict, sigma: float, physics: dict
) -> dict:
    if scenario == "measurement_chain":
        a = _amplitude(section, "a", "params", complex(math.sqrt(0.7)))
        b = _amplitude(section, "b", "params", complex(math.sqrt(0.3)))
        closure = abs(a) ** 2 + abs(b) ** 2
        if abs(closure - 1.0) > 1e-9:
            raise ConfigError(f"params.a/b: |a|^2 + |b|^2 = {closure!r}, must equal 1")
        n_pointer = _integer(section, "n_pointer", "params", 1000)
        n_trials = _integer(section, "n_trials", "params", 10000)
        separation = _number(section, "separation", "params", 4.0 * sigma)
        if n_pointer < 1:
            raise ConfigError(f"params.n_pointer: must be >= 1, got {n_pointer}")
        if n_trials < 1:
            raise ConfigError(f"params.n_trials: must be >= 1, got {n_trials}")
        if separation <= 0:
            raise ConfigError(f"params.separation: must be positive, got {separation}")
        return {
            "a": [a.real, a.imag],
            "b": [b.real, b.imag],
            "n_pointer": n_pointer,
            "separation": separation,
            "n_trials": n_trials,
        }

    if scenario == "marble_in_box":
        inside_weight = _number(section, "inside_weight", "params", 0.95)
        q = _number(section, "q", "params", 0.1)
        box = section.get("box", [-2.0, 2.0])
        if not (0.0 < inside_weight < 1.0):
            raise ConfigError(
                f"params.inside_weight: must lie in (0, 1), got {inside_weight}"
            )
        if not (0.0 < q < 0.5):
            raise ConfigError(
                f"params.q: must lie in the open interval (0, 0.5), got {q}"
            )
        if (
            not isinstance(box, list)
            or len(box) != 2
            or not all(_is_finite_number(v) for v in box)
            or float(box[1]) <= float(box[0])
        ):
            raise ConfigError(
                f"params.box: expected finite [lo, hi] with hi > lo, got {box!r}"
            )
        return {"inside_weight": inside_weight, "box": [float(box[0]), float(box[1])], "q": q}

    if scenario == "billiard_collision":
        a = _amplitude(section, "a", "params", complex(math.sqrt(0.9)))
        b = _amplitude(section, "b", "params", complex(math.sqrt(0.1)))
        closure = abs(a) ** 2 + abs(b) ** 2
        if abs(closure - 1.0) > 1e-9:
            raise ConfigError(f"params.a/b: |a|^2 + |b|^2 = {closure!r}, must equal 1")
        return {"a": [a.real, a.imag], "b": [b.real, b.imag]}

    if scenario == "wallace_displacement":
        x = _number(section, "x", "params", 0.0)
        y = _number(section, "y", "params", 10.0 * sigma)
        s = _number(section, "s", "params", sigma)
        if x == y:
            raise ConfigError("params.x/y: x and y must differ")
        if s <= 0:
            raise ConfigError(f"params.s: must be positive, got {s}")
        return {"x": x, "y": y, "s": s}

    if scenario == "hegerfeldt_regrowth":
        window = _number(section, "window", "params", physics["window"])
        dt_list = section.get(
            "dt_list", [0.0, 1e-4, 1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2]
        )
        if window <= 0:
            raise ConfigError(f"params.window: must be positive, got {window}")
        if (
            not isinstance(dt_list, list)
            or not dt_list
            or not all(_is_finite_number(v) and v >= 0 for v in dt_list)
        ):
            raise ConfigError(
                f"params.dt_list: expected a non-empty list of finite dt >= 0, got {dt_list!r}"
            )
        return {"window": window, "dt_list": [float(v) for v in dt_list]}

    # kernel_dilemma
    separation = _number(section, "separation", "params", 4.0 * sigma)
    packet_width = _number(section, "packet_width", "params", sigma / 8.0)
    regrow_dt = _number(section, "regrow_dt", "params", None)
    if separation <= 0:
        raise ConfigError(f"params.separation: must be positive, got {separation}")
    if packet_width <= 0:
        raise ConfigError(f"params.packet_width: must be positive, got {packet_width}")
    if regrow_dt is not None and regrow_dt <= 0:
        raise ConfigError(f"params.regrow_dt: must be positive, got {regrow_dt}")
    return {"separation": separation, "packet_width": packet_width, "regrow_dt": regrow_dt}


def _build_kernel(physics: dict):
    if physics["kernel"] == "gaussian":
        return GaussianKernel(physics["sigma"])
    if physics["kernel"] == "compact_support":
        return CompactSupportKernel(physics["sigma"], physics["window"])
    return IdealKernel()


def dispatch(config: dict) -> ScenarioResult:
    """Run the configured scenario and return its result."""
    physics = config["physics"]
    params = PhysicsParams(
        hbar=physics["hbar"], mass=physics["mass"], lam=physics["lam"], sigma=physics["sigma"]
    )
    grid = Grid1D(config["grid"]["x_min"], config["grid"]["x_max"], config["grid"]["n_points"])
    sp = config["params"]
    seed = config["seed"]
    scenario = config["scenario"]

    if scenario == "measurement_chain":
        return measurement_chain(
            a=complex(*sp["a"]),
            b=complex(*sp["b"]),
            n_pointer=sp["n_pointer"],
            separation=sp["separation"],
            kernel=_build_kernel(physics),
            params=params,
            n_trials=sp["n_trials"],
            seed=seed,
        )
    if scenario == "marble_in_box":
        return marble_in_box(
            inside_weight=sp["inside_weight"],
            box=tuple(sp["box"]),
            q=sp["q"],
            kernel=_build_kernel(physics),
            params=params,
            seed=seed,
        )
    if scenario == "billiard_collision":
        return billiard_collision(a=complex(*sp["a"]), b=complex(*sp["b"]))
    if scenario == "wallace_displacement":
        return wallace_displacement(
            x=sp["x"], y=sp["y"], s=sp["s"], sigma=physics["sigma"], grid=grid
        )
    if scenario == "hegerfeldt_regrowth":
        return hegerfeldt_regrowth(
            window=sp["window"], dt_list=sp["dt_list"], params=params, grid=grid
        )
    return kernel_dilemma(
        kernel_a=GaussianKernel(physics["sigma"]),
        kernel_b=CompactSupportKernel(physics["sigma"], physics["window"]),
        params=params,
        grid=grid,
        separation=sp["separation"],
        packet_width=sp["packet_width"],
        regrow_dt=sp["regrow_dt"],
        seed=seed,
    )


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_outputs(result: ScenarioResult, config: dict, out_dir: Path) -> list[Path]:
    """Write summary JSON and series CSVs; returns the paths written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    unit_map = _UNITS_SI if config["units"] == "si" else _UNITS_SCALED
    config_line = json.dumps(config, sort_keys=True, separators=(",", ":"))
    paths = []

    summary_path = out_dir / f"summary.{result.name}.json"
    payload = {
        "artifact": {"name": "grwlab", "version": __version__},
        "config": config,
        "result": result.to_dict(),
    }
    summary_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    paths.append(summary_path)

    for name, series in result.series.items():
        series_path = out_dir / f"series.{name}.csv"
        header = ",".join(
            f"{col} [{unit_map.get(dim, dim)}]" for col, dim in series.columns
        )
        lines = [
            f"# grwlab {__version__}",
            f"# config: {config_line}",
            header,
        ]
        for row in series.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        series_path.write_text("\n".join(lines) + "\n")
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
    width = max(len(name) for name in SCENARIO_DESCRIPTIONS)
    return "\n".join(
        f"{name.ljust(width)}  {desc}" for name, desc in sorted(SCENARIO_DESCRIPTIONS.items())
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
