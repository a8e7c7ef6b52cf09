"""Golden results: the shipped configs whose outputs are pinned exactly.

Each ``golden/<scenario>.result.json`` is the ``result`` block of
``summary.<scenario>.json`` written by ``grwlab run configs/<scenario>.yaml``.
``golden/resolved_configs.json`` pins ``resolve_config`` for every shipped
config (key ``configs/<scenario>.yaml``) and for a bare
``{"scenario": <scenario>}`` in each unit mode (key ``<scenario>/<units>``),
so every default and the config block of every output stay fixed.
``golden/outputs.sha256.json`` pins the sha256 of every file each shipped
config writes (key: scenario, then file name), resolved with ``out_dir``
set to ``OUT_DIR`` so that the config line embedded in each file does not
depend on where the test writes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from grwlab.cli import dispatch, load_config, resolve_config, run, write_outputs

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = [
    "billiard_collision",
    "hegerfeldt_regrowth",
    "kernel_dilemma",
    "marble_in_box",
    "measurement_chain",
    "wallace_displacement",
]
RESOLVED = json.loads((GOLDEN / "resolved_configs.json").read_text())
OUTPUT_HASHES = json.loads((GOLDEN / "outputs.sha256.json").read_text())
OUT_DIR = "grwlab_out"


def output_hashes(scenario: str, out_dir) -> dict[str, str]:
    """sha256 of each file written for the shipped config, by file name."""
    raw = load_config(ROOT / "configs" / f"{scenario}.yaml")
    config = resolve_config(raw, out_override=OUT_DIR)
    paths = write_outputs(dispatch(config), config, out_dir)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_result_matches_golden(scenario, tmp_path):
    assert run(str(ROOT / "configs" / f"{scenario}.yaml"), out_override=str(tmp_path)) == 0
    payload = json.loads((tmp_path / f"summary.{scenario}.json").read_text())
    golden = json.loads((GOLDEN / f"{scenario}.result.json").read_text())
    assert payload["result"] == golden


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_shipped_config_resolves_to_golden(scenario):
    key = f"configs/{scenario}.yaml"
    assert resolve_config(load_config(ROOT / key)) == RESOLVED[key]


@pytest.mark.parametrize("units", ["scaled", "si"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_defaults_resolve_to_golden(scenario, units):
    config = resolve_config({"scenario": scenario, "units": units})
    assert config == RESOLVED[f"{scenario}/{units}"]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_output_bytes_match_golden(scenario, tmp_path):
    assert output_hashes(scenario, tmp_path) == OUTPUT_HASHES[scenario]
