"""Golden results: the shipped configs whose outputs are pinned exactly.

Each ``golden/<scenario>.result.json`` is the ``result`` block of
``summary.<scenario>.json`` written by ``grwlab run configs/<scenario>.yaml``.
``golden/resolved_configs.json`` pins ``resolve_config`` for every shipped
config (key ``configs/<scenario>.yaml``) and for a bare
``{"scenario": <scenario>}`` in each unit mode (key ``<scenario>/<units>``),
so every default and the config block of every output stay fixed.
"""

import json
from pathlib import Path

import pytest

from grwlab.cli import load_config, resolve_config, run

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
