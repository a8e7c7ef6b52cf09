"""Golden results: the shipped configs whose outputs are pinned exactly.

Each ``golden/<scenario>.result.json`` is the ``result`` block of
``summary.<scenario>.json`` written by ``grwlab run configs/<scenario>.yaml``.
measurement_chain is not pinned here; its ensemble statistics are checked
against the Born weights and closed forms in test_scenarios.py.
"""

import json
from pathlib import Path

import pytest

from grwlab.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "scenario",
    [
        "billiard_collision",
        "hegerfeldt_regrowth",
        "kernel_dilemma",
        "marble_in_box",
        "wallace_displacement",
    ],
)
def test_result_matches_golden(scenario, tmp_path):
    assert run(str(ROOT / "configs" / f"{scenario}.yaml"), out_override=str(tmp_path)) == 0
    payload = json.loads((tmp_path / f"summary.{scenario}.json").read_text())
    golden = json.loads((GOLDEN / f"{scenario}.result.json").read_text())
    assert payload["result"] == golden
