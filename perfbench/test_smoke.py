"""Smoke test of the benchmark itself.

Runs every workload for a minimal length, untraced and traced, and checks
that the result line names every metric of BENCHMARK.json with its unit and
that no op failed.  Takes about a minute:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_reports_every_metric(workload, trace, section):
    result = run_benchmark(workload, trace)
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]  # fail_ratio is 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_compare_verdicts():
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1) == "better"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1) == "worse"
    assert compare.verdict(parent, [v * 0.8 for v in parent], "higher", 0.1) == "worse"
    assert compare.verdict(parent, parent[::-1], "lower", 0.1) == "unchanged"
    assert compare.verdict(parent, [0.5, 1.5] * 5, "lower", 0.1) == "unresolved"
