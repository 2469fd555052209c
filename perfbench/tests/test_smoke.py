"""Smoke test for the benchmark: one deck per workload, untraced and traced.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
Checks that every metric BENCHMARK.json names is emitted with its unit and
that a deliberately wrong expectation is counted as a failure.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.01  # below one deck: each run serves exactly one deck


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def emitted(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run.run_workload(workload, 3, TINY, False, 0.0)
    assert emitted(result) == units("end_to_end")
    assert result["correct"] and result["attempted"] > 0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "code_scan":
        # the geolocal(3,1) question, two of 20 per deck, raises MemoryError
        # until the correction condition stops allocating m x m up front
        assert all("geolocal_3_1" in k for k in result["detail"]["failures"])
    else:
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics(workload):
    result = run.run_workload(workload, 3, TINY, True, 0.0)
    assert emitted(result) == units("per_layer")
    assert result["correct"]
    assert not result["detail"]["probe_problems"]


def test_wrong_expectation_is_a_failure():
    def tamper(deck):
        for req in deck:
            if req.key == "distance.fivequbit":
                req.expected = {**req.expected, "results": {"delta": 4}}

    result = run.run_workload("cli_transversal", 3, TINY, False, 0.0, tamper=tamper)
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["ok_rate"]["value"] == 1 - 1 / result["attempted"]
    (reason,) = result["detail"]["failures"]
    assert reason.startswith("distance.fivequbit: delta = 3, expected 4")
