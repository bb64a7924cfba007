"""Smoke test of the benchmark itself: same code paths, a tenth of the work.

Not part of tier 1 (``testpaths = tests``); run it with

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

(``benchmarks/conftest.py`` imports ``repro``, hence the ``PYTHONPATH``.)
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = Path(__file__).with_name("run.py")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(*argv: str) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke", *argv],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=180,
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"], metric["name"]
        assert isinstance(entry["value"], (int, float)), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload: str) -> None:
    code, result = run("--workload", workload, "--trace", "0")
    assert code == 0
    assert_metrics(result, BENCHMARK["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", ["highprec-single", "serve-churn"])
def test_per_layer_metrics(workload: str) -> None:
    code, result = run("--workload", workload, "--trace", "1")
    assert code == 0
    assert_metrics(result, BENCHMARK["per_layer"])


@pytest.mark.parametrize("broken", ["verify", "clean"])
def test_failed_check_fails_the_run(broken: str) -> None:
    code, result = run("--workload", "serve-churn", "--break-check", broken)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
