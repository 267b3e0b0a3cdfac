"""Tests of the repo benchmark: a tiny pass through every workload and check.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402

SPEC = run.load_spec(ROOT)
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def tiny(name: str, **changes):
    module = __import__(run.WORKLOADS[name])
    return dataclasses.replace(module.TINY, **changes)


def run_tiny(name: str, trace: bool, seed: int = 3, **changes):
    report = run.run_workload(name, seed, 0.2, trace, ROOT, params=tiny(name, **changes))
    return report, run.result_line(report, SPEC, trace)


def test_spec_matches_workloads():
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert any(entry["name"] == "setup_s" for entry in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_pass_reports_every_metric(name, trace):
    report, result = run_tiny(name, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    assert result["correct"], report["ledger"].failures
    assert result["failed"] == 0 and result["attempted"] > 0
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"])
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    json.dumps(result)


@pytest.mark.parametrize("name", WORKLOADS)
def test_exact_counts_repeat(name):
    counts = [entry["name"] for entry in SPEC["per_layer"] if entry["unit"] == "count"]
    first = run_tiny(name, True)[1]["metrics"]
    second = run_tiny(name, True)[1]["metrics"]
    assert {c: first[c]["value"] for c in counts} == {c: second[c]["value"] for c in counts}


def test_truncated_checkpoint_raises_failed_ratio(monkeypatch):
    import stream_churn
    from repro.faults import truncate_checkpoint

    clean = run_tiny("stream-churn", False)[0]["ledger"]
    read_checkpoint = stream_churn.read_checkpoint

    def read_truncated(path):
        truncate_checkpoint(path)
        return read_checkpoint(path)

    monkeypatch.setattr(stream_churn, "read_checkpoint", read_truncated)
    report, result = run_tiny("stream-churn", False)
    ledger = report["ledger"]
    assert clean.failed_ratio == 0.0
    assert ledger.failed_ratio > 0.0
    assert not result["correct"]
    assert any("resume" in failure for failure in ledger.failures)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
