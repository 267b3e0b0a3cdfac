"""Store determinism across processes: the regression gate's foundation.

The ``repro report --check-regression`` gate compares trajectories with a
default tolerance of 0.0, which is only sound if the same (configuration,
seeds) pair reproduces the *identical* stored record from any process.  This
test runs the same sweep cell in two separate Python interpreters (not
forks — fresh processes with fresh hash randomisation) and asserts the
stored records agree on the config hash and the full trajectory.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.store import RunStore, check_store_regression

_WORKER = """
import sys
sys.path.insert(0, {src!r})
from repro.simulation.parallel import run_cells, sweep_cells
from repro.simulation.sweep import SweepConfiguration
from repro.store import RunStore, record_sweep_outcomes

configuration = SweepConfiguration(
    algorithm="algorithm2", topology="torus", num_nodes=16,
    tokens_per_node=8, workload="point", rng_mode="counter")
outcomes = run_cells(sweep_cells([configuration], seeds=[1, 2],
                                 record_trace=True))
record_sweep_outcomes(RunStore({store!r}), "determinism", outcomes)
"""


@pytest.fixture(scope="module")
def two_process_stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("stores")
    src = str(__import__("pathlib").Path(__file__).resolve()
              .parents[2] / "src")
    paths = []
    for name in ("first.jsonl", "second.jsonl"):
        store_path = str(root / name)
        subprocess.run([sys.executable, "-c",
                        _WORKER.format(src=src, store=store_path)],
                       check=True, timeout=120)
        paths.append(store_path)
    return paths


class TestTwoProcessDeterminism:
    def test_config_hashes_identical(self, two_process_stores):
        first, second = (RunStore(path).records()
                         for path in two_process_stores)
        assert [r.config_hash for r in first] == [r.config_hash for r in second]

    def test_trajectories_identical(self, two_process_stores):
        first, second = (RunStore(path).records()
                         for path in two_process_stores)
        for a, b in zip(first, second):
            assert a.trace() == b.trace()
            assert a.metric("final_max_min") == b.metric("final_max_min")
            assert a.metric("final_max_avg") == b.metric("final_max_avg")

    def test_regression_gate_passes_across_processes(self, two_process_stores):
        first, second = (RunStore(path).records()
                         for path in two_process_stores)
        outcome = check_store_regression(first, second)
        assert outcome.ok, outcome.summary()

    def test_full_result_payloads_identical(self, two_process_stores):
        first, second = (RunStore(path).records()
                         for path in two_process_stores)
        for a, b in zip(first, second):
            assert json.dumps(a.result, sort_keys=True) == json.dumps(
                b.result, sort_keys=True)
