"""Tests for the append-only run store (:mod:`repro.store.runstore`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.network import topologies
from repro.simulation.engine import run_algorithm
from repro.simulation.parallel import run_cells, sweep_cells
from repro.simulation.sweep import SweepConfiguration
from repro.store import (
    RunRecord,
    RunStore,
    canonical_json,
    config_hash,
    record_run,
    record_sweep_outcomes,
    result_payload,
)
from repro.store.runstore import env_fingerprint
from repro.tasks.generators import point_load


def engine_result(seed=7, rounds=10):
    network = topologies.torus(4, dims=2)
    load = point_load(network, 32 * network.num_nodes)
    return run_algorithm("algorithm2", network, initial_load=load,
                         rounds=rounds, seed=seed, record_trace=True)


class TestConfigHash:
    def test_key_order_does_not_matter(self):
        assert (config_hash({"a": 1, "b": [2, 3]})
                == config_hash({"b": [2, 3], "a": 1}))

    def test_value_changes_change_the_hash(self):
        assert config_hash({"seed": 1}) != config_hash({"seed": 2})

    def test_numpy_values_hash_like_python_ones(self):
        assert (config_hash({"n": np.int64(16), "w": np.float64(2.5)})
                == config_hash({"n": 16, "w": 2.5}))

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'


class TestRunRecord:
    def test_hash_and_timestamp_filled_in(self):
        record = RunRecord(label="x", kind="engine", config={"seed": 1})
        assert record.config_hash == config_hash({"seed": 1})
        assert record.created  # ISO timestamp auto-stamped

    def test_line_round_trip(self):
        result = engine_result()
        record = RunRecord(label="x", kind="engine", config={"seed": 7},
                           seeds=[7], result=result_payload(result),
                           timing={"seconds": 0.5})
        clone = RunRecord.from_line(record.as_line())
        assert clone == record
        assert clone.trace() == [float(v) for v in result.trace_max_min]
        assert clone.metric("final_max_min") == result.final_max_min

    def test_unknown_fields_rejected(self):
        with pytest.raises(ExperimentError, match="unknown run-record fields"):
            RunRecord.from_line('{"label": "x", "kind": "engine", '
                                '"config": {}, "surprise": 1}')

    def test_metric_and_trace_defaults_without_result(self):
        record = RunRecord(label="x", kind="sweep", config={})
        assert record.trace() is None
        assert record.metric("final_max_min", default=-1) == -1

    def test_env_excluded_from_hash(self):
        record = RunRecord(label="x", kind="engine", config={"seed": 1},
                           env={"python": "0.0"})
        assert record.config_hash == config_hash({"seed": 1})
        assert env_fingerprint()["python"] != "0.0"


class TestRunStore:
    def test_append_and_read_back(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        assert not store.exists()
        record = record_run(store, "first", "engine", {"seed": 1}, seeds=[1],
                            result=engine_result(seed=1))
        assert store.exists()
        records = store.records()
        assert len(records) == 1
        assert records[0] == record

    def test_append_creates_parent_directories(self, tmp_path):
        store = RunStore(tmp_path / "deep" / "nested" / "runs.jsonl")
        record_run(store, "x", "engine", {"seed": 1}, seeds=[1])
        assert store.exists()

    def test_missing_store_errors(self, tmp_path):
        with pytest.raises(ExperimentError, match="no such run store"):
            RunStore(tmp_path / "nope.jsonl").records()

    def test_corrupt_line_errors_with_location(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        record_run(store, "good", "engine", {"seed": 1}, seeds=[1])
        with path.open("a") as handle:
            handle.write("{not json\n")
        with pytest.raises(ExperimentError, match=r"runs\.jsonl:2"):
            store.records()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        record_run(store, "x", "engine", {"seed": 1}, seeds=[1])
        with path.open("a") as handle:
            handle.write("\n\n")
        assert len(store.records()) == 1

    def test_truncated_trailing_record_skipped_with_warning(self, tmp_path):
        """A torn append (no trailing newline) is forgiven, not fatal."""
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        record_run(store, "kept", "engine", {"seed": 1}, seeds=[1])
        record_run(store, "kept-too", "engine", {"seed": 2}, seeds=[2])
        with path.open("a") as handle:
            handle.write('{"label": "torn", "config"')  # crash mid-append
        with pytest.warns(UserWarning, match="truncated trailing record"):
            records = store.records()
        assert [record.label for record in records] == ["kept", "kept-too"]

    def test_truncated_tail_only_forgiven_at_end_of_file(self, tmp_path):
        """Garbage followed by a valid record is real corruption: raise."""
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        record_run(store, "first", "engine", {"seed": 1}, seeds=[1])
        with path.open("a") as handle:
            handle.write('{"half": \n')
        record_run(store, "after", "engine", {"seed": 2}, seeds=[2])
        with pytest.raises(ExperimentError, match=r"runs\.jsonl:2"):
            store.records()

    def test_append_survives_reread_after_fsync(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        record_run(store, "durable", "engine", {"seed": 1}, seeds=[1])
        assert RunStore(path).records()[0].label == "durable"


class TestSelect:
    @pytest.fixture()
    def store(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        record_run(store, "alpha", "engine", {"seed": 1}, seeds=[1])
        record_run(store, "beta", "engine", {"seed": 2}, seeds=[2])
        record_run(store, "alpha", "engine", {"seed": 3}, seeds=[3])
        return store

    def test_latest(self, store):
        assert store.select().seeds == [3]
        assert store.select("latest").seeds == [3]

    def test_index(self, store):
        assert store.select("#0").label == "alpha"
        assert store.select("#1").label == "beta"

    def test_bad_index(self, store):
        with pytest.raises(ExperimentError, match="bad record index"):
            store.select("#9")

    def test_label_latest_wins(self, store):
        assert store.select("alpha").seeds == [3]

    def test_hash_prefix(self, store):
        target = store.records()[1]
        assert store.select(target.config_hash[:12]) == target

    def test_ambiguous_prefix(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        record_run(store, "a", "engine", {"seed": 1}, seeds=[1])
        record_run(store, "b", "engine", {"seed": 1}, seeds=[1])
        prefix = store.records()[0].config_hash[:8]
        with pytest.raises(ExperimentError, match="ambiguous"):
            store.select(prefix)

    def test_no_match(self, store):
        with pytest.raises(ExperimentError, match="no record"):
            store.select("zzzz")

    def test_empty_store(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("")
        with pytest.raises(ExperimentError, match="is empty"):
            RunStore(path).select()


class TestRecordSweepOutcomes:
    def test_cells_stored_with_timing_envelopes(self, tmp_path):
        configuration = SweepConfiguration(
            algorithm="algorithm2", topology="torus", num_nodes=16,
            tokens_per_node=8, rng_mode="counter")
        outcomes = run_cells(sweep_cells([configuration], seeds=[1, 2],
                                         record_trace=True))
        store = RunStore(tmp_path / "sweep.jsonl")
        records = record_sweep_outcomes(store, "grid", outcomes)
        assert len(records) == 2
        for record, outcome in zip(records, outcomes):
            assert record.kind == "sweep"
            assert record.seeds == [outcome.cell.seed]
            assert record.timing["seconds"] == outcome.seconds
            assert record.trace() == [float(v) for v
                                      in outcome.result.trace_max_min]
        # the seed is part of the stored config, so the two cells differ
        assert records[0].config_hash != records[1].config_hash

    def test_retry_and_failure_metadata_stored(self, tmp_path):
        from repro.faults import FaultPlan
        from repro.simulation.parallel import GridCell, run_cells
        from repro.simulation.scenario import Scenario

        cells = [GridCell(kind="dynamic",
                          spec=Scenario(
                              name=f"s{i}", algorithm="randomized-rounding",
                              topology="cycle", num_nodes=8, tokens_per_node=4,
                              workload="uniform", rounds=8, events="mixed",
                              seed=i, rng_mode="counter"),
                          index=i)
                 for i in range(3)]
        plan = FaultPlan(raise_at={0: 1, 2: 99})
        outcomes = run_cells(cells, workers=1, max_retries=1, strict=False,
                             faults=plan, retry_backoff=0.0)
        store = RunStore(tmp_path / "faulty.jsonl")
        records = record_sweep_outcomes(store, "faulty", outcomes)
        assert records[0].timing["attempts"] == 2
        assert records[0].timing["retry_seconds"] >= 0.0
        assert "attempts" not in records[1].timing
        assert records[2].result is None
        failure = records[2].timing["failure"]
        assert failure["kind"] == "error"
        assert failure["attempts"] == 2

    def test_scenario_cell_config_keeps_its_stored_shape(self, tmp_path):
        """A scenario cell stores every field once stored, and no ``events=None``."""
        from repro.simulation.parallel import GridCell
        from repro.simulation.scenario import Scenario

        stream = Scenario(name="s", algorithm="round-down", topology="cycle",
                          num_nodes=8, tokens_per_node=4, workload="uniform",
                          events="mixed", rounds=4, seed=1, rng_mode="counter")
        static = Scenario(name="t", algorithm="round-down", topology="cycle",
                          num_nodes=8, tokens_per_node=4, rounds=4)
        cells = [GridCell(kind="dynamic", spec=stream, index=0),
                 GridCell(kind="scenario", spec=static, index=1)]
        records = record_sweep_outcomes(RunStore(tmp_path / "cells.jsonl"), "cells",
                                        run_cells(cells, workers=1))
        common = {"name", "algorithm", "topology", "num_nodes", "tokens_per_node",
                  "workload", "speed_profile", "continuous_kind", "rounds", "seed",
                  "backend", "max_task_weight", "rng_mode", "seeding",
                  "legacy_seeding", "kind"}
        assert set(records[0].config) == common | {"events"}
        assert set(records[1].config) == common | {"base_load", "record_trace"}
        assert records[0].config["seeding"] == "legacy"

