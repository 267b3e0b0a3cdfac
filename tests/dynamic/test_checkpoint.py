"""Checkpoint/resume bit-identity and rejection of damaged checkpoints."""

from __future__ import annotations

import copy
import json
import os
import pathlib
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.checkpoint import (
    CHECKPOINT_VERSION,
    StreamCheckpoint,
    checkpoint_engine,
    read_checkpoint,
    restore_engine,
    resume_stream,
    write_checkpoint,
)
from repro.dynamic.events import ARRIVAL, EventBatch, EventGenerator, make_event_generator
from repro.dynamic.stream import StreamingEngine
from repro.exceptions import CheckpointError, ExperimentError
from repro.faults import truncate_checkpoint
from repro.network import topologies
from repro.obs import kernels
from repro.obs.kernels import activate_kernel_clock, deactivate_kernel_clock
from repro.simulation.scenario import Scenario, run_scenario
from repro.store.runstore import canonical_json


def _scenario(backend="auto", algorithm="randomized-rounding",
              max_task_weight=1, rounds=24, **overrides):
    params = dict(
        name="ckpt", algorithm=algorithm, topology="cycle", num_nodes=10,
        tokens_per_node=6, workload="uniform", rounds=rounds, events="mixed", seed=13,
        backend=backend, max_task_weight=max_task_weight)
    params.update(overrides)
    return Scenario(**params)


def _build_engine(scenario):
    seeds = scenario._purpose_seeds()
    network = scenario.build_network()
    if scenario.max_task_weight > 1:
        load = scenario.build_weighted_load(network)
    else:
        load = scenario.build_load(network)
    generator = make_event_generator(scenario.events, network,
                                     scenario.tokens_per_node,
                                     seed=seeds.events)
    return StreamingEngine(scenario.algorithm, network, load, generator,
                           continuous_kind=scenario.continuous_kind,
                           seed=seeds.algorithm, backend=scenario.backend,
                           rng_mode=scenario.rng_mode)


def _fresh_generator(scenario):
    seeds = scenario._purpose_seeds()
    network = scenario.build_network()
    return make_event_generator(scenario.events, network,
                                scenario.tokens_per_node, seed=seeds.events)


DATA = pathlib.Path(__file__).parent / "data"


def _json_round_trip(checkpoint):
    """Serialise through canonical JSON exactly as the file format does."""
    return StreamCheckpoint(**json.loads(canonical_json(asdict(checkpoint))))


class TestResumeBitIdentity:
    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_resume_at_every_round_matches_uninterrupted(self, backend):
        """Kill at ANY round, resume, and get the exact same trajectory."""
        scenario = _scenario(backend=backend)
        baseline = run_scenario(scenario)

        engine = _build_engine(scenario)
        trace = [engine.current_discrepancy()]
        totals = [float(engine.total_real_load())]
        checkpoints = [_json_round_trip(checkpoint_engine(
            engine, total_rounds=scenario.rounds, trace=trace, totals=totals))]
        for _ in range(scenario.rounds):
            engine.step()
            trace.append(engine.current_discrepancy())
            totals.append(float(engine.total_real_load()))
            checkpoints.append(_json_round_trip(checkpoint_engine(
                engine, total_rounds=scenario.rounds, trace=trace,
                totals=totals)))

        for round_index, checkpoint in enumerate(checkpoints):
            assert checkpoint.round_index == round_index
            resumed = resume_stream(checkpoint,
                                    generator=_fresh_generator(scenario))
            assert resumed.trace_max_min == baseline.trace_max_min, \
                f"trajectory diverged when resuming from round {round_index}"
            assert resumed.trace_total_weight == baseline.trace_total_weight
            assert resumed.extra == baseline.extra

    def test_weighted_stream_resumes_bit_identically(self, tmp_path):
        scenario = _scenario(algorithm="algorithm1", max_task_weight=4)
        baseline = run_scenario(scenario)
        engine = _build_engine(scenario)
        trace = [engine.current_discrepancy()]
        totals = [float(engine.total_real_load())]
        for _ in range(scenario.rounds // 2):
            engine.step()
            trace.append(engine.current_discrepancy())
            totals.append(float(engine.total_real_load()))
        path = write_checkpoint(
            checkpoint_engine(engine, total_rounds=scenario.rounds,
                              trace=trace, totals=totals),
            tmp_path / "weighted.json")
        resumed = resume_stream(path, generator=_fresh_generator(scenario))
        assert resumed.trace_max_min == baseline.trace_max_min
        assert resumed.trace_total_weight == baseline.trace_total_weight
        assert resumed.extra == baseline.extra

    @pytest.mark.parametrize("cadence", [1, 5, 7])
    def test_any_checkpoint_cadence_end_state_identical(self, tmp_path,
                                                        cadence):
        scenario = _scenario(rounds=20)
        baseline = run_scenario(scenario)
        path = tmp_path / "cadence.json"
        checkpointed = run_scenario(scenario, checkpoint_every=cadence,
                                            checkpoint_path=path)
        # checkpointing is observation-only: the run itself is unchanged
        assert checkpointed.trace_max_min == baseline.trace_max_min
        # the final snapshot resumes to the identical (already complete) run
        resumed = resume_stream(path)
        assert resumed.trace_max_min == baseline.trace_max_min
        assert resumed.extra == baseline.extra

    def test_scenario_meta_rebuilds_generator(self, tmp_path):
        """run_scenario embeds the scenario; resume needs no inputs."""
        scenario = _scenario(rounds=18)
        baseline = run_scenario(scenario)
        path = tmp_path / "meta.json"
        run_scenario(scenario, checkpoint_every=7,
                             checkpoint_path=path)
        resumed = resume_stream(path)  # generator rebuilt from meta
        assert resumed.trace_max_min == baseline.trace_max_min

    def test_resume_continues_past_stored_horizon(self, tmp_path):
        scenario = _scenario(rounds=10)
        longer = _scenario(rounds=16)
        baseline = run_scenario(longer)
        path = tmp_path / "extend.json"
        run_scenario(scenario, checkpoint_every=10,
                             checkpoint_path=path,)
        resumed = resume_stream(path, generator=_fresh_generator(scenario),
                                rounds=16)
        assert resumed.trace_max_min == baseline.trace_max_min


class TestCheckpointValidation:
    def _written(self, tmp_path, **scenario_overrides):
        scenario = _scenario(rounds=8, **scenario_overrides)
        engine = _build_engine(scenario)
        trace = [engine.current_discrepancy()]
        totals = [float(engine.total_real_load())]
        for _ in range(4):
            engine.step()
            trace.append(engine.current_discrepancy())
            totals.append(float(engine.total_real_load()))
        return write_checkpoint(
            checkpoint_engine(engine, total_rounds=8, trace=trace,
                              totals=totals),
            tmp_path / "ckpt.json")

    def test_version_mismatch_rejected(self, tmp_path):
        path = self._written(tmp_path)
        data = json.loads(path.read_text())
        data["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="format version"):
            read_checkpoint(path)

    def test_config_hash_mismatch_rejected(self, tmp_path):
        path = self._written(tmp_path)
        data = json.loads(path.read_text())
        data["config"]["seed"] = 999  # tamper without re-hashing
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="config hash mismatch"):
            read_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = self._written(tmp_path)
        truncate_checkpoint(path, keep_fraction=0.5)
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            read_checkpoint(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "not-a-checkpoint.json"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(CheckpointError, match="not a"):
            read_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="no such checkpoint"):
            read_checkpoint(tmp_path / "absent.json")

    def test_atomic_write_preserves_previous_snapshot(self, tmp_path):
        """A rename-based write never leaves a half-written file behind."""
        path = self._written(tmp_path)
        before = path.read_text()
        read_checkpoint(path)  # valid
        # overwrite with a new snapshot; the write goes through a temp file
        scenario = _scenario(rounds=8)
        engine = _build_engine(scenario)
        write_checkpoint(checkpoint_engine(engine, total_rounds=8,
                                           trace=[0.0], totals=[0.0]), path)
        after = path.read_text()
        assert after != before
        read_checkpoint(path)  # still a complete, valid checkpoint
        assert not list(tmp_path.glob("*.tmp")), "temp files must not leak"

    def test_generator_shape_mismatch_rejected(self, tmp_path):
        """Restoring onto a generator of a different shape fails loudly."""
        path = self._written(tmp_path)
        checkpoint = read_checkpoint(path)
        other = _scenario(rounds=8, events="poisson")
        with pytest.raises(ExperimentError):
            restore_engine(checkpoint, generator=_fresh_generator(other))

    def test_resume_without_meta_or_generator_fails(self, tmp_path):
        path = self._written(tmp_path)  # no scenario meta attached
        with pytest.raises(CheckpointError, match="scenario metadata"):
            resume_stream(path)

    def test_trace_length_mismatch_rejected(self, tmp_path):
        path = self._written(tmp_path)
        checkpoint = read_checkpoint(path)
        # keep the files consistent: only the traces were damaged
        write_checkpoint(replace(checkpoint, trace_max_min=checkpoint.trace_max_min[:-2]),
                         path)
        with pytest.raises(CheckpointError, match="trace length"):
            resume_stream(path, generator=_fresh_generator(_scenario(rounds=8)))

    def test_checkpoint_every_requires_target(self):
        scenario = _scenario(rounds=6)
        with pytest.raises(ExperimentError, match="checkpoint_path"):
            run_scenario(scenario, checkpoint_every=2)

    def test_retired_sequential_rng_mode_rejected(self, tmp_path):
        """A checkpoint of a sequential-rng run, consistent hash and all, is
        refused loudly — by the metadata path and the explicit-generator path."""
        golden = read_checkpoint(DATA / "unit_mixed.ckpt.json")
        meta = copy.deepcopy(golden.meta)
        meta["scenario"]["rng_mode"] = "sequential"
        old = StreamCheckpoint(config={**golden.config, "rng_mode": "sequential"},
                               state=golden.state, total_rounds=golden.total_rounds,
                               trace_max_min=golden.trace_max_min,
                               trace_total_weight=golden.trace_total_weight, meta=meta)
        path = write_checkpoint(old, tmp_path / "sequential.json")
        checkpoint = read_checkpoint(path)  # the hash is consistent
        with pytest.raises(CheckpointError, match="only rng mode is 'counter'"):
            resume_stream(path)
        generator = _fresh_generator(Scenario.from_dict(golden.meta["scenario"]))
        with pytest.raises(CheckpointError, match="only rng mode is 'counter'"):
            restore_engine(checkpoint, generator=generator)

    # Edits of the golden unit_mixed state (nodes 0..12 and 14..17, string
    # keys as read back from JSON); node 12 keeps its edge [0, 12].
    MALFORMED = {
        "edge-to-unknown-label": lambda state: state["edges"].append([0, 1000000]),
        "self-loop": lambda state: state["edges"].append([3, 3]),
        "fractional-label": lambda state: state["edges"].append([0.5, 1]),
        "edge-of-three-labels": lambda state: state["edges"].append([0, 1, 2]),
        "node-listed-twice": lambda state: state["nodes"].append(4),
        "node-dropped-edges-kept": lambda state: state["nodes"].remove(12),
        "speed-missing": lambda state: state["speeds"].pop("5"),
        "boundary-tokens-missing": lambda state: state["boundary"]["tokens"].pop("5"),
    }

    @pytest.mark.parametrize("damage", sorted(MALFORMED))
    def test_malformed_topology_rejected(self, damage):
        checkpoint = read_checkpoint(DATA / "unit_mixed.ckpt.json")
        state = copy.deepcopy(checkpoint.state)
        self.MALFORMED[damage](state)
        with pytest.raises(CheckpointError, match="malformed checkpoint"):
            restore_engine(replace(checkpoint, state=state))


class TestGoldenCheckpoints:
    """Checkpoints written before the per-label array state still resume.

    ``data/<name>.ckpt.json`` was written by the engine that kept per-label
    dicts, killed mid-run (a unit ``mixed`` stream at round 40 of 80, a
    weighted w <= 3 ``churn`` stream at round 30 of 60, both with applied
    joins and leaves before and after the kill); ``data/<name>.expected.json``
    holds that engine's uninterrupted result and final per-label state.
    """

    NAMES = ["unit_mixed", "weighted_churn"]

    @staticmethod
    def _expected(name):
        return json.loads((DATA / f"{name}.expected.json").read_text())

    @pytest.mark.parametrize("name", NAMES)
    def test_resume_matches_the_uninterrupted_run(self, name):
        expected = self._expected(name)
        result = resume_stream(DATA / f"{name}.ckpt.json")
        assert result.trace_max_min == expected["trace_max_min"]
        assert result.trace_total_weight == expected["trace_total_weight"]
        assert result.extra == expected["extra"]

    @pytest.mark.parametrize("name", NAMES)
    def test_restored_engine_ends_in_the_recorded_state(self, name):
        expected = self._expected(name)
        checkpoint = read_checkpoint(DATA / f"{name}.ckpt.json")
        engine = restore_engine(checkpoint)
        while engine.round_index < checkpoint.total_rounds:
            engine.step()
        assert engine.tokens_by_label() == {
            int(label): tokens
            for label, tokens in expected["tokens_by_label"].items()}
        assert engine.buckets_by_label() == {
            int(label): {int(weight): count for weight, count in bucket.items()}
            for label, bucket in expected["buckets_by_label"].items()}

    @pytest.mark.parametrize("name", NAMES)
    def test_embedded_scenario_round_trips_byte_for_byte(self, name):
        """The stored scenario is exactly what Scenario.to_dict writes.

        Checkpoints are canonical JSON, so the comparison is in that form.
        """
        stored = read_checkpoint(DATA / f"{name}.ckpt.json").meta["scenario"]
        assert canonical_json(Scenario.from_dict(stored).to_dict()) == canonical_json(stored)
        assert canonical_json(stored) in (DATA / f"{name}.ckpt.json").read_text()

    @pytest.mark.parametrize("name", NAMES)
    def test_a_fresh_run_writes_the_same_checkpoint(self, name):
        checkpoint = read_checkpoint(DATA / f"{name}.ckpt.json")
        scenario = Scenario.from_dict(checkpoint.meta["scenario"])
        engine = _build_engine(scenario)
        trace = [engine.current_discrepancy()]
        totals = [float(engine.total_real_load())]
        while engine.round_index < checkpoint.round_index:
            engine.step()
            trace.append(engine.current_discrepancy())
            totals.append(float(engine.total_real_load()))
        fresh = _json_round_trip(checkpoint_engine(
            engine, total_rounds=scenario.rounds, trace=trace, totals=totals,
            meta=checkpoint.meta))
        assert fresh.config_hash == checkpoint.config_hash
        assert fresh.state == checkpoint.state
        assert fresh.trace_max_min == checkpoint.trace_max_min
        assert fresh.trace_total_weight == checkpoint.trace_total_weight


def _sidecar(path):
    """The sidecar a version 2 checkpoint file points at."""
    return path.parent / json.loads(path.read_text())["history"]["file"]


def _step_and_write(engine, path, rounds, trace, totals, total_rounds):
    for _ in range(rounds):
        engine.step()
        trace.append(engine.current_discrepancy())
        totals.append(float(engine.total_real_load()))
    return write_checkpoint(checkpoint_engine(engine, total_rounds=total_rounds,
                                              trace=trace, totals=totals), path)


class TestSidecar:
    """The version 2 layout: JSON state plus an append-only history sidecar."""

    ROUNDS = 24

    def _run(self, tmp_path, seed=13, name="ckpt.json", stop=12, cadence=4):
        """Drive a run to ``stop`` writing every ``cadence`` rounds; return path and sizes."""
        scenario = _scenario(seed=seed, rounds=self.ROUNDS)
        engine = _build_engine(scenario)
        trace = [engine.current_discrepancy()]
        totals = [float(engine.total_real_load())]
        path = tmp_path / name
        sizes = []
        while engine.round_index < stop:
            _step_and_write(engine, path, cadence, trace, totals, self.ROUNDS)
            sizes.append(_sidecar(path).read_bytes())
        return scenario, engine, path, sizes

    def test_the_json_holds_no_history(self, tmp_path):
        _, engine, path, _ = self._run(tmp_path)
        data = json.loads(path.read_text())
        assert data["version"] == CHECKPOINT_VERSION == 2
        assert "timeline" not in data["state"] and "trace_max_min" not in data
        assert data["history"]["events"] == len(engine.timeline)
        assert data["history"]["trace"] == engine.round_index + 1
        assert data["history"]["bytes"] == _sidecar(path).stat().st_size

    def test_writes_append_only_the_new_rows(self, tmp_path):
        _, engine, path, sizes = self._run(tmp_path, stop=16)
        assert len({json.loads(path.read_text())["history"]["file"]}) == 1
        for before, after in zip(sizes, sizes[1:]):
            assert after.startswith(before) and len(after) > len(before)
        # rewriting the same snapshot appends nothing
        write_checkpoint(read_checkpoint(path), path)
        assert _sidecar(path).read_bytes() == sizes[-1]

    def test_resume_rewrites_then_appends(self, tmp_path):
        scenario, _, path, _ = self._run(tmp_path)
        old = _sidecar(path)
        result = resume_stream(path, generator=_fresh_generator(scenario),
                               checkpoint_every=4)
        new = _sidecar(path)
        assert new != old and not old.exists()
        assert result.trace_max_min == run_scenario(scenario).trace_max_min
        resumed = resume_stream(path, generator=_fresh_generator(scenario))
        assert resumed.trace_max_min == result.trace_max_min
        assert resumed.event_timeline == result.event_timeline

    def test_trailing_bytes_past_the_offsets_are_ignored(self, tmp_path):
        scenario, engine, path, _ = self._run(tmp_path)
        baseline = run_scenario(scenario)
        with open(_sidecar(path), "ab") as handle:
            handle.write(b"half-written block from a crash")
        assert resume_stream(path, generator=_fresh_generator(scenario)).trace_max_min \
            == baseline.trace_max_min
        # the next write of the same run drops them and appends after the offsets
        trace = list(read_checkpoint(path).trace_max_min)
        totals = list(read_checkpoint(path).trace_total_weight)
        _step_and_write(engine, path, 4, trace, totals, self.ROUNDS)
        assert b"half-written" not in _sidecar(path).read_bytes()
        resumed = resume_stream(path, generator=_fresh_generator(scenario))
        assert resumed.trace_max_min == baseline.trace_max_min
        assert resumed.event_timeline == baseline.event_timeline

    def test_short_sidecar_rejected(self, tmp_path):
        _, _, path, _ = self._run(tmp_path)
        sidecar = _sidecar(path)
        with open(sidecar, "rb+") as handle:
            handle.truncate(sidecar.stat().st_size - 5)
        with pytest.raises(CheckpointError, match="ends at byte"):
            read_checkpoint(path)

    def test_missing_sidecar_rejected(self, tmp_path):
        _, _, path, _ = self._run(tmp_path)
        _sidecar(path).unlink()
        with pytest.raises(CheckpointError, match="cannot be read"):
            read_checkpoint(path)

    def test_damaged_block_rejected(self, tmp_path):
        _, _, path, _ = self._run(tmp_path)
        sidecar = _sidecar(path)
        data = bytearray(sidecar.read_bytes())
        data[-3] ^= 0xFF
        sidecar.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="damaged block"):
            read_checkpoint(path)

    def test_another_runs_sidecar_is_never_appended_to(self, tmp_path):
        """A second run writing to the same path starts its own sidecar.

        Its first write already holds more rows than the first run's, so
        only the lineage tells the two histories apart.
        """
        _, _, path, _ = self._run(tmp_path, seed=13, stop=4)
        first = _sidecar(path)
        witness = tmp_path / "witness"
        os.link(first, witness)  # keeps the first sidecar's bytes after it is removed
        before = witness.read_bytes()
        other, _, _, _ = self._run(tmp_path, seed=14, stop=16, cadence=8)
        assert _sidecar(path) != first and not first.exists()
        assert witness.read_bytes() == before
        resumed = resume_stream(path, generator=_fresh_generator(other))
        assert resumed.trace_max_min == run_scenario(other).trace_max_min
        assert len(list(tmp_path.glob("ckpt.json.*.history"))) == 1

    def test_an_older_snapshot_of_the_same_run_gets_a_fresh_sidecar(self, tmp_path):
        scenario = _scenario(rounds=self.ROUNDS)
        engine = _build_engine(scenario)
        trace, totals = [engine.current_discrepancy()], [float(engine.total_real_load())]
        path = _step_and_write(engine, tmp_path / "ckpt.json", 4, trace, totals, self.ROUNDS)
        older = read_checkpoint(path)
        _step_and_write(engine, path, 4, trace, totals, self.ROUNDS)
        newer = _sidecar(path)
        write_checkpoint(older, path)
        assert _sidecar(path) != newer
        assert read_checkpoint(path).round_index == 4
        assert resume_stream(path, generator=_fresh_generator(scenario)).trace_max_min \
            == run_scenario(scenario).trace_max_min

    def test_sidecar_of_a_fresh_write_is_deterministic(self, tmp_path):
        _, _, first, _ = self._run(tmp_path / "a")
        _, _, second, _ = self._run(tmp_path / "b")
        assert _sidecar(first).read_bytes() == _sidecar(second).read_bytes()


class TestCheckpointPhases:
    def _roundtrip(self, tmp_path):
        scenario = _scenario(rounds=8)
        engine = _build_engine(scenario)
        for _ in range(4):
            engine.step()
        path = write_checkpoint(checkpoint_engine(engine, total_rounds=8), tmp_path / "c.json")
        restore_engine(read_checkpoint(path), generator=_fresh_generator(scenario))

    def test_an_active_clock_times_write_read_and_replay(self, tmp_path):
        clock = activate_kernel_clock()
        try:
            self._roundtrip(tmp_path)
        finally:
            deactivate_kernel_clock()
        for phase in ("checkpoint/write", "checkpoint/read", "checkpoint/replay"):
            assert clock.counts.get(phase) == 1, phase
            assert clock.totals[phase] > 0.0

    def test_an_inactive_clock_reads_no_time(self, tmp_path, monkeypatch):
        reads = []

        class CountingClock:
            @staticmethod
            def perf_counter():
                reads.append(1)
                return 0.0

        monkeypatch.setattr(kernels, "time", CountingClock)
        deactivate_kernel_clock()
        self._roundtrip(tmp_path)
        assert reads == []


class Flood(EventGenerator):
    """``rows`` arrivals of ``tokens`` each per round, spread over the labels."""

    def __init__(self, tokens=1, rows=500):
        self._tokens, self._rows = tokens, rows

    def events(self, view):
        return EventBatch.of(ARRIVAL, np.resize(view.labels, self._rows),
                             np.full(self._rows, self._tokens))


class TestRestoredLog:
    """A restored engine grows the event log it read, in place."""

    ROWS = 500

    def _checkpoint(self, tmp_path, rounds=40):
        engine = StreamingEngine("algorithm1", topologies.torus(4), np.full(16, 4),
                                 Flood(rows=self.ROWS), seed=0)
        for _ in range(rounds):
            engine.step()
        path = write_checkpoint(checkpoint_engine(engine, total_rounds=rounds + 1),
                                tmp_path / "c.json")
        return engine, read_checkpoint(path)

    def test_first_step_allocates_the_new_rows_not_the_log(self, tmp_path):
        engine, checkpoint = self._checkpoint(tmp_path)
        restored = restore_engine(checkpoint, generator=Flood(rows=self.ROWS))
        log_bytes = restored.timeline.rows().nbytes
        assert log_bytes == 40 * self.ROWS * 48
        tracemalloc.start()
        try:
            restored.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < log_bytes / 8, (peak, log_bytes)
        engine.step()
        assert restored.timeline == engine.timeline
        assert len(checkpoint.state["timeline"]) == 40 * self.ROWS

    def test_engines_restored_from_one_checkpoint_keep_their_own_rows(self, tmp_path):
        _, checkpoint = self._checkpoint(tmp_path, rounds=4)
        before = list(checkpoint.state["timeline"])
        first = restore_engine(checkpoint, generator=Flood(tokens=1, rows=self.ROWS))
        second = restore_engine(checkpoint, generator=Flood(tokens=2, rows=self.ROWS))
        for _ in range(3):
            first.step()
            second.step()
        for engine, tokens in ((first, 1), (second, 2)):
            assert engine.timeline[:len(before)] == before
            assert set(engine.timeline.column("tokens")[len(before):].tolist()) == {tokens}
        assert checkpoint.state["timeline"] == before
