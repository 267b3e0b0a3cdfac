"""Tests for cross-process telemetry capture and relay (:mod:`repro.obs.relay`).

The load-bearing property is **worker-count invariance of the relayed
stream**: a grid run at ``workers=1``, ``2`` and ``4`` must relay the same
events in the same order — the serial per-cell stream plus attribution — and
capturing telemetry must never change a trajectory.
"""

from __future__ import annotations

import io

import pytest

from repro.obs import (
    EventLog,
    GridProgress,
    MetricsBus,
    TelemetryEvent,
    TelemetryRecorder,
    event_signature,
    relay_outcome,
)
from repro.obs.relay import CapturedEvent
from repro.simulation.parallel import run_cells, sweep_cells
from repro.simulation.scenario import run_scenario
from repro.simulation.sweep import SweepConfiguration

WORKER_COUNTS = (1, 2, 4)


def small_grid_cells(seeds=(1, 2, 3)):
    configurations = [
        SweepConfiguration(algorithm=algorithm, topology="torus", num_nodes=16,
                           tokens_per_node=8, rng_mode="counter")
        for algorithm in ("algorithm2", "round-down")
    ]
    return configurations, sweep_cells(configurations, list(seeds))


def relayed_events(cells, workers):
    bus = MetricsBus()
    with EventLog(bus) as log:
        outcomes = run_cells(cells, workers=workers, bus=bus)
    return log.events, outcomes


class TestWorkerCountInvariance:
    def test_relayed_stream_identical_across_worker_counts(self):
        _, cells = small_grid_cells()
        streams = [relayed_events(cells, workers)[0]
                   for workers in WORKER_COUNTS]
        signatures = [[event_signature(event) for event in stream]
                      for stream in streams]
        assert signatures[0] == signatures[1] == signatures[2]
        # the streams are non-trivial: every cell contributed rounds
        assert len(signatures[0]) > len(cells)

    def test_relayed_stream_matches_serial_modulo_attribution(self):
        _, cells = small_grid_cells(seeds=(5, 6))
        relayed, _ = relayed_events(cells, workers=2)
        relayed = [event for event in relayed if event.kind != "cell_done"]

        serial = []
        for cell in cells:
            bus = MetricsBus()
            with EventLog(bus) as log:
                run_scenario(cell.scenario(), bus=bus)
            serial.extend(log.events)

        assert [event_signature(event) for event in relayed] == \
            [event_signature(event) for event in serial]

    def test_trajectories_bit_identical_with_and_without_capture(self):
        _, cells = small_grid_cells()
        plain = run_cells(cells, workers=2, bus=None)
        bus = MetricsBus()
        with EventLog(bus):
            traced = run_cells(cells, workers=2, bus=bus)

        def fingerprint(outcome):
            result = outcome.result
            return (result.final_max_min, result.final_max_avg,
                    result.rounds, result.dummy_tokens)

        assert [fingerprint(outcome) for outcome in plain] == \
            [fingerprint(outcome) for outcome in traced]
        assert all(outcome.events is None for outcome in plain)
        assert all(outcome.events for outcome in traced)


class TestRelayAttribution:
    def test_relayed_events_carry_attribution(self):
        _, cells = small_grid_cells(seeds=(1, 2))
        events, outcomes = relayed_events(cells, workers=2)
        relayed = [event for event in events if event.kind != "cell_done"]
        assert relayed
        worker_pids = {outcome.worker_pid for outcome in outcomes}
        for event in relayed:
            for key in ("worker", "cell", "cell_seed", "ts"):
                assert key in event.payload
            assert event.payload["worker"] in worker_pids
        # cell attribution is the flat grid position: one lane per cell
        assert {event.payload["cell"] for event in relayed} == \
            set(range(len(cells)))

    def test_cell_done_positions_are_input_order(self):
        _, cells = small_grid_cells(seeds=(1, 2))
        events, _ = relayed_events(cells, workers=2)
        envelopes = [event for event in events if event.kind == "cell_done"]
        assert [event.payload["position"] for event in envelopes] == \
            list(range(len(cells)))
        for envelope in envelopes:
            assert envelope.payload["started"] > 0
            assert envelope.payload["seconds"] > 0


class TestRelayOutcome:
    def make_captured(self, payload=None):
        return [CapturedEvent(ts=1.5, kind="round", source="engine",
                              round_index=0, payload=dict(payload or {}))]

    def test_attribution_added_and_original_keys_win(self):
        bus = MetricsBus()
        with EventLog(bus) as log:
            count = relay_outcome(bus, self.make_captured({"worker": "mine",
                                                           "max_min": 2.0}),
                                  worker=77, cell=3, cell_seed=9)
        assert count == 1
        payload = log.events[0].payload
        assert payload["worker"] == "mine"  # original payload key wins
        assert payload["cell"] == 3
        assert payload["cell_seed"] == 9
        assert payload["ts"] == 1.5
        assert payload["max_min"] == 2.0

    def test_noop_without_audience_or_events(self):
        assert relay_outcome(None, self.make_captured(), 1, 0, 0) == 0
        assert relay_outcome(MetricsBus(), self.make_captured(), 1, 0, 0) == 0
        bus = MetricsBus()
        with EventLog(bus):
            assert relay_outcome(bus, [], 1, 0, 0) == 0


class TestTelemetryRecorder:
    def test_freezes_events_with_capture_timestamp(self):
        ticks = iter([10.0, 20.0])
        recorder = TelemetryRecorder(clock=lambda: next(ticks))
        bus = MetricsBus()
        bus.subscribe(recorder)
        bus.emit("round", "engine", round_index=0, max_min=4.0)
        bus.emit("run_end", "engine", rounds=1)
        first, second = recorder.events
        assert (first.ts, first.kind, first.round_index) == (10.0, "round", 0)
        assert first.payload == {"max_min": 4.0}
        assert (second.ts, second.kind) == (20.0, "run_end")


class TestEventSignature:
    def test_strips_attribution_and_timing(self):
        event = TelemetryEvent(kind="round", source="engine", round_index=2,
                               payload={"worker": 9, "cell": 1, "cell_seed": 3,
                                        "ts": 0.5, "kernel_seconds": 0.01,
                                        "kernel_phases": {"a": 1}, "max_min": 2.0})
        bare = TelemetryEvent(kind="round", source="engine", round_index=2,
                              payload={"max_min": 2.0})
        assert event_signature(event) == event_signature(bare)

    def test_timing_false_keeps_timing_fields(self):
        slow = TelemetryEvent(kind="round", source="engine", round_index=0,
                              payload={"kernel_seconds": 0.9})
        fast = TelemetryEvent(kind="round", source="engine", round_index=0,
                              payload={"kernel_seconds": 0.1})
        assert event_signature(slow) == event_signature(fast)
        assert event_signature(slow, timing=False) != \
            event_signature(fast, timing=False)


class TestGridProgress:
    def make(self, total=4):
        stream = io.StringIO()
        ticks = iter(float(i) for i in range(100))
        return GridProgress(total, label="t", stream=stream,
                            clock=lambda: next(ticks)), stream

    def test_non_tty_writes_one_flushed_line_per_update(self):
        progress, stream = self.make()
        progress.update(worker_pid=11, seconds=0.5)
        progress.update(worker_pid=12, seconds=0.25)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[t] 1/4 cells")
        assert "2 workers busy 0.8s" in lines[1]

    def test_eta_projection_and_completion(self):
        state = {"now": 0.0}
        progress = GridProgress(4, label="t", stream=io.StringIO(),
                                clock=lambda: state["now"])
        state["now"] = 3.0
        progress.update()  # 1/4 done after 3s -> 9s to go at this rate
        assert progress.eta_seconds == pytest.approx(9.0)
        for _ in range(3):
            progress.update()
        assert progress.eta_seconds is None

    def test_subscriber_filters_to_cell_done(self):
        progress, _ = self.make()
        progress(TelemetryEvent(kind="round", source="engine"))
        assert progress.done == 0
        progress(TelemetryEvent(kind="cell_done", source="parallel",
                                payload={"worker_pid": 5, "seconds": 1.0}))
        assert progress.done == 1
        assert progress.busy_by_worker == {5: 1.0}

    def test_finish_reports_utilization(self):
        progress, stream = self.make(total=2)
        progress.update(worker_pid=1, seconds=2.0)
        progress.update(worker_pid=2, seconds=2.0)
        summary = progress.finish()
        assert summary in stream.getvalue()
        assert "2/2 cells" in summary
        assert "2 worker(s)" in summary
        assert "utilization" in summary
