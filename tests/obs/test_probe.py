"""Round-probe integration: telemetry is read-only and complete.

The two invariants that make the bus trustworthy:

* attaching a bus (with or without subscribers) never changes a trajectory —
  instrumented runs are bit-identical to uninstrumented ones;
* every executed round emits exactly one ``"round"`` event with the
  documented payload, and the run brackets with ``run_start`` / ``run_end``.
"""

from __future__ import annotations

import pytest

from repro.dynamic.events import BurstyArrivals
from repro.dynamic.stream import run_stream
from repro.network import topologies
from repro.obs import EventLog, MetricsBus
from repro.simulation.engine import run_algorithm
from repro.tasks.generators import point_load, uniform_random_load


def run_once(bus=None, algorithm="algorithm2", rounds=12, **kwargs):
    network = topologies.torus(4, dims=2)
    load = point_load(network, 32 * network.num_nodes)
    return run_algorithm(algorithm, network, initial_load=load, rounds=rounds,
                         seed=5, record_trace=True, bus=bus, **kwargs)


class TestEngineProbe:
    def test_trajectory_identical_with_and_without_bus(self):
        plain = run_once()
        bus = MetricsBus()
        with EventLog(bus):
            observed = run_once(bus=bus)
        assert observed.trace_max_min == plain.trace_max_min
        assert observed.final_max_min == plain.final_max_min
        assert observed.dummy_tokens == plain.dummy_tokens

    def test_one_round_event_per_executed_round(self):
        bus = MetricsBus()
        with EventLog(bus) as log:
            result = run_once(bus=bus)
        rounds = log.of_kind("round")
        assert len(rounds) == result.rounds
        assert [event.round_index for event in rounds] == list(range(result.rounds))

    def test_round_payload_contents(self):
        bus = MetricsBus()
        with EventLog(bus) as log:
            result = run_once(bus=bus)
        payload = log.of_kind("round")[-1].payload
        assert payload["algorithm"] == "algorithm2"
        assert payload["backend"] == result.extra["backend"]
        assert payload["rng_mode"] == "counter"
        assert payload["kernel_seconds"] >= 0.0
        assert payload["max_min"] == result.final_max_min
        # flow-imitation runs report the RoundReport counters per round
        assert "transfers" in payload and "tasks_moved" in payload
        assert "dummy_tokens_total" in payload

    def test_run_bracketed_by_start_and_end(self):
        bus = MetricsBus()
        with EventLog(bus) as log:
            result = run_once(bus=bus)
        assert log.kinds()[0] == "run_start"
        assert log.kinds()[-1] == "run_end"
        start = log.of_kind("run_start")[0].payload
        end = log.of_kind("run_end")[0].payload
        assert start["n"] == 16 and start["rng_mode"] == "counter"
        assert end["max_min"] == result.final_max_min
        assert end["kernel_seconds"] == pytest.approx(
            result.extra["kernel_seconds"])

    def test_kernel_seconds_recorded_in_extra(self):
        bus = MetricsBus()
        result = run_once(bus=bus)  # no subscriber: probe still accumulates
        assert result.extra["kernel_seconds"] > 0.0

    def test_no_bus_means_no_kernel_seconds(self):
        assert "kernel_seconds" not in run_once().extra

    def test_baseline_algorithms_report_went_negative(self):
        bus = MetricsBus()
        with EventLog(bus) as log:
            run_once(bus=bus, algorithm="round-down")
        payload = log.of_kind("round")[-1].payload
        assert "went_negative" in payload
        assert "transfers" not in payload

    def test_probe_detached_after_run(self):
        bus = MetricsBus()
        with EventLog(bus) as log:
            run_once(bus=bus)
        count = len(log.events)
        run_once()  # a fresh, uninstrumented run emits nothing
        assert len(log.events) == count


class TestStreamProbe:
    def run_stream_once(self, bus=None):
        network = topologies.torus(4, dims=2)
        load = uniform_random_load(network, 8 * network.num_nodes, seed=3)
        generator = BurstyArrivals(32, period=5, first_round=2, seed=3)
        return run_stream("algorithm2", network, load, generator, rounds=15,
                          seed=3, bus=bus)

    def test_trajectory_identical_with_and_without_bus(self):
        plain = self.run_stream_once()
        bus = MetricsBus()
        with EventLog(bus):
            observed = self.run_stream_once(bus=bus)
        assert observed.trace_max_min == plain.trace_max_min
        assert observed.trace_total_weight == plain.trace_total_weight
        assert observed.event_timeline == plain.event_timeline

    def test_stream_round_events(self):
        bus = MetricsBus()
        with EventLog(bus) as log:
            result = self.run_stream_once(bus=bus)
        stream_rounds = log.of_kind("stream_round")
        assert len(stream_rounds) == result.rounds
        payload = stream_rounds[-1].payload
        assert {"max_min", "total_load", "events_applied",
                "events_rejected", "recoupled"} <= set(payload)

    def test_recouple_events_match_recouplings(self):
        bus = MetricsBus()
        with EventLog(bus) as log:
            result = self.run_stream_once(bus=bus)
        recouples = log.of_kind("recouple")
        assert len(recouples) == result.extra["recouplings"]
        assert all(event.payload["mode"] in ("full", "fast")
                   for event in recouples)

    def test_kernel_seconds_in_extra(self):
        bus = MetricsBus()
        result = self.run_stream_once(bus=bus)
        assert result.extra["kernel_seconds"] > 0.0


class TestDriverCellEvents:
    def test_cell_done_envelope_per_cell(self):
        """The serial outcome driver publishes one cell_done event per cell."""
        from repro.obs import EventLog, MetricsBus
        from repro.simulation.parallel import run_cells, sweep_cells
        from repro.simulation.sweep import SweepConfiguration

        configuration = SweepConfiguration(
            algorithm="algorithm2", topology="torus", num_nodes=16,
            tokens_per_node=8, rng_mode="counter")
        bus = MetricsBus()
        with EventLog(bus, kinds=["cell_done"]) as log:
            outcomes = run_cells(sweep_cells([configuration], seeds=[1, 2]),
                                 bus=bus)
        assert len(log.events) == len(outcomes) == 2
        for event, outcome in zip(log.events, outcomes):
            assert event.payload["cell_kind"] == "sweep"
            assert event.payload["seed"] == outcome.cell.seed
            assert event.payload["seconds"] == outcome.seconds
            assert event.payload["max_min"] == outcome.result.final_max_min
