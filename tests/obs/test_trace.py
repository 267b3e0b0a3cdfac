"""Tests for span tracing and Chrome-trace export (:mod:`repro.obs.trace`)."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs import (
    EventLog,
    MetricsBus,
    Tracer,
    cell_trace_summary,
    validate_chrome_trace,
)
from repro.obs.kernels import active_kernel_clock
from repro.obs.trace import chrome_from_records, hot_kernel_rows
from repro.simulation.parallel import run_cells, sweep_cells
from repro.simulation.scenario import run_scenario
from repro.simulation.sweep import SweepConfiguration
from repro.store.runstore import RunRecord

KNOWN_PHASES = {"continuous/advance", "flow/object-round", "flow/array-round",
                "baseline/excess-array", "stream/generate", "stream/apply",
                "stream/sync", "stream/recouple-fast", "stream/recouple-full"}


def small_config(algorithm="algorithm2"):
    return SweepConfiguration(algorithm=algorithm, topology="torus",
                              num_nodes=16, tokens_per_node=8,
                              rng_mode="counter")


def traced_serial_run(seed=3, **tracer_kwargs):
    bus = MetricsBus()
    tracer = Tracer(label="test", **tracer_kwargs).attach(bus)
    try:
        result = run_scenario(small_config().scenario(seed), bus=bus)
    finally:
        tracer.detach()
    return tracer, result


def spans(tracer, cat):
    return [event for event in tracer.trace_events
            if event.get("ph") == "X" and event.get("cat") == cat]


class TestTracerSerialRun:
    def test_trace_is_well_formed(self):
        tracer, _ = traced_serial_run()
        assert validate_chrome_trace(tracer.to_chrome()) == []

    def test_run_and_round_spans(self):
        tracer, result = traced_serial_run()
        run_spans = spans(tracer, "run")
        assert [span["name"] for span in run_spans] == ["run:algorithm2"]
        round_spans = spans(tracer, "round")
        assert len(round_spans) == result.rounds
        for span in round_spans:
            assert span["dur"] >= 0
            assert span["pid"] == os.getpid()

    def test_kernel_phase_child_spans(self):
        tracer, result = traced_serial_run()
        kernel_spans = spans(tracer, "kernel")
        assert kernel_spans
        assert {span["name"] for span in kernel_spans} <= KNOWN_PHASES
        # phase children never start before their round span
        round_starts = sorted(span["ts"] for span in spans(tracer, "round"))
        assert min(span["ts"] for span in kernel_spans) >= round_starts[0]

    def test_summary_aggregates(self):
        tracer, result = traced_serial_run()
        summary = tracer.summary()
        assert summary["rounds"] == result.rounds
        assert summary["spans"] >= result.rounds + 1
        assert summary["kernel_seconds"] >= 0
        assert summary["phases"]
        for stats in summary["phases"].values():
            assert stats["count"] == result.rounds
            assert stats["seconds"] >= 0

    def test_hot_kernels_ranked_by_total_seconds(self):
        tracer, _ = traced_serial_run()
        rows = tracer.hot_kernels(top=3)
        assert rows
        assert len(rows) <= 3
        totals = [row["total_seconds"] for row in rows]
        assert totals == sorted(totals, reverse=True)
        for row in rows:
            assert set(row) == {"kernel", "calls", "total_seconds", "mean_ms"}

    def test_tracing_does_not_change_the_trajectory(self):
        untraced = run_scenario(small_config().scenario(3))
        _, traced = traced_serial_run(seed=3)
        assert traced.final_max_min == untraced.final_max_min
        assert traced.final_max_avg == untraced.final_max_avg
        assert traced.rounds == untraced.rounds
        assert traced.dummy_tokens == untraced.dummy_tokens

    def test_attach_twice_rejected_and_detach_releases_kernel_clock(self):
        bus = MetricsBus()
        tracer = Tracer().attach(bus)
        assert active_kernel_clock() is not None
        with pytest.raises(ValueError):
            tracer.attach(bus)
        tracer.detach()
        assert active_kernel_clock() is None

    def test_write_roundtrips_as_json(self, tmp_path):
        tracer, _ = traced_serial_run()
        path = tracer.write(tmp_path / "traces" / "out.json")
        trace = json.loads(path.read_text())
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["tracer"] == "test"
        assert trace["otherData"]["rounds"] == tracer.summary()["rounds"]


class TestTracerShardedGrid:
    def run_traced_grid(self, workers=2, seeds=(1, 2, 3)):
        configurations = [small_config(), small_config("round-down")]
        cells = sweep_cells(configurations, list(seeds))
        bus = MetricsBus()
        tracer = Tracer(label="grid").attach(bus)
        try:
            outcomes = run_cells(cells, workers=workers, bus=bus)
        finally:
            tracer.detach()
        return tracer, cells, outcomes

    def test_one_pid_per_worker_one_tid_per_cell(self):
        tracer, cells, outcomes = self.run_traced_grid(workers=2)
        assert validate_chrome_trace(tracer.to_chrome()) == []
        cell_spans = spans(tracer, "cell")
        assert len(cell_spans) == len(cells)
        assert {span["tid"] for span in cell_spans} == set(range(len(cells)))
        worker_pids = {outcome.worker_pid for outcome in outcomes}
        assert {span["pid"] for span in cell_spans} == worker_pids
        # every worker that ran cells shows round spans in its lane
        round_pids = {span["pid"] for span in spans(tracer, "round")}
        assert round_pids == worker_pids

    def test_round_spans_cover_every_cell(self):
        tracer, cells, outcomes = self.run_traced_grid(workers=2)
        round_tids = {span["tid"] for span in spans(tracer, "round")}
        assert round_tids == set(range(len(cells)))
        assert tracer.summary()["rounds"] == \
            sum(outcome.result.rounds for outcome in outcomes)


class TestCellTraceSummary:
    def captured_events(self):
        cells = sweep_cells([small_config()], [7])
        bus = MetricsBus()
        with EventLog(bus):
            outcomes = run_cells(cells, workers=1, bus=bus)
        return outcomes[0]

    def test_summarises_rounds_phases_and_counters(self):
        outcome = self.captured_events()
        summary = cell_trace_summary(outcome.events)
        assert summary["events"] == len(outcome.events)
        assert summary["rounds"] == outcome.result.rounds
        assert summary["kernel_seconds"] >= 0
        assert summary["phases"]
        assert set(summary["phases"]) <= KNOWN_PHASES
        # JSON friendly: survives a dumps round-trip unchanged
        assert json.loads(json.dumps(summary)) == summary

    def test_empty_stream(self):
        summary = cell_trace_summary([])
        assert summary == {"events": 0, "rounds": 0, "kernel_seconds": 0.0,
                           "phases": {}}


class TestStoreRecordConversion:
    def make_records(self):
        def record(label, pid, seconds, phases, rounds):
            return RunRecord(
                label=label, kind="sweep", config={"label": label},
                timing={"seconds": seconds, "worker_pid": pid,
                        "trace": {"rounds": rounds,
                                  "kernel_seconds": sum(phases.values()) + 0.01,
                                  "phases": phases}})

        return [
            record("a", 100, 0.5, {"continuous/advance": 0.2,
                                   "flow/array-round": 0.1}, 10),
            record("b", 100, 0.25, {"continuous/advance": 0.05}, 5),
            record("c", 200, 0.75, {"flow/array-round": 0.6}, 20),
        ]

    def test_chrome_from_records_is_valid_and_sequential_per_worker(self):
        trace = chrome_from_records(self.make_records())
        assert validate_chrome_trace(trace) == []
        cell_spans = [event for event in trace["traceEvents"]
                      if event.get("cat") == "cell"]
        assert len(cell_spans) == 3
        assert {span["tid"] for span in cell_spans} == {0, 1, 2}
        # cells of one worker are laid out back to back
        by_pid = [span for span in cell_spans if span["pid"] == 100]
        assert by_pid[1]["ts"] == pytest.approx(by_pid[0]["ts"] + by_pid[0]["dur"])
        kernel_spans = [event for event in trace["traceEvents"]
                        if event.get("cat") == "kernel"]
        assert {span["name"] for span in kernel_spans} == \
            {"continuous/advance", "flow/array-round"}

    def test_hot_kernel_rows_aggregate_across_records(self):
        rows = hot_kernel_rows(self.make_records())
        by_name = {row["kernel"]: row for row in rows}
        assert by_name["flow/array-round"]["total_seconds"] == pytest.approx(0.7)
        assert by_name["flow/array-round"]["rounds"] == 30
        assert by_name["continuous/advance"]["total_seconds"] == pytest.approx(0.25)
        assert by_name["(unattributed round time)"]["total_seconds"] == \
            pytest.approx(0.03)
        totals = [row["total_seconds"] for row in rows]
        assert totals == sorted(totals, reverse=True)

    def test_hot_kernel_rows_top_limits_output(self):
        assert len(hot_kernel_rows(self.make_records(), top=1)) == 1

    def test_records_without_traces_are_harmless(self):
        record = RunRecord(label="bare", kind="sweep", config={},
                           timing={"seconds": 0.1, "worker_pid": 1})
        assert hot_kernel_rows([record]) == []
        assert validate_chrome_trace(chrome_from_records([record])) == []


class TestValidateChromeTrace:
    def test_missing_trace_events(self):
        assert validate_chrome_trace({}) == \
            ["traceEvents is missing or not a list"]

    def test_flags_malformed_events(self):
        trace = {"traceEvents": [
            "not an object",
            {"name": "no phase"},
            {"ph": "X", "name": "bad", "pid": "one", "tid": 0,
             "ts": 1.0, "dur": -2.0},
        ]}
        problems = validate_chrome_trace(trace)
        assert any("not an object" in problem for problem in problems)
        assert any("no phase" in problem for problem in problems)
        assert any("integer pid" in problem for problem in problems)
        assert any("non-negative dur" in problem for problem in problems)

    def test_metadata_events_are_exempt(self):
        trace = {"traceEvents": [{"ph": "M", "name": "process_name"}]}
        assert validate_chrome_trace(trace) == []
