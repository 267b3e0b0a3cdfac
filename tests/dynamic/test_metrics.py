"""Tests for the dynamic metrics (steady state, recovery, drain rate)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.dynamic.events import ARRIVAL, DynamicEvent, ScheduledEvents
from repro.dynamic.metrics import (
    burst_rounds,
    drain_rate,
    recovery_report,
    recovery_time,
    steady_state_discrepancy,
    summarize_dynamic,
    time_in_band,
)
from repro.dynamic.stream import EventTimeline, run_stream
from repro.exceptions import ExperimentError
from repro.network import topologies
from repro.simulation.results import RunResult
from repro.simulation.scenario import Scenario, run_scenario


def make_result(trace, timeline):
    return RunResult(
        algorithm="algorithm2", continuous_kind="fos", network_name="test+dynamic",
        num_nodes=4, max_degree=2, rounds=len(trace) - 1, total_weight=10.0,
        max_task_weight=1.0, final_max_min=trace[-1], final_max_avg=trace[-1] / 2,
        trace_max_min=list(trace), event_timeline=list(timeline),
    )


class TestSteadyState:
    def test_trailing_window_mean(self):
        trace = [100.0] * 10 + [2.0, 4.0]
        assert steady_state_discrepancy(trace, window=2) == 3.0

    def test_window_larger_than_trace_uses_whole_trace(self):
        assert steady_state_discrepancy([2.0, 4.0], window=50) == 3.0

    def test_empty_trace_rejected(self):
        with pytest.raises(ExperimentError):
            steady_state_discrepancy([])


class TestRecoveryTime:
    # Trace semantics: index t is the state after round t-1, so an event at
    # round r first shows at index r+1.
    TRACE = [2.0, 2.0, 30.0, 20.0, 9.0, 3.0]

    def test_measures_rounds_until_band_reentry(self):
        assert recovery_time(self.TRACE, event_round=1, band=10.0) == 3

    def test_none_when_never_recovering(self):
        assert recovery_time([2.0, 50.0, 40.0], event_round=0, band=10.0) is None

    def test_searches_strictly_after_the_event(self):
        # the in-band state at the event index itself must not count
        assert recovery_time([1.0, 99.0, 5.0], event_round=0, band=10.0) == 2


class TestDrainAndBand:
    def test_drain_rate(self):
        assert drain_rate([30.0, 20.0, 10.0], 0, 2) == 10.0

    def test_drain_rate_rejects_bad_window(self):
        with pytest.raises(ExperimentError):
            drain_rate([1.0, 2.0], 1, 1)

    def test_time_in_band(self):
        assert time_in_band([1.0, 20.0, 2.0, 3.0], band=5.0) == 0.75


class TestTimelineHelpers:
    TIMELINE = [
        {"round": 3, "kind": "arrival", "tokens": 50, "tag": "burst", "applied": True},
        {"round": 5, "kind": "arrival", "tokens": 1, "tag": "", "applied": True},
        {"round": 9, "kind": "arrival", "tokens": 50, "tag": "burst", "applied": False},
        {"round": 12, "kind": "arrival", "tokens": 50, "tag": "burst", "applied": True},
    ]

    def test_burst_rounds_filters_tag_and_applied(self):
        assert burst_rounds(self.TIMELINE) == [3, 12]

    def test_recovery_report(self):
        trace = [2.0] * 4 + [40.0, 15.0, 8.0] + [2.0] * 6 + [35.0, 12.0, 9.0]
        result = make_result(trace, self.TIMELINE)
        reports = recovery_report(result, band=10.0)
        assert [entry["round"] for entry in reports] == [3, 12]
        first, second = reports
        assert first["peak"] == 40.0
        assert first["recovery_time"] == 3
        assert first["drain_rate"] == pytest.approx((40.0 - 8.0) / 2)
        assert second["recovery_time"] == 3

    def test_summarize_dynamic(self):
        trace = [2.0] * 4 + [40.0, 15.0, 8.0] + [2.0] * 10
        result = make_result(trace, self.TIMELINE[:1])
        summary = summarize_dynamic(result, band=10.0, window=5)
        assert summary["bursts"] == 1
        assert summary["recovered_bursts"] == 1
        assert summary["mean_recovery_time"] == 3.0
        assert summary["steady_state"] == 2.0
        assert summary["final_max_min"] == 2.0

    def test_summarize_requires_trace(self):
        result = make_result([1.0], [])
        result.trace_max_min = None
        with pytest.raises(ExperimentError):
            summarize_dynamic(result, band=10.0)


class TestSameRoundBursts:
    """Regression: two bursts on one round used to make the peak window empty."""

    def double_burst(self, round_index):
        entry = {"round": round_index, "kind": "arrival", "tokens": 25,
                 "tag": "burst", "applied": True}
        return [dict(entry), dict(entry)]

    def test_same_round_bursts_are_one_disturbance(self):
        trace = [2.0] * 4 + [40.0, 15.0, 8.0] + [2.0] * 4
        result = make_result(trace, self.double_burst(3))
        reports = recovery_report(result, band=10.0)
        assert len(reports) == 1
        assert reports[0]["peak"] == 40.0  # was NaN before the dedupe
        assert reports[0]["recovery_time"] == 3

    def test_same_round_bursts_out_of_order_timeline(self):
        trace = [2.0] * 4 + [40.0, 8.0] + [2.0] * 3 + [30.0, 7.0]
        timeline = self.double_burst(8)[:1] + self.double_burst(3)
        result = make_result(trace, timeline)
        reports = recovery_report(result, band=10.0)
        assert [entry["round"] for entry in reports] == [3, 8]
        assert [entry["peak"] for entry in reports] == [40.0, 30.0]

    def test_burst_on_final_round_has_empty_window(self):
        # A burst applied at the last recorded round has no post-event state:
        # the peak is NaN by contract and the burst cannot have recovered.
        import math

        trace = [2.0, 2.0, 2.0]
        result = make_result(trace, self.double_burst(2))
        reports = recovery_report(result, band=10.0)
        assert len(reports) == 1
        assert math.isnan(reports[0]["peak"])
        assert reports[0]["recovery_time"] is None


class TestWarmupStart:
    TIMELINE = []

    def test_time_in_band_excludes_warmup_prefix(self):
        # Point-load start: 4 out-of-band warm-up entries, then in-band.
        trace = [50.0] * 4 + [2.0] * 12
        result = make_result(trace, [])
        diluted = summarize_dynamic(result, band=10.0)
        steady = summarize_dynamic(result, band=10.0, start=4)
        assert diluted["time_in_band"] == 0.75
        assert steady["time_in_band"] == 1.0

    def test_negative_start_rejected(self):
        result = make_result([1.0, 2.0], [])
        with pytest.raises(ExperimentError):
            summarize_dynamic(result, band=10.0, start=-1)


class TestColumnarBurstScan:
    """A stream's timeline view is scanned by columns; the result equals the dict scan."""

    @pytest.mark.parametrize("profile,seed", [("mixed", 1), ("burst", 4), ("mixed", 9)])
    def test_view_path_equals_dict_path(self, profile, seed):
        scenario = Scenario(name="scan", algorithm="algorithm2", topology="torus",
                            num_nodes=16, tokens_per_node=6, workload="uniform",
                            rounds=120, events=profile, seed=seed)
        result = run_scenario(scenario)
        view = result.event_timeline
        assert isinstance(view, EventTimeline)
        listed = replace(result, event_timeline=list(view))
        for tag in sorted(set(view.tags)) + ["never-used"]:
            assert burst_rounds(view, tag=tag) == burst_rounds(list(view), tag=tag)
        assert burst_rounds(view), "the stream fired no applied burst"
        assert recovery_report(result, band=10.0) == recovery_report(listed, band=10.0)
        assert summarize_dynamic(result, band=10.0) == summarize_dynamic(listed, band=10.0)

    def test_rejected_and_other_tagged_events_are_skipped(self):
        network = topologies.cycle(6)
        generator = ScheduledEvents({
            2: [DynamicEvent(ARRIVAL, node=1, tokens=30, tag="burst"),
                DynamicEvent(ARRIVAL, node=99, tokens=30, tag="burst")],
            4: [DynamicEvent(ARRIVAL, node=42, tokens=30, tag="burst")],
            5: [DynamicEvent(ARRIVAL, node=2, tokens=5, tag="trickle")],
            7: [DynamicEvent(ARRIVAL, node=3, tokens=30, tag="burst")],
        })
        result = run_stream("algorithm2", network, np.full(6, 4), generator, rounds=10, seed=0)
        view = result.event_timeline
        assert [entry["applied"] for entry in view] == [True, False, False, True, True]
        assert burst_rounds(view) == burst_rounds(list(view)) == [2, 7]
        assert burst_rounds(view, tag="trickle") == [5]
