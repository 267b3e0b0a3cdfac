"""Self-healing grid driver: retries, timeouts, crashes, graceful degradation.

The central invariant: because every grid cell is a pure function of its
picklable spec, a grid that survived injected faults (in-cell exceptions,
worker kills, timeouts) merges **bit-identically** to a fault-free grid —
and the relayed telemetry stream stays invariant under worker count and
retry count, since only successful attempts relay.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError, FaultInjected
from repro.faults import FaultPlan, random_fault_plan
from repro.obs.bus import MetricsBus
from repro.obs.progress import GridProgress
from repro.obs.relay import event_signature
from repro.simulation.parallel import (
    CellOutcome,
    GridCell,
    _backoff_delay,
    failed_cells,
    run_cells,
    timing_summary,
)
from repro.simulation.scenario import Scenario


def _cells(count=5, rounds=24):
    return [
        GridCell(
            kind="dynamic",
            spec=Scenario(
                name=f"ft-{index}", algorithm="randomized-rounding",
                topology="cycle", num_nodes=10, tokens_per_node=5,
                workload="uniform", rounds=rounds, events="mixed",
                seed=50 + index, rng_mode="counter"),
            index=index)
        for index in range(count)
    ]


def _traces(outcomes):
    return [outcome.result.trace_max_min for outcome in outcomes
            if outcome.result is not None]


@pytest.fixture(scope="module")
def baseline():
    """Fault-free outcomes of the shared grid (serial, trusted path)."""
    return run_cells(_cells(), workers=1)


class TestRetries:
    def test_injected_raises_are_retried_bit_identically(self, baseline):
        bus = MetricsBus()
        events = []
        bus.subscribe(events.append)
        plan = FaultPlan(raise_at={1: 2, 3: 1})
        outcomes = run_cells(_cells(), workers=2, max_retries=3, faults=plan,
                             bus=bus, retry_backoff=0.01)
        assert _traces(outcomes) == _traces(baseline)
        assert [outcome.attempts for outcome in outcomes] == [1, 3, 1, 2, 1]
        retries = [event for event in events if event.kind == "cell_retry"]
        assert len(retries) == 3
        assert {event.payload["position"] for event in retries} == {1, 3}
        assert all(event.payload["failure_kind"] == "error"
                   for event in retries)

    @pytest.mark.parametrize("plan, max_retries", [
        (FaultPlan(kill_at={2: 1}), 2),
        # raises and a kill in one campaign: a cell in flight on the killed
        # worker loses an attempt on top of its own raises
        (FaultPlan(raise_at={0: 1, 4: 2}, kill_at={2: 1}), 3),
    ], ids=["kill", "raises-and-kill"])
    def test_worker_kill_rebuilds_pool_bit_identically(self, baseline, plan, max_retries):
        outcomes = run_cells(_cells(), workers=2, max_retries=max_retries, faults=plan,
                             retry_backoff=0.01)
        assert _traces(outcomes) == _traces(baseline)
        # the killed worker's in-flight cells were re-attempted
        assert max(outcome.attempts for outcome in outcomes) >= 2
        assert not failed_cells(outcomes)

    def test_timeout_kills_and_retries_bit_identically(self, baseline):
        plan = FaultPlan(delay_at={0: 8.0})  # first attempt only
        outcomes = run_cells(_cells(), workers=2, cell_timeout=1.0,
                             max_retries=1, faults=plan, retry_backoff=0.01)
        assert _traces(outcomes) == _traces(baseline)
        assert outcomes[0].attempts == 2
        assert outcomes[0].result is not None

    def test_serial_retry_path(self, baseline):
        plan = FaultPlan(raise_at={1: 2})
        outcomes = run_cells(_cells(), workers=1, max_retries=2, faults=plan,
                             retry_backoff=0.0)
        assert _traces(outcomes) == _traces(baseline)
        assert outcomes[1].attempts == 3
        assert outcomes[1].retry_seconds >= 0.0

    def test_random_fault_plan_campaign_recovers(self, baseline):
        plan = random_fault_plan(5, seed=3, raise_fraction=0.5)
        assert plan.positions()  # seed 3 draws at least one fault
        outcomes = run_cells(_cells(), workers=2, max_retries=1, faults=plan,
                             retry_backoff=0.0)
        assert _traces(outcomes) == _traces(baseline)

    def test_backoff_is_deterministic_and_exponential(self):
        first = _backoff_delay(0.1, position=4, attempt=1)
        again = _backoff_delay(0.1, position=4, attempt=1)
        assert first == again
        assert _backoff_delay(0.1, 4, 3) > _backoff_delay(0.1, 4, 1)
        assert _backoff_delay(0.0, 4, 1) == 0.0


class TestStrictness:
    def test_strict_reraises_original_error(self):
        plan = FaultPlan(raise_at={0: 99})
        with pytest.raises(FaultInjected):
            run_cells(_cells(2), workers=2, max_retries=1, faults=plan,
                      retry_backoff=0.0)

    def test_strict_is_the_default_without_fault_options(self):
        # no fault-tolerance knobs: the first failure re-raises
        plan = FaultPlan(raise_at={0: 99})
        with pytest.raises(FaultInjected):
            run_cells(_cells(2), workers=1, faults=plan)

    def test_non_strict_returns_partial_results(self, baseline):
        bus = MetricsBus()
        events = []
        bus.subscribe(events.append)
        plan = FaultPlan(raise_at={3: 99})
        outcomes = run_cells(_cells(), workers=2, max_retries=1, strict=False,
                             faults=plan, bus=bus, retry_backoff=0.0)
        assert len(outcomes) == 5
        failures = failed_cells(outcomes)
        assert [failure.position for failure in failures] == [3]
        assert failures[0].kind == "error"
        assert failures[0].attempts == 2
        assert "FaultInjected" in failures[0].error
        assert outcomes[3].result is None
        assert outcomes[3].worker_pid == -1
        surviving = [trace for position, trace
                     in enumerate(_traces(baseline)) if position != 3]
        assert _traces(outcomes) == surviving
        failed_events = [event for event in events
                         if event.kind == "cell_failed"]
        assert len(failed_events) == 1
        assert failed_events[0].payload["position"] == 3

    def test_invalid_options_rejected(self):
        with pytest.raises(ExperimentError):
            run_cells(_cells(2), workers=2, max_retries=-1)
        with pytest.raises(ExperimentError):
            run_cells(_cells(2), workers=2, cell_timeout=0.0)


class TestTelemetryInvariance:
    def _relayed_signatures(self, workers, faults=None, max_retries=0):
        bus = MetricsBus()
        events = []
        bus.subscribe(events.append)
        run_cells(_cells(3, rounds=12), workers=workers, bus=bus,
                  faults=faults, max_retries=max_retries, retry_backoff=0.0)
        return [event_signature(event) for event in events
                if "worker" in event.payload]

    def test_relayed_stream_invariant_under_retries_and_workers(self):
        """Retries never pollute the relay: only successful attempts ride."""
        clean = self._relayed_signatures(workers=2)
        plan = FaultPlan(raise_at={0: 1, 2: 2})
        for workers in (1, 2, 3):
            faulty = self._relayed_signatures(workers=workers, faults=plan,
                                              max_retries=3)
            assert faulty == clean, (
                f"relayed stream changed at workers={workers} under faults")

    def test_driver_side_retry_events_not_worker_tagged(self):
        bus = MetricsBus()
        events = []
        bus.subscribe(events.append)
        run_cells(_cells(3, rounds=12), workers=2,
                  faults=FaultPlan(raise_at={1: 1}), max_retries=1,
                  retry_backoff=0.0, bus=bus)
        retry_events = [event for event in events
                        if event.kind == "cell_retry"]
        assert retry_events
        assert all("worker" not in event.payload for event in retry_events)


class TestTimingAccounting:
    def test_retry_seconds_not_counted_as_busy(self):
        plan = FaultPlan(raise_at={1: 2})
        outcomes = run_cells(_cells(3, rounds=12), workers=2, max_retries=2,
                             faults=plan, retry_backoff=0.0)
        summary = timing_summary(outcomes, wall_seconds=1.0)
        assert summary["retries"] == 2
        assert summary["retry_seconds"] >= 0.0
        busy = sum(outcome.seconds for outcome in outcomes)
        assert summary["busy_seconds"] == round(busy, 4)
        assert "failed_cells" not in summary

    def test_no_retry_keys_on_clean_grids(self, baseline):
        summary = timing_summary(baseline, wall_seconds=1.0)
        assert "retries" not in summary
        assert "failed_cells" not in summary
        assert summary["cells"] == 5

    def test_failed_cells_counted_separately(self):
        plan = FaultPlan(raise_at={0: 99})
        outcomes = run_cells(_cells(3, rounds=12), workers=2, max_retries=0,
                             strict=False, faults=plan, retry_backoff=0.0)
        summary = timing_summary(outcomes)
        assert summary["failed_cells"] == 1
        assert summary["cells"] == 3
        # only the two successful cells contribute busy seconds
        assert summary["busy_seconds"] == round(
            sum(outcome.seconds for outcome in outcomes
                if outcome.result is not None), 4)

    def test_all_failed_summary_has_no_extremes(self):
        cell = _cells(1, rounds=4)[0]
        outcome = CellOutcome(cell=cell, result=None, seconds=0.0,
                              worker_pid=-1, attempts=1)
        summary = timing_summary([outcome])
        assert summary["busy_seconds"] == 0.0
        assert "max_cell_seconds" not in summary
        assert summary["failed_cells"] == 1


class TestGridProgress:
    def test_retry_and_failure_counters(self, capsys):
        import io

        stream = io.StringIO()
        progress = GridProgress(4, label="t", stream=stream)
        progress.update(worker_pid=1, seconds=0.5)
        progress.note_retry()
        progress.note_retry()
        progress.note_failure()
        line = progress.status_line()
        assert "2 retries" in line
        assert "1 failed" in line
        assert progress.done == 2  # one success + one permanent failure
        summary = progress.finish()
        assert "2 retries" in summary
        assert "1 cells failed" in summary

    def test_bus_subscription_counts_retry_events(self):
        import io

        from repro.obs.bus import TelemetryEvent

        progress = GridProgress(2, stream=io.StringIO())
        progress(TelemetryEvent(kind="cell_retry", source="parallel",
                                round_index=None, payload={}))
        progress(TelemetryEvent(kind="cell_failed", source="parallel",
                                round_index=None, payload={}))
        assert progress.retries == 1
        assert progress.failed == 1


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(raise_at={0: 0})
        with pytest.raises(ValueError):
            FaultPlan(delay_at={0: -1.0})

    def test_empty_plan_uses_fast_path(self, baseline):
        outcomes = run_cells(_cells(), workers=1, faults=FaultPlan())
        assert _traces(outcomes) == _traces(baseline)

    def test_random_plan_is_deterministic(self):
        assert random_fault_plan(20, seed=9, raise_fraction=0.3) == \
            random_fault_plan(20, seed=9, raise_fraction=0.3)
        assert random_fault_plan(20, seed=9, raise_fraction=0.3) != \
            random_fault_plan(20, seed=10, raise_fraction=0.3)
