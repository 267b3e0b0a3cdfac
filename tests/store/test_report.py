"""Tests for cross-run reports and the regression instrument."""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.store import (
    RunRecord,
    check_regression,
    check_store_regression,
    comparison_rows,
    diff_rows,
    render_comparison,
)


def make_record(label="run", seed=1, trace=(8.0, 4.0, 2.0), max_min=2.0,
                seconds=0.1, config=None, result=True):
    record = RunRecord(
        label=label, kind="engine",
        config=config if config is not None else {"algorithm": "algorithm2",
                                                  "seed": seed},
        seeds=[seed],
        result=None if not result else {
            "final_max_min": max_min, "final_max_avg": max_min / 2,
            "rounds": len(trace) - 1, "dummy_tokens": 0,
            "trace_max_min": list(trace),
        },
        timing={} if seconds is None else {"seconds": seconds},
    )
    return record


class TestComparisonRows:
    def test_one_row_per_record(self):
        rows = comparison_rows([make_record("a"), make_record("b", seed=2)])
        assert [row["label"] for row in rows] == ["a", "b"]
        assert rows[0]["idx"] == "#0"
        assert rows[0]["max_min"] == 2.0
        assert rows[0]["algorithm"] == "algorithm2"

    def test_empty_errors(self):
        with pytest.raises(ExperimentError):
            comparison_rows([])

    def test_missing_result_and_timing_render_as_dash(self):
        row = comparison_rows([make_record(result=False, seconds=None)])[0]
        assert row["max_min"] == "-"
        assert row["seconds"] == "-"


class TestDiffRows:
    def test_delta_columns(self):
        base = make_record(max_min=2.0, seconds=0.1)
        cand = make_record(max_min=3.0, seconds=0.2)
        rows = {row["metric"]: row for row in diff_rows(base, cand)}
        assert rows["final_max_min"]["delta"] == 1.0
        assert rows["seconds"]["delta"] == pytest.approx(0.1)

    def test_missing_metrics_render_as_dash(self):
        rows = diff_rows(make_record(result=False, seconds=None), make_record())
        assert all(row["baseline"] == "-" for row in rows)


class TestRenderComparison:
    def test_charts_traces(self):
        text = render_comparison([make_record("a"), make_record("b")])
        assert "max-min discrepancy per round" in text
        assert "#0 a" in text and "#1 b" in text

    def test_without_traces(self):
        text = render_comparison([make_record(result=False)])
        assert "no stored trajectories" in text


class TestCheckRegression:
    def test_identical_records_pass(self):
        outcome = check_regression(make_record(), make_record())
        assert outcome.ok
        assert outcome.pairs_checked == 1
        assert "PASS" in outcome.summary()

    def test_metric_drift_fails(self):
        outcome = check_regression(make_record(max_min=2.0),
                                   make_record(max_min=2.5))
        checks = [violation.check for violation in outcome.violations]
        assert "final_max_min" in checks

    def test_improvement_never_fails(self):
        outcome = check_regression(make_record(max_min=2.0, trace=(8.0, 2.0)),
                                   make_record(max_min=1.0, trace=(8.0, 2.0)))
        assert not [v for v in outcome.violations
                    if v.check.startswith("final")]

    def test_metric_drift_within_threshold_passes(self):
        outcome = check_regression(make_record(max_min=2.0),
                                   make_record(max_min=2.5),
                                   max_metric_drift=1.0)
        assert not [v for v in outcome.violations
                    if v.check == "final_max_min"]

    def test_trace_drift_fails_with_round_location(self):
        outcome = check_regression(make_record(trace=(8.0, 4.0, 2.0)),
                                   make_record(trace=(8.0, 5.0, 2.0)))
        drift = [v for v in outcome.violations if v.check == "trace-drift"]
        assert drift and "round 1" in drift[0].detail

    def test_trace_length_change_fails(self):
        outcome = check_regression(make_record(trace=(8.0, 4.0, 2.0)),
                                   make_record(trace=(8.0, 4.0)))
        assert [v.check for v in outcome.violations] == ["trace-length"]

    def test_timing_check_is_opt_in(self):
        fast = make_record(seconds=0.1)
        slow = make_record(seconds=10.0)
        assert check_regression(fast, slow).ok
        outcome = check_regression(fast, slow, max_timing_ratio=2.0)
        timing = [v for v in outcome.violations if v.check == "timing"]
        assert timing and timing[0].candidate_value == 10.0

    def test_config_mismatch_short_circuits(self):
        outcome = check_regression(make_record(config={"seed": 1}),
                                   make_record(config={"seed": 2}))
        assert [v.check for v in outcome.violations] == ["config-hash"]

    def test_config_mismatch_can_be_waived(self):
        outcome = check_regression(make_record(config={"seed": 1}),
                                   make_record(config={"seed": 2}),
                                   require_config_match=False)
        assert outcome.ok


class TestCheckStoreRegression:
    def test_matches_by_config_hash(self):
        baseline = [make_record("a", seed=1), make_record("b", seed=2)]
        candidate = [make_record("fresh-b", seed=2), make_record("fresh-a", seed=1)]
        outcome = check_store_regression(baseline, candidate)
        assert outcome.ok
        assert outcome.pairs_checked == 2

    def test_missing_candidate_is_a_coverage_violation(self):
        outcome = check_store_regression([make_record(seed=1)],
                                         [make_record(seed=2)])
        assert [v.check for v in outcome.violations] == ["coverage"]

    def test_latest_candidate_wins(self):
        good = make_record(seed=1)
        bad = make_record(seed=1, max_min=9.0, trace=(8.0, 9.0))
        assert not check_store_regression([good], [good, bad]).ok
        assert check_store_regression([good], [bad, good]).ok

    def test_result_less_baseline_record_needs_a_candidate(self):
        """A failed cell's record (no result) must still be re-run."""
        failed = make_record(result=False)
        outcome = check_store_regression([failed], [])
        assert outcome.pairs_checked == 0
        assert [v.check for v in outcome.violations] == ["coverage"]
        assert not outcome.ok
        outcome = check_store_regression([failed], [make_record(result=False)])
        assert outcome.pairs_checked == 1
        assert outcome.ok

    def test_result_less_records_timing_checked_when_enabled(self):
        base = make_record(result=False, seconds=0.1)
        slow = make_record(result=False, seconds=10.0)
        outcome = check_store_regression([base], [slow], max_timing_ratio=2.0)
        assert [v.check for v in outcome.violations] == ["timing"]

    def test_violation_rows_are_table_ready(self):
        outcome = check_store_regression([make_record(seed=1)], [])
        row = outcome.violations[0].as_row()
        assert set(row) == {"check", "baseline", "base_value", "cand_value",
                            "detail"}
