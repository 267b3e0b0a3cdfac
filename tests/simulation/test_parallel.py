"""Tests for the sharded process-pool grid driver (:mod:`repro.simulation.parallel`).

The load-bearing property is **worker-count invariance**: the same grid run
at ``workers=1``, ``2`` and ``4`` must produce bit-identical results — the
merge is deterministic and every run is a pure function of its (cell, seed)
spec.  Randomized algorithms are included: their counter-based draws do not
depend on which worker runs a cell.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.simulation.parallel import (
    CellOutcome,
    GridCell,
    default_workers,
    merge_sweeps,
    run_cells,
    sweep_cells,
    timing_summary,
)
from repro.simulation.scenario import Scenario, expand_seeds, run_scenario
from repro.simulation.sweep import SweepConfiguration, run_sweep

WORKER_COUNTS = (1, 2, 4)


def small_config(algorithm="algorithm2"):
    return SweepConfiguration(algorithm=algorithm, topology="torus", num_nodes=16,
                              tokens_per_node=8, workload="uniform")


def scenario_results(kind, scenarios, workers):
    """Run scenarios as a grid of ``kind`` cells; results in input order."""
    cells = [GridCell(kind=kind, spec=scenario, index=index)
             for index, scenario in enumerate(scenarios)]
    return [outcome.result for outcome in run_cells(cells, workers=workers)]


def run_signature(run):
    """The comparable fingerprint of one run (trajectory included)."""
    return (run.final_max_min, run.final_max_avg, run.rounds, run.dummy_tokens,
            run.trace_max_min)


class TestWorkerCountInvariance:
    def test_sweep_identical_across_worker_counts(self):
        config = small_config()
        seeds = [1, 2, 3, 4]
        cells = sweep_cells([config], seeds, record_trace=True)
        results = [run_sweep(config, seeds, record_trace=True)] + [
            merge_sweeps([config], run_cells(cells, workers=workers))[0]
            for workers in WORKER_COUNTS[1:]]
        rows = [result.as_row() for result in results]
        assert rows[0] == rows[1] == rows[2]
        signatures = [[run_signature(run) for run in result.runs]
                      for result in results]
        assert signatures[0] == signatures[1] == signatures[2]

    def test_sweep_grid_identical_across_worker_counts(self):
        configurations = [
            SweepConfiguration(algorithm=algorithm, topology=topology,
                               num_nodes=size, tokens_per_node=8)
            for topology, size in (("cycle", 8), ("torus", 16))
            for algorithm in ("round-down", "algorithm1")]
        seeds = [1, 2]
        serial = [run_sweep(configuration, seeds)
                  for configuration in configurations]
        tables = [[result.as_row() for result in serial]]
        for workers in WORKER_COUNTS[1:]:
            results = merge_sweeps(configurations, run_cells(
                sweep_cells(configurations, seeds), workers=workers))
            tables.append([result.as_row() for result in results])
        assert tables[0] == tables[1] == tables[2]

    def test_dynamic_trajectories_identical_across_worker_counts(self):
        base = Scenario(name="inv", algorithm="algorithm2", topology="torus",
                        num_nodes=16, tokens_per_node=6, workload="uniform",
                        events="burst", rounds=40)
        scenarios = expand_seeds(base, [1, 2, 3, 4])
        serial = [run_scenario(scenario) for scenario in scenarios]
        for workers in WORKER_COUNTS[1:]:
            sharded = scenario_results("dynamic", scenarios, workers)
            assert [r.trace_max_min for r in sharded] == \
                [r.trace_max_min for r in serial]
            assert [r.trace_total_weight for r in sharded] == \
                [r.trace_total_weight for r in serial]
            assert [r.event_timeline for r in sharded] == \
                [r.event_timeline for r in serial]

    def test_static_scenarios_match_serial(self):
        scenarios = expand_seeds(
            Scenario(name="st", algorithm="algorithm1", topology="cycle",
                     num_nodes=8, tokens_per_node=8), [3, 4])
        serial = [run_scenario(scenario) for scenario in scenarios]
        sharded = scenario_results("scenario", scenarios, workers=2)
        assert [r.final_max_min for r in sharded] == \
            [r.final_max_min for r in serial]


class TestRunCells:
    def make_cells(self, count=3):
        config = small_config()
        return [GridCell(kind="sweep", spec=config, index=0, seed=seed)
                for seed in range(count)]

    def test_outcomes_preserve_input_order_and_carry_timing(self):
        cells = self.make_cells(5)
        outcomes = run_cells(cells, workers=2)
        assert [outcome.cell.seed for outcome in outcomes] == [0, 1, 2, 3, 4]
        for outcome in outcomes:
            assert isinstance(outcome, CellOutcome)
            assert outcome.seconds > 0
            assert outcome.worker_pid > 0

    def test_empty_grid(self):
        assert run_cells([], workers=4) == []

    def test_workers_capped_by_cells(self):
        outcomes = run_cells(self.make_cells(2), workers=8)
        assert len(outcomes) == 2

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ExperimentError):
            run_cells(self.make_cells(2), workers=0)

    def test_unknown_cell_kind_rejected(self):
        with pytest.raises(ExperimentError):
            GridCell(kind="frobnicate", spec=small_config(), index=0)

    def test_default_workers_bounds(self):
        assert default_workers(0) == 1
        assert 1 <= default_workers(100) <= 100

    def test_timing_summary(self):
        outcomes = run_cells(self.make_cells(3), workers=1)
        summary = timing_summary(outcomes)
        assert summary["cells"] == 3
        assert summary["busy_seconds"] > 0
        assert summary["workers_used"] == 1
        assert "wall_seconds" not in summary
        assert timing_summary([])["cells"] == 0

    def test_timing_summary_reports_wall_clock_and_utilization(self):
        outcomes = run_cells(self.make_cells(3), workers=1)
        busy = sum(outcome.seconds for outcome in outcomes)
        summary = timing_summary(outcomes, wall_seconds=busy * 2)
        assert summary["wall_seconds"] == round(busy * 2, 4)
        # one worker kept busy for half the wall-clock
        assert summary["utilization"] == pytest.approx(0.5)
        assert timing_summary(outcomes, wall_seconds=0.0)["utilization"] == 0.0
        empty = timing_summary([], wall_seconds=1.5)
        assert empty["wall_seconds"] == 1.5
        assert empty["cells"] == 0


class TestGridApi:
    def test_sweep_cells_requires_seeds(self):
        with pytest.raises(ExperimentError):
            sweep_cells([small_config()], seeds=[])

    def test_merge_sweeps_merges_per_configuration(self):
        configs = [small_config(), small_config(algorithm="algorithm1")]
        outcomes = run_cells(sweep_cells(configs, seeds=[1, 2, 3]), workers=2)
        results = merge_sweeps(configs, outcomes)
        assert [result.configuration for result in results] == configs
        assert all(result.num_runs == 3 for result in results)

    def test_dynamic_grid_preserves_order(self):
        scenarios = expand_seeds(
            Scenario(name="ord", algorithm="round-down", topology="cycle",
                     num_nodes=8, tokens_per_node=4, workload="uniform",
                     events="burst", rounds=12), [9, 8, 7])
        results = scenario_results("dynamic", scenarios, workers=2)
        assert len(results) == 3

    def test_empty_scenario_list(self):
        assert scenario_results("scenario", [], workers=2) == []
