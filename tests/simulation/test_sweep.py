"""Tests for the multi-seed sweep harness (:mod:`repro.simulation.sweep`)."""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.simulation.sweep import SweepConfiguration, run_sweep


class TestConfiguration:
    def test_label_mentions_key_fields(self):
        config = SweepConfiguration(algorithm="algorithm1", topology="cycle", num_nodes=16)
        label = config.label()
        assert "algorithm1" in label and "cycle" in label

    def test_defaults(self):
        config = SweepConfiguration(algorithm="round-down")
        assert config.workload == "point"
        assert config.continuous_kind == "fos"


class TestRunSweep:
    def test_basic_sweep(self):
        config = SweepConfiguration(algorithm="algorithm1", topology="torus",
                                    num_nodes=16, tokens_per_node=8)
        result = run_sweep(config, seeds=[1, 2, 3])
        assert result.num_runs == 3
        stats = result.statistic("max_min")
        assert stats.count == 3
        assert stats.minimum >= 0

    def test_randomized_algorithm_varies_across_seeds(self):
        config = SweepConfiguration(algorithm="algorithm2", topology="torus",
                                    num_nodes=16, tokens_per_node=8, workload="uniform")
        result = run_sweep(config, seeds=[1, 2, 3, 4])
        assert result.statistic("max_min").maximum >= result.statistic("max_min").minimum

    def test_sweep_reproducible(self):
        config = SweepConfiguration(algorithm="algorithm2", topology="expander",
                                    num_nodes=16, tokens_per_node=8)
        a = run_sweep(config, seeds=[5, 6])
        b = run_sweep(config, seeds=[5, 6])
        assert [run.final_max_min for run in a.runs] == [run.final_max_min for run in b.runs]

    def test_as_row_fields(self):
        config = SweepConfiguration(algorithm="round-down", topology="cycle",
                                    num_nodes=8, tokens_per_node=8)
        result = run_sweep(config, seeds=[1])
        row = result.as_row()
        assert row["algorithm"] == "round-down"
        assert row["runs"] == 1
        assert "max_min_mean" in row and "rounds_mean" in row

    def test_matching_substrate_sweep(self):
        config = SweepConfiguration(algorithm="matching-round-down", topology="hypercube",
                                    num_nodes=16, tokens_per_node=8,
                                    continuous_kind="random-matching")
        result = run_sweep(config, seeds=[1, 2])
        assert result.num_runs == 2

    def test_unknown_metric(self):
        config = SweepConfiguration(algorithm="algorithm1", topology="cycle",
                                    num_nodes=8, tokens_per_node=4)
        result = run_sweep(config, seeds=[1])
        with pytest.raises(ExperimentError):
            result.statistic("latency")

    def test_validation_errors(self):
        with pytest.raises(ExperimentError):
            run_sweep(SweepConfiguration(algorithm="nonsense"), seeds=[1])
        with pytest.raises(ExperimentError):
            run_sweep(SweepConfiguration(algorithm="algorithm1", workload="tsunami"), seeds=[1])
        with pytest.raises(ExperimentError):
            run_sweep(SweepConfiguration(algorithm="algorithm1"), seeds=[])
