"""Tests for event scenarios (``Scenario(events=...)``): serialisation and execution."""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.simulation.scenario import Scenario, load_scenario, run_scenario


class TestValidation:
    def test_rejects_unknown_event_profile(self):
        with pytest.raises(ExperimentError):
            Scenario(name="bad", algorithm="algorithm1", tokens_per_node=8,
                     workload="uniform", events="tsunami", rounds=240)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ExperimentError):
            Scenario(name="bad", algorithm="frobnicate", tokens_per_node=8,
                     workload="uniform", events="burst", rounds=240)

    def test_rejects_negative_rounds(self):
        with pytest.raises(ExperimentError):
            Scenario(name="bad", algorithm="algorithm1", tokens_per_node=8,
                     workload="uniform", events="burst", rounds=-1)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ExperimentError):
            Scenario.from_dict({"name": "x", "algorithm": "algorithm1",
                                "events": "burst", "rounds": 240, "warp_factor": 9})


class TestRoundTrip:
    def test_json_roundtrip(self, tmp_path):
        scenario = Scenario(name="rt", algorithm="algorithm2", topology="cycle",
                            num_nodes=8, tokens_per_node=4, workload="uniform",
                            events="poisson", rounds=30, seed=3)
        path = scenario.to_json(tmp_path / "dyn.json")
        loaded = load_scenario(path)
        assert loaded == scenario


class TestExecution:
    def test_run_produces_dynamic_result(self):
        scenario = Scenario(name="run", algorithm="algorithm2", topology="cycle",
                            num_nodes=8, tokens_per_node=4, workload="uniform",
                            events="burst", rounds=50, seed=3)
        result = run_scenario(scenario)
        assert result.rounds == 50
        assert result.event_timeline is not None
        assert len(result.trace_max_min) == 51
        assert len(result.trace_total_weight) == 51
        assert result.extra["arrivals"] > 0
