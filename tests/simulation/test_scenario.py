"""Tests for declarative scenarios (:mod:`repro.simulation.scenario`)."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.simulation.scenario import Scenario, load_scenario, run_scenario
from repro.simulation.seeding import PurposeSeeds


class TestScenarioValidation:
    def test_minimal_scenario(self):
        scenario = Scenario(name="demo", algorithm="algorithm1")
        assert scenario.topology == "torus"
        assert scenario.workload == "point"

    @pytest.mark.parametrize("field,value", [
        ("algorithm", "gossip"),
        ("continuous_kind", "teleport"),
        ("workload", "tsunami"),
        ("speed_profile", "warp"),
        ("topology", "nosuch"),
    ])
    def test_invalid_choices_rejected(self, field, value):
        keyword_arguments = {"algorithm": "algorithm1", field: value}
        with pytest.raises(ExperimentError):
            Scenario(name="bad", **keyword_arguments)

    @pytest.mark.parametrize("algorithm,continuous_kind", [
        ("round-down", "random-matching"),
        ("excess-tokens", "periodic-matching"),
        ("matching-round-down", "fos"),
        ("matching-randomized", "sos"),
    ])
    def test_baseline_on_the_wrong_substrate_rejected(self, algorithm, continuous_kind):
        # the same rule the engine applies, checked before anything is built
        with pytest.raises(ExperimentError, match=f"{algorithm!r} is a (diffusion|matching) "):
            Scenario(name="bad", algorithm=algorithm, continuous_kind=continuous_kind)

    def test_first_order_baseline_on_sos_rejected(self):
        with pytest.raises(ExperimentError, match="no second-order form"):
            Scenario(name="bad", algorithm="randomized-rounding", continuous_kind="sos")

    def test_invalid_numbers_rejected(self):
        with pytest.raises(ExperimentError):
            Scenario(name="bad", algorithm="algorithm1", num_nodes=1)
        with pytest.raises(ExperimentError):
            Scenario(name="bad", algorithm="algorithm1", tokens_per_node=-1)
        with pytest.raises(ExperimentError):
            Scenario(name="bad", algorithm="algorithm1", rounds=-2)


class TestSerialisation:
    def test_dict_roundtrip(self):
        scenario = Scenario(name="demo", algorithm="algorithm2", topology="hypercube",
                            num_nodes=32, seed=9, base_load=4)
        clone = Scenario.from_dict(scenario.to_dict())
        assert clone == scenario

    def test_unknown_fields_rejected(self):
        with pytest.raises(ExperimentError):
            Scenario.from_dict({"name": "x", "algorithm": "algorithm1", "colour": "red"})

    def test_missing_required_fields_rejected(self):
        with pytest.raises(ExperimentError):
            Scenario.from_dict({"name": "x"})

    def test_json_roundtrip(self, tmp_path):
        scenario = Scenario(name="json-demo", algorithm="round-down", topology="cycle",
                            num_nodes=16, tokens_per_node=8, seed=3)
        path = scenario.to_json(tmp_path / "scenario.json")
        loaded = load_scenario(path)
        assert loaded == scenario

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_scenario(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ExperimentError):
            load_scenario(path)

    def test_load_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ExperimentError):
            load_scenario(path)


class TestMaterialisation:
    def test_build_network_applies_speed_profile(self):
        scenario = Scenario(name="speeds", algorithm="algorithm1", topology="cycle",
                            num_nodes=12, speed_profile="power-of-two", seed=5)
        network = scenario.build_network()
        assert network.num_nodes == 12
        assert not network.has_uniform_speeds or np.all(network.speeds == 1)

    def test_build_load_includes_base_load(self):
        scenario = Scenario(name="base", algorithm="algorithm1", topology="cycle",
                            num_nodes=8, tokens_per_node=4, base_load=3, seed=1)
        network = scenario.build_network()
        load = scenario.build_load(network)
        assert load.sum() == 4 * 8 + 3 * network.total_speed

    def test_reproducible_given_seed(self):
        scenario = Scenario(name="repro", algorithm="algorithm2", topology="expander",
                            num_nodes=16, tokens_per_node=8, workload="uniform", seed=7)
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        assert a.final_max_min == b.final_max_min
        assert a.rounds == b.rounds


class TestSeedingModes:
    def base(self, **overrides):
        keyword_arguments = dict(name="mode", algorithm="algorithm2",
                                 topology="expander", num_nodes=16,
                                 tokens_per_node=8, workload="uniform", seed=7)
        keyword_arguments.update(overrides)
        return Scenario(**keyword_arguments)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ExperimentError):
            self.base(seeding="quantum")

    def test_legacy_reuses_the_scenario_seed_everywhere(self):
        assert self.base()._purpose_seeds() == PurposeSeeds(7, 7, 7, 7, 7)

    def test_per_purpose_derives_independent_seeds(self):
        seeds = self.base(seeding="per-purpose")._purpose_seeds()
        values = [seeds.topology, seeds.workload, seeds.schedule,
                  seeds.algorithm, seeds.events]
        assert len(set(values)) == len(values)
        assert 7 not in values

    def test_per_purpose_decorrelates_workload_placement(self):
        legacy = self.base()
        per_purpose = self.base(seeding="per-purpose")
        network = legacy.build_network()
        assert not np.array_equal(legacy.build_load(network),
                                  per_purpose.build_load(network))

    def test_to_dict_omits_default_and_roundtrips(self):
        legacy = self.base()
        assert "seeding" not in legacy.to_dict()
        assert Scenario.from_dict(legacy.to_dict()) == legacy
        per_purpose = self.base(seeding="per-purpose")
        assert per_purpose.to_dict()["seeding"] == "per-purpose"
        assert Scenario.from_dict(per_purpose.to_dict()) == per_purpose

    def test_scenarios_run_under_both_modes(self):
        for mode in ("legacy", "per-purpose"):
            result = run_scenario(self.base(seeding=mode))
            assert result.rounds > 0

    def test_dynamic_events_purpose_decorrelates_arrivals(self):
        base = dict(name="dyn", algorithm="round-down", topology="cycle",
                    num_nodes=8, tokens_per_node=4, workload="uniform",
                    events="poisson", rounds=40, seed=11)
        legacy = Scenario(**base)
        per_purpose = Scenario(**base, seeding="per-purpose")
        assert "seeding" not in legacy.to_dict()
        assert Scenario.from_dict(per_purpose.to_dict()) == per_purpose
        a = run_scenario(legacy)
        b = run_scenario(per_purpose)
        assert a.event_timeline != b.event_timeline


class TestRunScenario:
    @pytest.mark.parametrize("algorithm", ["algorithm1", "algorithm2", "round-down"])
    def test_diffusion_scenarios(self, algorithm):
        scenario = Scenario(name="run", algorithm=algorithm, topology="torus",
                            num_nodes=16, tokens_per_node=8, seed=2)
        result = run_scenario(scenario)
        assert result.algorithm == algorithm
        assert result.rounds > 0

    def test_matching_scenario(self):
        scenario = Scenario(name="match", algorithm="matching-round-down",
                            topology="hypercube", num_nodes=16, tokens_per_node=8,
                            continuous_kind="random-matching", seed=4)
        result = run_scenario(scenario)
        assert result.continuous_kind == "random-matching"

    def test_heterogeneous_scenario(self):
        scenario = Scenario(name="hetero", algorithm="algorithm1", topology="expander",
                            num_nodes=16, tokens_per_node=8, speed_profile="random",
                            base_load=4, seed=6)
        result = run_scenario(scenario)
        assert result.final_max_min >= 0

    def test_static_cell_checks_connectivity_once(self, monkeypatch):
        from repro.network.graph import Network

        calls = []
        breadth_first = Network.distances_from

        def counted(network, source):
            calls.append(source)
            return breadth_first(network, source)

        monkeypatch.setattr(Network, "distances_from", counted)
        scenario = Scenario(name="once", algorithm="algorithm2", topology="torus",
                            num_nodes=16, tokens_per_node=8, seed=2)
        assert run_scenario(scenario).rounds > 0
        assert calls == [0]

    def test_fixed_rounds_scenario(self):
        scenario = Scenario(name="short", algorithm="round-down", topology="cycle",
                            num_nodes=8, tokens_per_node=8, rounds=3, seed=1)
        result = run_scenario(scenario)
        assert result.rounds == 3


class TestFieldTypes:
    """``from_dict`` (the loader of scenario files and checkpoints) checks types."""

    INT_FIELDS = ["num_nodes", "tokens_per_node", "base_load", "seed", "max_task_weight"]
    STR_FIELDS = ["name", "algorithm", "topology", "workload", "speed_profile",
                  "continuous_kind", "backend", "rng_mode", "seeding"]
    BAD = ([(name, value) for name in INT_FIELDS for value in ("64", 2.7, 1.0, True)]
           + [(name, value) for name in STR_FIELDS for value in (3, None, ["torus"])]
           + [("rounds", value) for value in ("5", 1.5, False)]
           + [("events", 1), ("record_trace", 1), ("record_trace", "yes")])

    @pytest.mark.parametrize("name,value", BAD)
    def test_wrong_types_rejected_naming_the_field(self, name, value):
        data = {"name": "typed", "algorithm": "algorithm1", name: value}
        with pytest.raises(ExperimentError, match=f"scenario field '{name}' must be"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("rounds", [None, 0, 5])
    def test_rounds_accepts_int_or_null(self, rounds):
        data = {"name": "typed", "algorithm": "algorithm1", "rounds": rounds}
        assert Scenario.from_dict(data).rounds == rounds


class TestEventScenarios:
    STREAM = dict(name="stream", algorithm="algorithm2", topology="cycle", num_nodes=8,
                  tokens_per_node=4, workload="uniform", events="burst", rounds=12)

    def test_requires_rounds(self):
        with pytest.raises(ExperimentError, match="rounds"):
            Scenario(**{**self.STREAM, "rounds": None})

    @pytest.mark.parametrize("field,value", [("base_load", 2), ("record_trace", True)])
    def test_rejects_static_only_fields(self, field, value):
        with pytest.raises(ExperimentError, match=field):
            Scenario(**self.STREAM, **{field: value})

    def test_to_dict_keeps_the_historical_key_order(self):
        assert list(Scenario(**self.STREAM).to_dict()) == [
            "name", "algorithm", "topology", "num_nodes", "tokens_per_node", "workload",
            "speed_profile", "continuous_kind", "events", "rounds", "seed", "backend",
            "max_task_weight", "rng_mode"]
        assert list(Scenario(name="static", algorithm="algorithm1").to_dict()) == [
            "name", "algorithm", "topology", "num_nodes", "tokens_per_node", "workload",
            "speed_profile", "continuous_kind", "base_load", "rounds", "seed",
            "record_trace", "backend", "max_task_weight", "rng_mode"]

    def test_scenarios_are_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            Scenario(**self.STREAM).rounds = 3

    def test_checkpoints_need_an_event_scenario(self, tmp_path):
        static = Scenario(name="static", algorithm="round-down", topology="cycle",
                          num_nodes=8, tokens_per_node=4, rounds=3)
        with pytest.raises(ExperimentError, match="event scenarios"):
            run_scenario(static, checkpoint_every=1, checkpoint_path=tmp_path / "c.json")
        with pytest.raises(ExperimentError, match="event scenarios"):
            run_scenario(static, checkpoint_path=tmp_path / "c.json")


class TestSweepCellsAreScenarios:
    """A sweep cell is the static scenario its configuration describes.

    The reference is the sweep runner's historical body: topology, workload
    and schedule drawn from the purpose seeds, then ``run_algorithm``.
    """

    @staticmethod
    def reference(configuration, seed, legacy):
        from repro.network import topologies
        from repro.simulation.engine import make_schedule, run_algorithm
        from repro.simulation.seeding import purpose_seeds
        from repro.simulation.workloads import WORKLOADS

        seeds = purpose_seeds(seed, legacy=legacy)
        network = topologies.named_topology(configuration.topology,
                                            configuration.num_nodes, seed=seeds.topology)
        load = WORKLOADS[configuration.workload](network, configuration.tokens_per_node,
                                                 seeds.workload)
        return run_algorithm(
            configuration.algorithm, network, initial_load=load,
            continuous_kind=configuration.continuous_kind,
            schedule=make_schedule(configuration.continuous_kind, network,
                                   seed=seeds.schedule),
            seed=seeds.algorithm, record_trace=True, backend=configuration.backend)

    @pytest.mark.parametrize("legacy", [False, True])
    @pytest.mark.parametrize("kind,algorithm", [
        ("fos", "algorithm2"), ("sos", "algorithm1"),
        ("periodic-matching", "matching-round-down"),
        ("random-matching", "matching-randomized")])
    def test_sweep_cell_equals_reference(self, kind, algorithm, legacy):
        from repro.simulation.sweep import SweepConfiguration

        configuration = SweepConfiguration(
            algorithm=algorithm, topology="expander", num_nodes=12, tokens_per_node=6,
            workload="uniform", continuous_kind=kind)
        scenario = configuration.scenario(5, record_trace=True)
        if legacy:
            scenario = replace(scenario, seeding="legacy")
        result = run_scenario(scenario)
        expected = self.reference(configuration, 5, legacy)
        assert result.as_dict() == expected.as_dict()
        assert result.trace_max_min == expected.trace_max_min
