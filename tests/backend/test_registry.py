"""Backend registry: resolution rules, fallbacks and API threading."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    BACKEND_KINDS,
    ArrayDeterministicFlowImitation,
    ArrayRandomizedFlowImitation,
    WeightedRunState,
    resolve_backend,
)
from repro.core.algorithm1 import DeterministicFlowImitation
from repro.core.algorithm2 import RandomizedFlowImitation
from repro.core.flow_imitation import FlowCoupledBalancer
from repro.discrete.baselines.diffusion import (
    ExcessTokenDiffusion,
    QuasirandomDiffusion,
    RandomizedRoundingDiffusion,
    RoundDownDiffusion,
)
from repro.discrete.baselines.matching import RandomizedRoundingMatching, RoundDownMatching
from repro.exceptions import ExperimentError, TaskError
from repro.network import topologies
from repro.simulation.engine import (
    DIFFUSION_BASELINES,
    MATCHING_BASELINES,
    make_balancer,
    run_algorithm,
)
from repro.simulation.scenario import Scenario
from repro.tasks.assignment import TaskAssignment
from repro.tasks.generators import point_load
from repro.tasks.task import Task
from repro.tasks.weighted import WeightedLoads


class TestResolution:
    def test_auto_prefers_array_for_token_loads(self):
        network = topologies.cycle(4)
        for backend, cls in (("auto", ArrayDeterministicFlowImitation),
                             ("array", ArrayDeterministicFlowImitation),
                             ("object", DeterministicFlowImitation)):
            balancer = make_balancer("algorithm1", network, initial_load=[2] * 4,
                                     backend=backend)
            assert type(balancer) is cls

    def test_integer_weight_assignments_take_the_columnar_path(self):
        network = topologies.cycle(4)
        for backend, cls in (("auto", ArrayDeterministicFlowImitation),
                             ("array", ArrayDeterministicFlowImitation),
                             ("object", DeterministicFlowImitation)):
            assignment = TaskAssignment.from_unit_loads(network, [2, 2, 2, 2])
            balancer = make_balancer("algorithm1", network, assignment=assignment,
                                     backend=backend)
            assert type(balancer) is cls

    def test_non_integer_weights_fall_back_to_object(self):
        network = topologies.cycle(4)
        assignment = TaskAssignment(network)
        assignment.add(0, Task(task_id=0, weight=2.5))
        choice = resolve_backend("auto", assignment=assignment)
        assert choice.name == "object"
        assert "non-integer" in choice.reason

    def test_dummy_carrying_assignments_fall_back_to_object(self):
        network = topologies.cycle(4)
        assignment = TaskAssignment(network)
        assignment.add(0, Task(task_id=0, weight=1.0))
        assignment.add(1, Task(task_id=1, weight=1.0, is_dummy=True))
        balancer = make_balancer("algorithm1", network, assignment=assignment,
                                 backend="auto")
        assert type(balancer) is DeterministicFlowImitation

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_backend("columnar")
        with pytest.raises(ExperimentError):
            make_balancer("algorithm1", topologies.cycle(4),
                          initial_load=[1, 1, 1, 1], backend="columnar")

    def test_every_backend_builds_the_one_baseline_class(self):
        network = topologies.cycle(4)
        classes = {"round-down": RoundDownDiffusion,
                   "quasirandom": QuasirandomDiffusion,
                   "randomized-rounding": RandomizedRoundingDiffusion,
                   "excess-tokens": ExcessTokenDiffusion,
                   "matching-round-down": RoundDownMatching,
                   "matching-randomized": RandomizedRoundingMatching}
        assert sorted(classes) == sorted(DIFFUSION_BASELINES + MATCHING_BASELINES)
        for algorithm, cls in classes.items():
            kind = "random-matching" if algorithm.startswith("matching") else "fos"
            for backend in BACKEND_KINDS:
                balancer = make_balancer(algorithm, network, initial_load=[2] * 4,
                                         continuous_kind=kind, backend=backend)
                assert type(balancer) is cls, (algorithm, backend)

    def test_baselines_reject_unknown_backends(self):
        network = topologies.cycle(4)
        for algorithm, kind in (("round-down", "fos"),
                                ("matching-round-down", "periodic-matching")):
            with pytest.raises(ExperimentError):
                make_balancer(algorithm, network, initial_load=[2] * 4,
                              continuous_kind=kind, backend="columnar")

    @pytest.mark.parametrize("algorithm", DIFFUSION_BASELINES + MATCHING_BASELINES)
    def test_static_and_stream_runs_give_a_baseline_one_reason(self, algorithm):
        from repro.dynamic.events import BurstyArrivals
        from repro.dynamic.stream import run_stream

        network = topologies.torus(4, dims=2)
        kind = "random-matching" if algorithm.startswith("matching") else "fos"
        load = [4] * network.num_nodes
        for backend in BACKEND_KINDS:
            static = run_algorithm(algorithm, network, initial_load=load, rounds=3,
                                   continuous_kind=kind, seed=1, backend=backend)
            stream = run_stream(algorithm, network, load,
                                BurstyArrivals(8, period=2, first_round=1, seed=1),
                                rounds=3, continuous_kind=kind, seed=1, backend=backend)
            assert static.extra["backend_reason"] == stream.extra["backend_reason"]
            assert static.extra["backend"] == stream.extra["backend"]
            assert static.extra["backend_reason"].startswith("literature baselines share")


class TestMakeBalancerThreading:
    def test_array_backend_builds_array_classes(self):
        network = topologies.cycle(6)
        load = point_load(network, 12)
        assert isinstance(
            make_balancer("algorithm1", network, initial_load=load, backend="array"),
            ArrayDeterministicFlowImitation)
        assert isinstance(
            make_balancer("algorithm2", network, initial_load=load, backend="array"),
            ArrayRandomizedFlowImitation)

    def test_object_backend_builds_object_classes(self):
        network = topologies.cycle(6)
        load = point_load(network, 12)
        assert isinstance(
            make_balancer("algorithm1", network, initial_load=load, backend="object"),
            DeterministicFlowImitation)
        assert isinstance(
            make_balancer("algorithm2", network, initial_load=load, backend="object"),
            RandomizedFlowImitation)

    def test_integer_weighted_assignment_builds_columnar_balancer(self):
        """Integer weights no longer fall back: "auto"/"array" go columnar."""
        network = topologies.cycle(6)
        assignment = TaskAssignment(network)
        assignment.add(0, Task(task_id=0, weight=3.0))
        assignment.add(1, Task(task_id=1, weight=1.0))
        for backend in ("auto", "array"):
            balancer = make_balancer("algorithm1", network, assignment=assignment,
                                     backend=backend)
            assert isinstance(balancer, ArrayDeterministicFlowImitation)
            assert balancer.w_max == 3.0

    def test_fractional_weight_assignment_falls_back_to_object(self):
        """Non-integer weights must silently keep using task objects."""
        network = topologies.cycle(6)
        assignment = TaskAssignment(network)
        assignment.add(0, Task(task_id=0, weight=2.5))
        assignment.add(1, Task(task_id=1, weight=1.0))
        balancer = make_balancer("algorithm1", network, assignment=assignment,
                                 backend="array")
        assert isinstance(balancer, DeterministicFlowImitation)
        assert balancer.w_max == 2.5

    def test_both_backends_are_flow_coupled(self):
        network = topologies.cycle(6)
        load = point_load(network, 12)
        for backend in ("object", "array"):
            balancer = make_balancer("algorithm1", network, initial_load=load,
                                     backend=backend)
            assert isinstance(balancer, FlowCoupledBalancer)

    def test_run_algorithm_rejects_fractional_loads_on_both_backends(self):
        network = topologies.cycle(4)
        for backend in ("object", "array"):
            with pytest.raises(ExperimentError):
                run_algorithm("algorithm1", network, initial_load=[1.5, 0, 0, 0],
                              backend=backend)


class TestScenarioThreading:
    def test_scenario_roundtrips_backend_field(self):
        scenario = Scenario(name="s", algorithm="algorithm1", backend="array")
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_dynamic_scenario_validates_backend(self):
        with pytest.raises(ExperimentError):
            Scenario(name="s", algorithm="algorithm1", tokens_per_node=8,
                     workload="uniform", events="burst", rounds=240,
                     backend="frobnicate")


class TestSharedRunState:
    """Unit tokens are the weight-1 case of the one columnar state."""

    @staticmethod
    def unit_round(state, senders, receivers, counts):
        senders, receivers = np.array(senders), np.array(receivers)
        return state.transfer(senders, receivers, np.array(counts), 1.0 + 1e-9, "fifo",
                              lambda: np.lexsort((receivers, senders)))

    def test_fifo_take_splits_runs(self):
        state = WeightedRunState.from_counts(np.array([5, 0, 0]))
        self.unit_round(state, [0, 2], [1, 1], [3, 2])
        count, _weight, dummy, offsets = state.runs()
        assert (count.tolist(), dummy.tolist(), offsets.tolist()) == (
            [2, 3, 2], [False, False, True], [0, 1, 3, 3])
        assert state.loads.tolist() == [2, 5, 0]
        assert state.dummy_counts.tolist() == [0, 2, 0]
        assert state.single_class is None

    def test_take_reports_shortfall_as_dummies(self):
        state = WeightedRunState.from_counts(np.array([2, 0]))
        sent, moved, dummies = self.unit_round(state, [0], [1], [5])
        assert (sent.tolist(), moved, dummies) == ([5], 2, 3)

    def test_covered_single_class_round_stores_no_runs(self):
        state = WeightedRunState.from_counts(np.array([5, 1]))
        sent, moved, dummies = self.unit_round(state, [0, 1], [1, 0], [3, 1])
        assert (sent.tolist(), moved, dummies) == ([3, 1], 4, 0)
        assert state.loads.tolist() == [3, 3]
        assert state._runs is None and state.single_class == 1

    def test_remove_dummies_restores_the_single_class(self):
        state = WeightedRunState.from_counts(np.array([1, 1]))
        self.unit_round(state, [1], [0], [2])
        assert state.single_class is None
        assert state.remove_dummies() == 1
        assert state.loads.tolist() == [2, 0]
        assert state.single_class == 1
        assert state._runs is None

    def test_rejects_negative_counts(self):
        with pytest.raises(TaskError):
            WeightedRunState.from_counts(np.array([1, -1]))

    def test_rejects_non_integer_counts(self):
        with pytest.raises(TaskError, match="integers"):
            WeightedRunState.from_counts(np.array([1.5, 2.7]))
        assert WeightedRunState.from_counts(np.array([3.0, 1.0])).loads.tolist() == [3, 1]

    @pytest.mark.parametrize("weight", [0, -2, 1.5])
    def test_rejects_non_positive_or_fractional_weight(self, weight):
        with pytest.raises(TaskError, match="positive integer"):
            WeightedRunState.from_counts([3, 1], weight=weight)

    def test_count_and_single_class_states_keep_queues_implicit(self):
        network = topologies.cycle(6)
        balancer = make_balancer("algorithm1", network,
                                 initial_load=point_load(network, 12),
                                 backend="array")
        balancer.run(3)
        balancer.recouple([3, 0, 2, 1, 0, 4])
        assert balancer._state._runs is None
        state = WeightedRunState.from_weighted_loads(
            WeightedLoads.from_buckets([{3: 2}, {}, {3: 1}]))
        assert state._runs is None
        assert state.single_class == 3
        assert state.loads.tolist() == [6, 0, 3]
