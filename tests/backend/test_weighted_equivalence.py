"""Weighted columnar backend: bit-identical to the object backend.

The columnar weighted state (sorted weight buckets + flat run arrays) is a
pure re-representation of a weighted ``TaskAssignment``: same Algorithm 1,
same greedy while-loop, same dummy semantics.  These tests demand *exact*
equality — per-round load vectors, cumulative flows, dummy distributions —
across topologies, selection policies and substrates, plus the weighted
streaming paths (fast O(n) re-coupling included).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import ArrayDeterministicFlowImitation
from repro.backend.weighted import WeightedRunState, _take_count
from repro.continuous.fos import FirstOrderDiffusion
from repro.continuous.sos import SecondOrderDiffusion
from repro.core.algorithm1 import DeterministicFlowImitation
from repro.core.flow_imitation import TaskSelectionPolicy
from repro.exceptions import ExperimentError, ProcessError, TaskError
from repro.network import topologies
from repro.simulation.engine import make_balancer, make_schedule, run_algorithm
from repro.tasks.assignment import TaskAssignment
from repro.tasks.generators import weighted_assignment
from repro.tasks.task import Task
from repro.tasks.weighted import WeightedLoads, weighted_loads_from_task_counts

TOPOLOGIES = {
    "ring": lambda: topologies.cycle(12),
    "torus": lambda: topologies.torus(4, dims=2),
    "hypercube": lambda: topologies.hypercube(3),
}


def paired_assignments(network, seed, num_tasks=None, max_weight=4, placement="uniform"):
    """Two identical weighted assignments (the object run mutates its copy)."""
    num_tasks = num_tasks or 16 * network.num_nodes
    build = lambda: weighted_assignment(network, num_tasks=num_tasks,
                                        max_weight=max_weight,
                                        placement=placement, seed=seed)
    return build(), build()


def assert_roundwise_equal(object_balancer, array_balancer, rounds):
    for round_index in range(rounds):
        object_balancer.advance()
        array_balancer.advance()
        assert np.array_equal(object_balancer.loads(), array_balancer.loads()), (
            f"loads diverged at round {round_index}")
        assert np.array_equal(
            object_balancer.loads(include_dummies=False),
            array_balancer.loads(include_dummies=False),
        ), f"real loads diverged at round {round_index}"
        assert np.array_equal(object_balancer.discrete_cumulative_flows(),
                              array_balancer.discrete_cumulative_flows())
    assert object_balancer.dummy_tokens_created == array_balancer.dummy_tokens_created
    assert object_balancer.used_infinite_source == array_balancer.used_infinite_source


class TestStartCheck:
    """Both backends demand the continuous start equal the discrete loads
    exactly: no relative slack at a million tokens."""

    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_rejects_a_continuous_start_off_by_five(self, backend):
        network = topologies.cycle(4)
        weighted = WeightedLoads.from_buckets([{1_000_000: 1}, {}, {}, {}])
        continuous = FirstOrderDiffusion(network, [1_000_005.0, 0, 0, 0])
        workload = (weighted.to_assignment(network) if backend == "object"
                    else weighted)
        balancer = (DeterministicFlowImitation if backend == "object"
                    else ArrayDeterministicFlowImitation)
        with pytest.raises(ProcessError, match="must start from"):
            balancer(continuous, workload)


class TestWeightedFlowImitationEquivalence:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("policy", sorted(TaskSelectionPolicy.ALL))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_per_round_loads_match(self, topology, policy, seed):
        network = TOPOLOGIES[topology]()
        object_assignment, array_assignment = paired_assignments(network, seed)
        object_balancer = make_balancer("algorithm1", network,
                                        assignment=object_assignment,
                                        selection_policy=policy, backend="object")
        array_balancer = make_balancer("algorithm1", network,
                                       assignment=array_assignment,
                                       selection_policy=policy, backend="array")
        assert isinstance(array_balancer, ArrayDeterministicFlowImitation)
        assert array_balancer.w_max == object_balancer.w_max
        assert_roundwise_equal(object_balancer, array_balancer, rounds=40)

    def test_dummy_distribution_matches_on_overshooting_sos(self):
        """A large SOS beta forces the infinite source; the per-node real/dummy
        split must match node by node (exercises the weighted run queues)."""
        network = topologies.random_regular(30, 5, seed=4)
        object_assignment, array_assignment = paired_assignments(
            network, 1, num_tasks=600, max_weight=3, placement="point")
        object_balancer = DeterministicFlowImitation(
            SecondOrderDiffusion(network, object_assignment.loads(), beta=1.9),
            object_assignment)
        array_balancer = ArrayDeterministicFlowImitation(
            SecondOrderDiffusion(network, array_assignment.loads(), beta=1.9),
            array_assignment)
        assert_roundwise_equal(object_balancer, array_balancer, rounds=60)
        assert object_balancer.dummy_tokens_created > 0, "instance must exercise dummies"
        assert np.array_equal(object_balancer.assignment.dummy_loads(),
                              array_balancer.dummy_loads())
        assert object_balancer.remove_dummies() == array_balancer.remove_dummies()
        assert np.array_equal(object_balancer.loads(), array_balancer.loads())

    def test_full_run_through_engine_matches(self):
        network = topologies.torus(4, dims=2)
        results = {}
        for backend in ("object", "array"):
            assignment = weighted_assignment(network, num_tasks=300, max_weight=5,
                                             placement="uniform", seed=9)
            results[backend] = run_algorithm("algorithm1", network,
                                             assignment=assignment, seed=9,
                                             record_trace=True, backend=backend)
        assert results["object"].trace_max_min == results["array"].trace_max_min
        assert results["object"].final_max_min == results["array"].final_max_min
        assert (results["object"].final_max_avg_no_dummies
                == results["array"].final_max_avg_no_dummies)
        assert results["object"].dummy_tokens == results["array"].dummy_tokens
        assert results["object"].extra["backend"] == "object"
        assert results["array"].extra["backend"] == "array"

    def test_auto_takes_columnar_path_and_records_it(self):
        network = topologies.torus(4, dims=2)
        assignment = weighted_assignment(network, num_tasks=200, max_weight=4,
                                         placement="uniform", seed=3)
        result = run_algorithm("algorithm1", network, assignment=assignment, seed=3)
        assert result.extra["backend"] == "array"
        assert "weighted" in result.extra["backend_reason"]

    def test_weighted_loads_workload_matches_object_materialisation(self):
        network = topologies.hypercube(3)
        weighted = weighted_loads_from_task_counts([10] * network.num_nodes,
                                                   max_weight=4, seed=5)
        results = {
            backend: run_algorithm("algorithm1", network, weighted_load=weighted,
                                   seed=5, record_trace=True, backend=backend)
            for backend in ("object", "array")
        }
        assert results["object"].trace_max_min == results["array"].trace_max_min
        assert results["object"].total_weight == float(weighted.total_weight())

    def test_algorithm2_rejects_weighted_workloads(self):
        network = topologies.cycle(6)
        weighted = weighted_loads_from_task_counts([4] * 6, max_weight=3, seed=1)
        with pytest.raises(ExperimentError):
            make_balancer("algorithm2", network, weighted_load=weighted,
                          backend="array")


class TestWeightedRecoupling:
    @pytest.mark.parametrize("backend", ["object", "array"])
    @pytest.mark.parametrize("kind", ["fos", "random-matching"])
    def test_weighted_recouple_equals_fresh_build(self, backend, kind):
        network = topologies.torus(4, dims=2)
        first = weighted_loads_from_task_counts([6] * network.num_nodes, 4, seed=0)
        second = weighted_loads_from_task_counts([9] * network.num_nodes, 3, seed=1)

        schedule = make_schedule(kind, network, seed=5)
        recoupled = make_balancer("algorithm1", network, weighted_load=first,
                                  continuous_kind=kind, schedule=schedule,
                                  seed=5, backend=backend)
        recoupled.run(10)
        recoupled.recouple(second, seed=77)
        assert recoupled.w_max == max(1.0, float(second.max_weight()))
        assert recoupled.original_weight == float(second.total_weight())

        fresh_schedule = make_schedule(kind, network, seed=77)
        fresh = make_balancer("algorithm1", network, weighted_load=second,
                              continuous_kind=kind, schedule=fresh_schedule,
                              seed=77, backend=backend)
        for _ in range(15):
            recoupled.advance()
            fresh.advance()
            assert np.array_equal(recoupled.loads(), fresh.loads())

    @pytest.mark.parametrize("policy", sorted(TaskSelectionPolicy.ALL))
    def test_unit_built_balancers_recouple_onto_weighted_identically(self, policy):
        """Both backends, built from token counts, accept a weighted recouple
        and then agree round by round."""
        network = topologies.torus(4, dims=2)
        weighted = weighted_loads_from_task_counts([6] * network.num_nodes,
                                                   max_weight=4, seed=2)
        balancers = []
        for backend in ("object", "array"):
            balancer = make_balancer("algorithm1", network,
                                     initial_load=[4] * network.num_nodes,
                                     selection_policy=policy, seed=3,
                                     backend=backend)
            balancer.run(5)
            balancer.recouple(weighted, seed=8)
            balancers.append(balancer)
        object_balancer, array_balancer = balancers
        assert array_balancer.w_max == object_balancer.w_max == 4.0
        for round_index in range(30):
            object_balancer.advance()
            array_balancer.advance()
            assert np.array_equal(object_balancer.loads(), array_balancer.loads()), (
                f"loads diverged at round {round_index}")
            assert np.array_equal(object_balancer.discrete_cumulative_flows(),
                                  array_balancer.discrete_cumulative_flows())


class TestWeightedStreams:
    @pytest.mark.parametrize("profile", ["burst", "poisson", "churn"])
    def test_stream_trajectories_match(self, profile):
        from repro.dynamic.events import make_event_generator
        from repro.dynamic.stream import run_stream

        def one(backend):
            network = topologies.torus(4, dims=2)
            weighted = weighted_loads_from_task_counts(
                [6] * network.num_nodes, max_weight=4, seed=17)
            generator = make_event_generator(profile, network, 6, seed=17)
            return run_stream("algorithm1", network, weighted, generator,
                              rounds=50, seed=17, backend=backend)

        object_result, array_result = one("object"), one("array")
        assert object_result.trace_max_min == array_result.trace_max_min
        assert object_result.trace_total_weight == array_result.trace_total_weight
        assert object_result.event_timeline == array_result.event_timeline
        assert object_result.dummy_tokens == array_result.dummy_tokens
        assert object_result.extra["backend"] == "object"
        assert array_result.extra["backend"] == "array"
        assert array_result.extra["recouplings"] == object_result.extra["recouplings"]

    def test_weighted_stream_takes_fast_recoupling_path(self):
        from repro.dynamic.events import ARRIVAL, DynamicEvent, ScheduledEvents
        from repro.dynamic.stream import StreamingEngine

        network = topologies.torus(4, dims=2)
        weighted = weighted_loads_from_task_counts([5] * network.num_nodes, 3, seed=2)
        generator = ScheduledEvents({
            3: [DynamicEvent(ARRIVAL, node=0, tokens=10)],
            7: [DynamicEvent(ARRIVAL, node=2, tokens=5)],
        })
        engine = StreamingEngine("algorithm1", network, weighted, generator, seed=2)
        assert engine.weighted and engine.backend == "array"
        total_before = engine.total_real_load()
        for _ in range(10):
            engine.step()
        assert engine.recouplings == 2
        assert engine.fast_recouplings == 2
        assert engine.total_real_load() == total_before + 15

    def test_weighted_stream_requires_algorithm1(self):
        from repro.dynamic.events import ScheduledEvents
        from repro.dynamic.stream import StreamingEngine

        network = topologies.cycle(6)
        weighted = weighted_loads_from_task_counts([3] * 6, max_weight=2, seed=0)
        with pytest.raises(ExperimentError):
            StreamingEngine("algorithm2", network, weighted, ScheduledEvents({}))


class TestWeightedLoadsRepresentation:
    def test_roundtrip_through_assignment(self):
        network = topologies.cycle(5)
        weighted = weighted_loads_from_task_counts([3, 0, 2, 5, 1], 4, seed=8)
        assignment = weighted.to_assignment(network)
        back = WeightedLoads.from_assignment(assignment)
        assert back.buckets() == weighted.buckets()
        assert np.array_equal(back.load_vector(), weighted.load_vector())
        assert back.max_weight() == weighted.max_weight()
        assert back.num_tasks() == weighted.num_tasks()

    def test_rejects_non_integer_weights(self):
        network = topologies.cycle(4)
        assignment = TaskAssignment(network)
        assignment.add(0, Task(task_id=0, weight=1.5))
        with pytest.raises(TaskError):
            WeightedLoads.from_assignment(assignment)

    def test_validates_csr_structure(self):
        with pytest.raises(TaskError):
            WeightedLoads([2, 1], [1, 1], [0, 2])  # weights not increasing
        with pytest.raises(TaskError):
            WeightedLoads([1], [0], [0, 1])  # empty bucket
        with pytest.raises(TaskError):
            WeightedLoads([1], [1], [1, 1])  # offsets must start at 0

    def test_take_count_matches_scalar_while_loop(self):
        """The closed-form batch must equal the one-task-at-a-time loop."""
        rng = np.random.default_rng(0)
        for _ in range(500):
            residual = float(rng.uniform(0, 40))
            w_max = float(rng.integers(1, 6))
            weight = float(rng.integers(1, 6))
            cap = int(rng.integers(0, 12))
            committed = float(rng.integers(0, 10))
            threshold = w_max + 1e-9
            expected = 0
            scalar_committed = committed
            while expected < cap and residual - scalar_committed > threshold:
                expected += 1
                scalar_committed += weight
            assert _take_count(residual, committed, weight, cap, threshold) == expected


def queues(state):
    """Every node's queue as a list of ``(count, weight, is_dummy)`` runs."""
    count, weight, dummy, offsets = state.runs()
    runs = list(zip(count.tolist(), weight.tolist(), dummy.tolist()))
    return [runs[begin:end] for begin, end in zip(offsets[:-1], offsets[1:])]


def transfer(state, requests, threshold, policy=TaskSelectionPolicy.FIFO):
    """Run one round of ``(sender, receiver, amount)`` requests; float
    amounts are residuals, integer ones unit counts."""
    senders, receivers, amounts = (np.array(column) for column in zip(*requests))
    return state.transfer(senders, receivers, amounts, threshold, policy,
                          lambda: np.lexsort((receivers, senders)))


class TestWeightedRunState:
    def test_fifo_takes_preserve_queue_order(self):
        state = WeightedRunState.from_weighted_loads(
            WeightedLoads.from_buckets([{1: 2, 3: 1}, {}]))
        sent, moved, dummies = transfer(state, [(0, 1, 10.0)], 3.0 + 1e-9)
        # Canonical order is ascending weight: two 1s first, then the 3,
        # then the dummies the residual still asks for, at the tail.
        assert queues(state) == [[], [(2, 1, False), (1, 3, False), (2, 1, True)]]
        assert (sent.tolist(), moved, dummies) == ([7], 3, 2)
        assert state.loads.tolist() == [0, 7]

    def test_remove_dummies_drops_only_dummies(self):
        state = WeightedRunState.from_weighted_loads(
            WeightedLoads.from_buckets([{2: 3}, {}]))
        transfer(state, [(1, 0, 6.0)], 2.0 + 1e-9)   # an empty sender: 4 dummies
        assert state.loads.tolist() == [10, 0]
        assert queues(state)[0] == [(3, 2, False), (4, 1, True)]
        assert state.remove_dummies() == 4
        assert state.loads.tolist() == [6, 0]
        assert state.dummy_counts.tolist() == [0, 0]
        assert state.single_class == 2

    @pytest.mark.parametrize("amount", [1, 2.0], ids=["unit", "float"])
    def test_empty_requests_change_nothing(self, amount):
        """No request moves nothing, also once dummies mix the queues."""
        state = WeightedRunState.from_counts(np.array([0, 3, 2]))
        transfer(state, [(0, 1, amount)], 1.0 + 1e-9)  # node 0 is empty: one dummy
        dtype = np.array(amount).dtype
        before = queues(state)
        empty = np.zeros(0, dtype=np.int64)
        sent, moved, dummies = state.transfer(
            empty, empty, np.zeros(0, dtype=dtype), 1.0 + 1e-9,
            TaskSelectionPolicy.FIFO, lambda: empty)
        assert (sent.tolist(), sent.dtype, moved, dummies) == ([], np.int64, 0, 0)
        assert queues(state) == before and state.dummy_counts.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("policy, taken, kept", [
        (TaskSelectionPolicy.FIFO, 2, [(1, 4), (1, 1), (1, 4)]),
        (TaskSelectionPolicy.LARGEST_FIRST, 4, [(1, 2), (1, 1), (1, 4)]),
        (TaskSelectionPolicy.SMALLEST_FIRST, 1, [(1, 2), (2, 4)]),
    ])
    def test_policies_pick_from_the_flat_queue(self, policy, taken, kept):
        """Each policy takes the first task of its weight; the sender's
        runs left adjacent by the take merge."""
        state = WeightedRunState.from_assignment(
            tasks_at_node_zero([2, 4, 1, 4]))
        transfer(state, [(0, 1, 5.0)], 4.0 + 1e-9, policy)
        assert queues(state) == [[(c, w, False) for c, w in kept],
                                 [(1, taken, False)]]

    def test_two_senders_deliver_in_plan_order(self):
        """Every plan is taken before any delivery; a receiver keeps its
        own runs, then gets each plan's takes followed by its dummies, and
        adjacent equal runs merge."""
        state = WeightedRunState.from_counts(np.array([2, 3, 1]))
        sent, moved, dummies = transfer(state, [(0, 2, 3), (1, 2, 2)], 1.0 + 1e-9)
        assert (sent.tolist(), moved, dummies) == ([3, 2], 4, 1)
        count, weight, dummy, offsets = state.runs()
        assert count.tolist() == [1, 3, 1, 2]
        assert weight.tolist() == [1, 1, 1, 1]
        assert dummy.tolist() == [False, False, True, False]
        assert offsets.tolist() == [0, 0, 1, 4]
        assert state.loads.tolist() == [0, 1, 6]
        assert state.dummy_counts.tolist() == [0, 0, 1]

    def test_two_weighted_senders_deliver_in_plan_order(self):
        state = WeightedRunState.from_weighted_loads(
            WeightedLoads.from_buckets([{1: 2, 3: 1}, {2: 2}, {1: 1}]))
        sent, moved, dummies = transfer(state, [(0, 2, 6.5), (1, 2, 8.0)],
                                        3.0 + 1e-9)
        assert (sent.tolist(), moved, dummies) == ([5, 5], 5, 1)
        assert queues(state) == [
            [], [], [(3, 1, False), (1, 3, False), (2, 2, False), (1, 1, True)]]


def tasks_at_node_zero(weights):
    """Node 0 of a 2-node path holds one task per weight, in the given order."""
    assignment = TaskAssignment(topologies.path(2))
    for task_id, weight in enumerate(weights):
        assignment.add(0, Task(task_id=task_id, weight=weight))
    return assignment


def single_class_loads(network, weight, total_tasks, seed=3, placement="uniform"):
    """A workload whose tasks all share one weight class."""
    from repro.tasks.generators import point_load, uniform_random_load

    if placement == "point":
        counts = point_load(network, total_tasks)
    else:
        counts = uniform_random_load(network, total_tasks, seed=seed)
    return WeightedLoads.from_buckets(
        [{weight: int(c)} if c else {} for c in counts])


def paired_single_class(network, weight, total_tasks, substrate=FirstOrderDiffusion,
                        policy=TaskSelectionPolicy.FIFO, **substrate_kwargs):
    weighted = single_class_loads(network, weight, total_tasks)
    reference = weighted.load_vector().astype(float)
    object_balancer = DeterministicFlowImitation(
        substrate(network, reference, **substrate_kwargs),
        weighted.to_assignment(network), selection_policy=policy)
    array_balancer = ArrayDeterministicFlowImitation(
        substrate(network, reference, **substrate_kwargs), weighted,
        selection_policy=policy)
    return object_balancer, array_balancer


class TestSingleClassFastPath:
    """The vectorised single-weight-class round kernel (scatter-adds, no loop)."""

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("weight", [1, 2, 5])
    def test_bit_identical_to_object_backend(self, topology, weight):
        network = TOPOLOGIES[topology]()
        object_balancer, array_balancer = paired_single_class(
            network, weight, 20 * network.num_nodes)
        assert_roundwise_equal(object_balancer, array_balancer, rounds=40)

    @pytest.mark.parametrize("policy", sorted(TaskSelectionPolicy.ALL))
    def test_bit_identical_across_policies(self, policy):
        network = topologies.torus(4, dims=2)
        object_balancer, array_balancer = paired_single_class(
            network, 3, 20 * network.num_nodes, policy=policy)
        assert_roundwise_equal(object_balancer, array_balancer, rounds=40)

    def test_fast_path_actually_engages(self):
        """After scatter rounds the state stores no run arrays."""
        network = topologies.torus(4, dims=2)
        _, array_balancer = paired_single_class(network, 5,
                                                20 * network.num_nodes)
        state = array_balancer._state
        assert state.single_class == 5
        for _ in range(10):
            array_balancer.advance()
        assert state._runs is None, "the scatter form stores no run arrays"
        assert array_balancer.dummy_tokens_created == 0

    def test_dummy_fallback_stays_bit_identical(self):
        """An overshooting SOS forces dummies: the fast path must hand the
        round to the queue-faithful path and keep exact equality."""
        network = topologies.random_regular(30, 5, seed=4)
        weighted = single_class_loads(network, 2, 300, placement="point")
        reference = weighted.load_vector().astype(float)
        object_balancer = DeterministicFlowImitation(
            SecondOrderDiffusion(network, reference, beta=1.9),
            weighted.to_assignment(network))
        array_balancer = ArrayDeterministicFlowImitation(
            SecondOrderDiffusion(network, reference, beta=1.9), weighted)
        assert_roundwise_equal(object_balancer, array_balancer, rounds=60)
        assert array_balancer.dummy_tokens_created > 0, \
            "instance must exercise the fallback"
        assert array_balancer._state.single_class is None
        # dummy elimination restores the single class (and the fast path)
        assert object_balancer.remove_dummies() == array_balancer.remove_dummies()
        assert array_balancer._state.single_class == 2

    def test_mixed_weights_take_the_general_path(self):
        network = topologies.torus(4, dims=2)
        weighted = weighted_loads_from_task_counts(
            [8] * network.num_nodes, max_weight=4, seed=1)
        balancer = ArrayDeterministicFlowImitation(
            FirstOrderDiffusion(network, weighted.load_vector().astype(float)),
            weighted)
        assert balancer._state.single_class is None
        for _ in range(10):
            balancer.advance()
        count, _weight, _dummy, offsets = balancer._state.runs()
        assert balancer._state._runs is not None
        assert count.size > np.count_nonzero(np.diff(offsets)), \
            "some node must hold more than one run"


class TestWeightedStateQueries:
    """Max weight, bucket queries and dummy elimination on the flat state."""

    def test_max_weight_is_maintained(self):
        state = WeightedRunState.from_weighted_loads(
            WeightedLoads.from_buckets([{2: 3}, {5: 1}, {}]))
        assert state.max_weight() == 5
        transfer(state, [(1, 0, 10.5)], 5.0 + 1e-9)   # the heavy task moves
        assert queues(state)[0] == [(3, 2, False), (1, 5, False), (1, 1, True)]
        assert state.max_weight() == 5
        state.remove_dummies()
        assert state.max_weight() == 5

    def test_max_weight_recomputed_after_unit_dummy_elimination(self):
        state = WeightedRunState.from_weighted_loads(
            WeightedLoads.from_buckets([{1: 2}, {}]))
        transfer(state, [(0, 1, 3)], 1.0 + 1e-9)
        assert state.max_weight() == 1
        assert state.remove_dummies() == 1
        assert state.max_weight() == 1
        empty = WeightedRunState.from_weighted_loads(
            WeightedLoads.from_buckets([{}, {}]))
        transfer(empty, [(0, 1, 2)], 1.0 + 1e-9)
        assert empty.max_weight() == 1
        assert empty.remove_dummies() == 2
        assert empty.max_weight() == 0

    def test_remove_dummies_is_a_no_op_on_clean_queues(self):
        state = WeightedRunState.from_weighted_loads(
            WeightedLoads.from_buckets([{2: 3, 3: 1}, {1: 4}]))
        runs = state.runs()
        assert state.remove_dummies() == 0
        assert state.runs() is runs, "a clean state keeps its run arrays"
        transfer(state, [(1, 0, 20.0)], 3.0 + 1e-9)
        assert queues(state)[0] == [(3, 2, False), (1, 3, False), (4, 1, False),
                                    (13, 1, True)]
        assert state.remove_dummies() == 13
        assert queues(state) == [[(3, 2, False), (1, 3, False), (4, 1, False)], []]

    def test_real_counts_track_mutations_and_return_copies(self):
        state = WeightedRunState.from_weighted_loads(
            WeightedLoads.from_buckets([{2: 3, 4: 1}, {1: 2}]))
        weights = np.array([1, 2, 4])
        first = state.real_counts(weights)
        first[0, 1] = 999                       # mutating the copy is harmless
        assert state.real_counts(weights).tolist() == [[0, 3, 1], [2, 0, 0]]
        transfer(state, [(0, 1, 8.5)], 4.0 + 1e-9, TaskSelectionPolicy.LARGEST_FIRST)
        assert state.real_counts(weights).tolist() == [[0, 2, 0], [2, 1, 1]]

    def test_real_counts_arithmetic_in_compact_mode(self):
        """Single-class counts come straight from the load vector — the
        state stores no run arrays, even after querying them."""
        network = topologies.torus(4, dims=2)
        _, array_balancer = paired_single_class(network, 4,
                                                20 * network.num_nodes)
        for _ in range(5):
            array_balancer.advance()
        state = array_balancer._state
        assert state._runs is None
        weights = np.array([1, 4])
        counts = state.real_counts(weights)
        assert state._runs is None, "a count query must not store run arrays"
        assert counts.dtype == np.int64
        assert np.array_equal(counts @ weights, state.load_vector())
        assert not counts[:, 0].any()

    def test_single_class_streams_match_object_backend(self):
        """End-to-end: a single-class weighted stream stays trajectory-equal
        (the stream syncs through the cached/arithmetic buckets each round)."""
        from repro.dynamic.events import make_event_generator
        from repro.dynamic.stream import run_stream

        def one(backend):
            network = topologies.torus(4, dims=2)
            weighted = single_class_loads(network, 3, 8 * network.num_nodes)
            generator = make_event_generator("burst", network, 6, seed=17)
            return run_stream("algorithm1", network, weighted, generator,
                              rounds=40, seed=17, backend=backend)

        object_result, array_result = one("object"), one("array")
        assert object_result.trace_max_min == array_result.trace_max_min
        assert object_result.trace_total_weight == array_result.trace_total_weight
