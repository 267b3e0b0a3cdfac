"""Edge-keyed counter RNG for Algorithm 2 and randomized-rounding diffusion.

Every rounding draw is a pure function of ``(seed, round, edge)`` — Philox
keyed on ``(seed, round)`` with one score per edge
(:mod:`repro.counter_rng`) — so the draws are independent of the order the
edges are visited in, which is what lets the array kernels batch the whole
round.  These tests pin down:

* determinism: same seed => same trajectory; different seeds differ;
* permutation invariance: processing the per-round send requests (or edges)
  in a shuffled order yields the *same* load trajectory;
* bit-identity between the scalar reference
  :class:`RandomizedFlowImitation` and the vectorised kernel
  :class:`ArrayRandomizedFlowImitation`, and between
  :class:`RandomizedRoundingDiffusion` and its per-edge move oracle, across
  topologies and substrates;
* the engine plumbing through ``make_balancer``/``run_algorithm``/
  ``run_stream``, the recorded ``backend_reason`` and the rejection of any
  ``rng_mode`` other than ``"counter"``.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from baseline_oracles import ScalarRandomizedRoundingDiffusion
from repro.backend.flow import ArrayRandomizedFlowImitation
from repro.continuous.fos import FirstOrderDiffusion
from repro.continuous.sos import SecondOrderDiffusion
from repro.core.algorithm2 import RandomizedFlowImitation
from repro.counter_rng import RNG_MODES, edge_scores
from repro.discrete.baselines.diffusion import RandomizedRoundingDiffusion
from repro.exceptions import ExperimentError
from repro.network import topologies
from repro.simulation.engine import make_balancer, run_algorithm
from repro.tasks.assignment import TaskAssignment
from repro.tasks.generators import point_load, uniform_random_load

TOPOLOGIES = {
    "torus": lambda: topologies.torus(5, dims=2),
    "random-regular": lambda: topologies.random_regular(30, 5, seed=4),
    "ring": lambda: topologies.cycle(12),
}


def workload(network, seed=2):
    return uniform_random_load(network, 30 * network.num_nodes, seed=seed) \
        + point_load(network, 10 * network.num_nodes)


def trajectory(balancer, rounds):
    trace = []
    for _ in range(rounds):
        balancer.advance()
        trace.append(balancer.loads())
    return np.array(trace)


def make_algorithm2(network, load, seed, cls=RandomizedFlowImitation):
    continuous = FirstOrderDiffusion(network, np.asarray(load, dtype=float))
    if cls is ArrayRandomizedFlowImitation:
        return cls(continuous, load, seed=seed)
    assignment = TaskAssignment.from_unit_loads(network, load)
    return cls(continuous, assignment, seed=seed)


class ReorderedRandomized(RandomizedFlowImitation):
    """Algorithm 2 visiting its per-round send requests in a shuffled order.

    The shuffle is deterministic per round so two instances of this class
    agree with each other; what the permutation test checks is agreement
    with the *canonically ordered* reference.
    """

    def _iter_requests(self, requests):
        entries = list(super()._iter_requests(requests))
        random.Random(self._round).shuffle(entries)
        return entries


class ShuffledEdgeRandomizedRounding(RandomizedRoundingDiffusion):
    """Scalar per-edge replay of randomized rounding in a shuffled edge order.

    Looks each edge's draw up by edge index (the counter-RNG contract) while
    visiting the edges in a per-round shuffled order — bit-identical to the
    stock vectorised round if and only if the draws are order-free.
    """

    def _execute_round(self) -> None:
        net = self._net_continuous_flows()
        draws = edge_scores(self._counter_key, self._round, net.size)
        sent = np.zeros(net.size, dtype=np.int64)
        order = list(range(net.size))
        random.Random(self._round).shuffle(order)
        for edge in order:
            magnitude = abs(float(net[edge]))
            base = math.floor(magnitude)
            amount = int(base) + (1 if draws[edge] < magnitude - base else 0)
            sent[edge] = amount if net[edge] > 0 else -amount
        self._apply_net_moves(sent)


class TestAlgorithm2CounterDeterminism:
    def test_same_seed_same_trajectory(self):
        network = topologies.torus(4, dims=2)
        load = workload(network)
        runs = [trajectory(make_algorithm2(network, load, 11), 30)
                for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])

    def test_different_seeds_differ(self):
        network = topologies.torus(4, dims=2)
        load = workload(network)
        a = trajectory(make_algorithm2(network, load, 1), 30)
        b = trajectory(make_algorithm2(network, load, 2), 30)
        assert not np.array_equal(a, b)

    def test_unknown_rng_mode_rejected(self):
        network = topologies.cycle(5)
        for backend in ("object", "array"):
            with pytest.raises(ExperimentError, match="only rng mode is 'counter'"):
                make_balancer("algorithm2", network, initial_load=[2] * 5,
                              backend=backend, rng_mode="quantum")
        assert RNG_MODES == ("counter",)


class TestAlgorithm2PermutationInvariance:
    def test_counter_trajectory_is_order_free(self):
        """Shuffled request iteration => identical physical load trajectory."""
        network = topologies.random_regular(20, 4, seed=3)
        load = workload(network)
        canonical = make_algorithm2(network, load, 5)
        shuffled = make_algorithm2(network, load, 5, cls=ReorderedRandomized)
        assert np.array_equal(trajectory(canonical, 30), trajectory(shuffled, 30))

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_vectorized_kernel_bit_identical_to_scalar_reference(self, topology):
        network = TOPOLOGIES[topology]()
        load = workload(network)
        scalar = make_algorithm2(network, load, 9)
        vectorized = make_algorithm2(network, load, 9, cls=ArrayRandomizedFlowImitation)
        for round_index in range(40):
            scalar.advance()
            vectorized.advance()
            assert np.array_equal(scalar.loads(), vectorized.loads()), (
                f"{topology} diverged at round {round_index}")
            assert np.array_equal(scalar.loads(include_dummies=False),
                                  vectorized.loads(include_dummies=False))
        assert scalar.dummy_tokens_created == vectorized.dummy_tokens_created
        assert np.allclose(scalar.discrete_cumulative_flows(),
                           vectorized.discrete_cumulative_flows())

    def test_bit_identity_survives_dummy_creation(self):
        """An overshooting SOS forces the infinite source; the kernels must
        still agree on loads and the real/dummy split."""
        network = topologies.random_regular(30, 5, seed=4)
        load = point_load(network, 600)
        scalar = RandomizedFlowImitation(
            SecondOrderDiffusion(network, load.astype(float), beta=1.9),
            TaskAssignment.from_unit_loads(network, load), seed=3)
        vectorized = ArrayRandomizedFlowImitation(
            SecondOrderDiffusion(network, load.astype(float), beta=1.9), load, seed=3)
        for _ in range(50):
            scalar.advance()
            vectorized.advance()
            assert np.array_equal(scalar.loads(), vectorized.loads())
            assert np.array_equal(scalar.loads(include_dummies=False),
                                  vectorized.loads(include_dummies=False))
        assert scalar.dummy_tokens_created == vectorized.dummy_tokens_created
        assert scalar.dummy_tokens_created > 0, "instance must exercise dummies"


class TestRandomizedRoundingCounter:
    def test_same_seed_same_trajectory(self):
        network = topologies.torus(4, dims=2)
        load = workload(network)
        a = trajectory(RandomizedRoundingDiffusion(network, load, seed=7), 30)
        b = trajectory(RandomizedRoundingDiffusion(network, load, seed=7), 30)
        assert np.array_equal(a, b)

    def test_edge_scores_are_a_pure_function(self):
        first = edge_scores(5, 3, 64)
        again = edge_scores(5, 3, 64)
        other_round = edge_scores(5, 4, 64)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other_round)

    def test_counter_round_is_order_free(self):
        """A scalar replay over shuffled edges matches the stock round."""
        network = topologies.random_regular(20, 4, seed=3)
        load = workload(network)
        stock = RandomizedRoundingDiffusion(network, load, seed=5)
        shuffled = ShuffledEdgeRandomizedRounding(network, load, seed=5)
        assert np.array_equal(trajectory(stock, 30), trajectory(shuffled, 30))

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_vectorized_kernel_bit_identical_to_scalar_reference(self, topology):
        network = TOPOLOGIES[topology]()
        load = workload(network)
        scalar = ScalarRandomizedRoundingDiffusion(network, load, seed=9)
        vectorized = RandomizedRoundingDiffusion(network, load, seed=9)
        for round_index in range(40):
            scalar.advance()
            vectorized.advance()
            assert np.array_equal(scalar.loads(), vectorized.loads()), (
                f"{topology} diverged at round {round_index}")
        assert scalar.went_negative == vectorized.went_negative

    def test_unknown_rng_mode_rejected(self):
        network = topologies.cycle(5)
        with pytest.raises(ExperimentError, match="only rng mode is 'counter'"):
            make_balancer("randomized-rounding", network, initial_load=[2] * 5,
                          rng_mode="sequential")


class TestEnginePlumbing:
    def test_counter_mode_reaches_the_flow_imitation_kernel(self):
        network = topologies.torus(4, dims=2)
        balancer = make_balancer("algorithm2", network,
                                 initial_load=workload(network),
                                 seed=3, backend="array", rng_mode="counter")
        assert isinstance(balancer, ArrayRandomizedFlowImitation)
        scalar = make_balancer("algorithm2", network,
                               initial_load=workload(network),
                               seed=3, backend="object", rng_mode="counter")
        assert isinstance(scalar, RandomizedFlowImitation)

    def test_counter_mode_reaches_the_diffusion_kernel(self):
        network = topologies.torus(4, dims=2)
        balancer = make_balancer("randomized-rounding", network,
                                 initial_load=workload(network),
                                 seed=3, backend="array", rng_mode="counter")
        assert type(balancer) is RandomizedRoundingDiffusion

    @pytest.mark.parametrize("algorithm", ["algorithm2", "randomized-rounding"])
    def test_backends_agree_through_run_algorithm(self, algorithm):
        network = topologies.torus(4, dims=2)
        load = workload(network)
        results = {
            backend: run_algorithm(algorithm, network, initial_load=load,
                                   rounds=25, seed=9, backend=backend,
                                   record_trace=True)
            for backend in ("object", "array")
        }
        assert results["object"].trace_max_min == results["array"].trace_max_min
        assert results["array"].extra["backend"] == "array"
        assert "counter" in results["array"].extra["backend_reason"]

    def test_counter_recouple_equals_fresh_build(self):
        network = topologies.torus(4, dims=2)
        first = workload(network, seed=0)
        second = workload(network, seed=1)
        recoupled = make_balancer("algorithm2", network, initial_load=first,
                                  seed=5, backend="array", rng_mode="counter")
        recoupled.run(10)
        recoupled.recouple(second, seed=77)
        fresh = make_balancer("algorithm2", network, initial_load=second,
                              seed=77, backend="array", rng_mode="counter")
        assert np.array_equal(trajectory(recoupled, 15), trajectory(fresh, 15))

    @pytest.mark.parametrize("algorithm", ["algorithm2", "randomized-rounding"])
    def test_counter_streams_match_across_backends(self, algorithm):
        from repro.dynamic.events import make_event_generator
        from repro.dynamic.stream import run_stream

        def one(backend):
            network = topologies.torus(4, dims=2)
            load = uniform_random_load(network, 6 * network.num_nodes, seed=17)
            generator = make_event_generator("burst", network, 6, seed=17)
            return run_stream(algorithm, network, load, generator,
                              rounds=50, seed=17, backend=backend)

        object_result, array_result = one("object"), one("array")
        assert object_result.trace_max_min == array_result.trace_max_min
        assert object_result.trace_total_weight == array_result.trace_total_weight
