"""Counter-based RNG for the excess-token baseline.

In ``rng_mode="counter"`` every per-node draw is a pure function of
``(seed, round, node, candidate-slot)`` — Philox keyed on ``(seed, round)``
with per-node score rows — so the draws are independent of the order nodes
are visited in, which is exactly what lets the columnar kernel batch the
whole round.  These tests pin down:

* determinism: same seed => same draws/trajectory, different seeds differ;
* order-freeness: visiting nodes in any order yields the same selections;
* bit-identity between the batched counter-mode round and the per-node
  oracle :class:`baseline_oracles.ScalarExcessTokenDiffusion`;
* the engine/CLI plumbing (``rng_mode`` threading, backend recording);
* the clear-error satellite: non-integer loads raise instead of silently
  producing a wrong answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from baseline_oracles import ScalarExcessTokenDiffusion
from repro.discrete.baselines.diffusion import RNG_MODES, ExcessTokenDiffusion
from repro.exceptions import ExperimentError, ProcessError
from repro.network import topologies
from repro.obs.kernels import activate_kernel_clock, deactivate_kernel_clock
from repro.simulation.engine import make_balancer, run_algorithm
from repro.tasks.generators import point_load, uniform_random_load


def workload(network, seed=2):
    return uniform_random_load(network, 30 * network.num_nodes, seed=seed) \
        + point_load(network, 10 * network.num_nodes)


def trajectory(balancer, rounds):
    trace = []
    for _ in range(rounds):
        balancer.advance()
        trace.append(balancer.loads())
    return np.array(trace)


class TestCounterDeterminism:
    @pytest.mark.parametrize("strategy", sorted(ExcessTokenDiffusion.STRATEGIES))
    def test_same_seed_same_trajectory(self, strategy):
        network = topologies.torus(4, dims=2)
        load = workload(network)
        runs = [
            trajectory(ExcessTokenDiffusion(network, load, seed=11,
                                            rng_mode="counter", strategy=strategy), 30)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])

    def test_different_seeds_differ(self):
        network = topologies.torus(4, dims=2)
        load = workload(network)
        a = trajectory(ExcessTokenDiffusion(network, load, seed=1,
                                            rng_mode="counter"), 30)
        b = trajectory(ExcessTokenDiffusion(network, load, seed=2,
                                            rng_mode="counter"), 30)
        assert not np.array_equal(a, b)

    def test_counter_and_sequential_are_distinct_processes(self):
        network = topologies.torus(4, dims=2)
        load = workload(network)
        counter = trajectory(ExcessTokenDiffusion(network, load, seed=1,
                                                  rng_mode="counter"), 30)
        sequential = trajectory(ExcessTokenDiffusion(network, load, seed=1), 30)
        assert not np.array_equal(counter, sequential)

    def test_unknown_rng_mode_rejected(self):
        network = topologies.cycle(5)
        with pytest.raises(ProcessError):
            ExcessTokenDiffusion(network, [2] * 5, rng_mode="quantum")
        with pytest.raises(ExperimentError):
            run_algorithm("excess-tokens", network, initial_load=[2] * 5,
                          rounds=3, rng_mode="quantum")
        assert RNG_MODES == ("sequential", "counter")


class TestOrderFreeDraws:
    def test_draws_identical_regardless_of_node_iteration_order(self):
        """Two references visiting nodes forward/backward select identically."""
        network = topologies.random_regular(20, 4, seed=3)
        load = workload(network)
        reference = ScalarExcessTokenDiffusion(network, load, seed=5, rng_mode="counter")
        shuffled = ScalarExcessTokenDiffusion(network, load, seed=5, rng_mode="counter")
        for round_index in range(5):
            scores_a = reference._counter_scores(round_index)
            scores_b = shuffled._counter_scores(round_index)
            assert np.array_equal(scores_a, scores_b)
            forward = {
                node: list(reference._counter_chosen(
                    node, len(network.neighbors(node)) + 1, 2, scores_a))
                for node in network.nodes
            }
            backward = {
                node: list(shuffled._counter_chosen(
                    node, len(network.neighbors(node)) + 1, 2, scores_b))
                for node in reversed(network.nodes)
            }
            for node in network.nodes:
                assert np.array_equal(forward[node], backward[node])

    @pytest.mark.parametrize("topology", ["torus", "random-regular", "ring"])
    @pytest.mark.parametrize("strategy", sorted(ExcessTokenDiffusion.STRATEGIES))
    def test_vectorized_kernel_bit_identical_to_scalar_reference(self, topology,
                                                                 strategy):
        network = {
            "torus": lambda: topologies.torus(4, dims=2),
            "random-regular": lambda: topologies.random_regular(30, 5, seed=4),
            "ring": lambda: topologies.cycle(12),
        }[topology]()
        load = workload(network)
        scalar = ScalarExcessTokenDiffusion(network, load, seed=9, rng_mode="counter",
                                            strategy=strategy)
        vectorized = ExcessTokenDiffusion(network, load, seed=9, rng_mode="counter",
                                          strategy=strategy)
        for round_index in range(40):
            scalar.advance()
            vectorized.advance()
            assert np.array_equal(scalar.loads(), vectorized.loads()), (
                f"{topology}/{strategy} diverged at round {round_index}")
        assert scalar.went_negative == vectorized.went_negative


class TestEnginePlumbing:
    def test_counter_mode_runs_the_batched_round(self):
        network = topologies.torus(4, dims=2)
        clock = activate_kernel_clock()
        try:
            for rng_mode in ("sequential", "counter"):
                balancer = make_balancer("excess-tokens", network,
                                         initial_load=workload(network), seed=3,
                                         backend="array", rng_mode=rng_mode)
                assert type(balancer) is ExcessTokenDiffusion
                balancer.run(2)
                phases = clock.drain()
                assert ("baseline/excess-array" in phases) == (rng_mode == "counter")
        finally:
            deactivate_kernel_clock()

    def test_run_algorithm_reports_one_implementation(self):
        network = topologies.torus(4, dims=2)
        for backend in ("object", "array"):
            sequential = run_algorithm("excess-tokens", network,
                                       initial_load=workload(network), rounds=5,
                                       seed=3, backend=backend)
            assert sequential.extra["backend"] == backend
            assert "one integer-vector implementation" in sequential.extra["backend_reason"]
            assert "counter" not in sequential.extra["backend_reason"]
            counter = run_algorithm("excess-tokens", network,
                                    initial_load=workload(network), rounds=5, seed=3,
                                    backend=backend, rng_mode="counter")
            assert "counter" in counter.extra["backend_reason"]

    def test_counter_recouple_equals_fresh_build(self):
        network = topologies.torus(4, dims=2)
        first = workload(network, seed=0)
        second = workload(network, seed=1)
        recoupled = make_balancer("excess-tokens", network, initial_load=first,
                                  seed=5, backend="array", rng_mode="counter")
        recoupled.run(10)
        recoupled.recouple(second, seed=77)
        fresh = make_balancer("excess-tokens", network, initial_load=second,
                              seed=77, backend="array", rng_mode="counter")
        assert np.array_equal(trajectory(recoupled, 15), trajectory(fresh, 15))

    def test_counter_streams_match_across_backends(self):
        from repro.dynamic.events import make_event_generator
        from repro.dynamic.stream import run_stream

        def one(backend):
            network = topologies.torus(4, dims=2)
            load = uniform_random_load(network, 6 * network.num_nodes, seed=17)
            generator = make_event_generator("burst", network, 6, seed=17)
            return run_stream("excess-tokens", network, load, generator,
                              rounds=50, seed=17, backend=backend,
                              rng_mode="counter")

        object_result, array_result = one("object"), one("array")
        assert object_result.trace_max_min == array_result.trace_max_min
        assert object_result.trace_total_weight == array_result.trace_total_weight


class TestNonIntegerLoadValidation:
    """Satellite: a clear error instead of a silently rounded workload."""

    def test_direct_construction_rejects_fractional_loads(self):
        network = topologies.cycle(4)
        with pytest.raises(ProcessError, match="integer token loads"):
            ExcessTokenDiffusion(network, [1.5, 0, 0, 0])

    def test_engine_no_longer_silently_rounds(self):
        network = topologies.cycle(4)
        with pytest.raises(ExperimentError, match="integer token loads"):
            run_algorithm("excess-tokens", network, initial_load=[1.5, 0, 0, 0],
                          rounds=3)
        for baseline in ("round-down", "quasirandom", "randomized-rounding"):
            with pytest.raises(ExperimentError, match="integer token loads"):
                run_algorithm(baseline, network, initial_load=[0.25, 1, 1, 1],
                              rounds=3)

    def test_engine_rejects_large_fractional_loads(self):
        network = topologies.cycle(4)
        for backend in ("object", "array"):
            with pytest.raises(ExperimentError, match="integer token loads"):
                make_balancer("algorithm1", network, backend=backend,
                              initial_load=[2_000_000.3, 0, 0, 0])

    def test_stream_rejects_large_fractional_loads(self):
        from repro.dynamic.events import make_event_generator
        from repro.dynamic.stream import StreamingEngine

        network = topologies.cycle(4)
        with pytest.raises(ExperimentError, match="integer token loads"):
            StreamingEngine("algorithm1", network, [2_000_000.3, 0, 0, 0],
                            make_event_generator("burst", network, 6, seed=1))

    def test_negative_loads_rejected(self):
        network = topologies.cycle(4)
        with pytest.raises(ProcessError, match="non-negative"):
            ExcessTokenDiffusion(network, [-1, 2, 2, 2])
