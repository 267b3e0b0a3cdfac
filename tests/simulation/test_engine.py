"""Tests for the simulation engine registry (:mod:`repro.simulation.engine`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.continuous.dimension_exchange import DimensionExchange
from repro.continuous.fos import FirstOrderDiffusion
from repro.continuous.sos import SecondOrderDiffusion
from repro.exceptions import ExperimentError
from repro.network import topologies
from repro.simulation.engine import (
    compare_algorithms,
    determine_balancing_time,
    make_balancer,
    make_continuous,
    make_schedule,
    run_algorithm,
)
from repro.tasks.generators import point_load, weighted_assignment
from repro.tasks.weighted import WeightedLoads


@pytest.fixture
def torus():
    return topologies.torus(4, dims=2)


@pytest.fixture
def load(torus):
    return point_load(torus, 16 * 16)


class TestFactories:
    def test_make_continuous_kinds(self, torus, load):
        assert isinstance(make_continuous("fos", torus, load), FirstOrderDiffusion)
        assert isinstance(make_continuous("sos", torus, load), SecondOrderDiffusion)
        assert isinstance(make_continuous("periodic-matching", torus, load), DimensionExchange)
        assert isinstance(make_continuous("random-matching", torus, load, seed=1), DimensionExchange)

    def test_make_continuous_unknown_kind(self, torus, load):
        with pytest.raises(ExperimentError):
            make_continuous("teleport", torus, load)

    def test_make_schedule(self, torus):
        assert make_schedule("fos", torus) is None
        assert make_schedule("periodic-matching", torus) is not None
        assert make_schedule("random-matching", torus, seed=1) is not None

    def test_determine_balancing_time_positive(self, torus, load):
        T = determine_balancing_time(torus, load, "fos")
        assert T > 0

    def test_round_down_on_sos_is_the_second_order_baseline(self, torus, load):
        from repro.discrete.baselines.diffusion import RoundDownSecondOrder
        from repro.network.spectral import alpha_array, sos_beta

        balancer = make_balancer("round-down", torus, initial_load=load,
                                 continuous_kind="sos")
        assert type(balancer) is RoundDownSecondOrder
        continuous = SecondOrderDiffusion(torus, load)
        assert balancer.beta == continuous.beta == sos_beta(torus, alpha_array(torus))

    @pytest.mark.parametrize("algorithm", ["quasirandom", "randomized-rounding",
                                           "excess-tokens"])
    def test_first_order_baselines_rejected_on_sos(self, torus, load, algorithm):
        with pytest.raises(ExperimentError, match="has no second-order form"):
            make_balancer(algorithm, torus, initial_load=load, continuous_kind="sos")

    def test_sos_balances_no_slower_than_fos_on_cycle(self):
        net = topologies.cycle(24)
        load = point_load(net, 24 * 32)
        t_fos = determine_balancing_time(net, load, "fos")
        t_sos = determine_balancing_time(net, load, "sos")
        assert t_sos <= t_fos


class TestRunAlgorithm:
    @pytest.mark.parametrize("algorithm", ["algorithm1", "algorithm2", "round-down",
                                           "quasirandom", "randomized-rounding",
                                           "excess-tokens"])
    def test_diffusion_algorithms_run(self, torus, load, algorithm):
        result = run_algorithm(algorithm, torus, initial_load=load, seed=1)
        assert result.algorithm == algorithm
        assert result.rounds > 0
        assert result.final_max_min >= 0
        assert result.num_nodes == 16

    @pytest.mark.parametrize("algorithm", ["matching-round-down", "matching-randomized",
                                           "algorithm1", "algorithm2"])
    @pytest.mark.parametrize("kind", ["periodic-matching", "random-matching"])
    def test_matching_algorithms_run(self, torus, load, algorithm, kind):
        result = run_algorithm(algorithm, torus, initial_load=load,
                               continuous_kind=kind, seed=2)
        assert result.rounds > 0
        assert result.continuous_kind == kind

    def test_unknown_algorithm(self, torus, load):
        with pytest.raises(ExperimentError):
            run_algorithm("gossip", torus, initial_load=load)

    def test_requires_exactly_one_workload(self, torus, load):
        with pytest.raises(ExperimentError):
            run_algorithm("algorithm1", torus)
        assignment = weighted_assignment(torus, 10, placement="uniform", seed=1)
        with pytest.raises(ExperimentError):
            run_algorithm("algorithm1", torus, initial_load=load, assignment=assignment)

    def test_baseline_rejects_assignment(self, torus):
        assignment = weighted_assignment(torus, 10, placement="uniform", seed=1)
        with pytest.raises(ExperimentError):
            run_algorithm("round-down", torus, assignment=assignment)

    def test_baseline_rejects_wrong_model(self, torus, load):
        with pytest.raises(ExperimentError):
            run_algorithm("round-down", torus, initial_load=load,
                          continuous_kind="periodic-matching")
        with pytest.raises(ExperimentError):
            run_algorithm("matching-round-down", torus, initial_load=load,
                          continuous_kind="fos")

    def test_non_integer_load_rejected_for_tokens(self, torus):
        load = np.full(16, 1.5)
        with pytest.raises(ExperimentError):
            run_algorithm("algorithm1", torus, initial_load=load)

    def test_weighted_assignment_with_algorithm1(self, torus):
        assignment = weighted_assignment(torus, num_tasks=160, max_weight=3,
                                         placement="uniform", seed=4)
        result = run_algorithm("algorithm1", torus, assignment=assignment, seed=1)
        assert result.max_task_weight == assignment.max_task_weight()
        assert result.final_max_avg_no_dummies is not None

    def test_explicit_rounds_respected(self, torus, load):
        result = run_algorithm("round-down", torus, initial_load=load, rounds=5)
        assert result.rounds == 5

    def test_trace_recording(self, torus, load):
        result = run_algorithm("algorithm1", torus, initial_load=load,
                               rounds=10, record_trace=True)
        assert result.trace_max_min is not None
        assert len(result.trace_max_min) == 11  # initial state + 10 rounds
        assert result.trace_max_min[0] >= result.trace_max_min[-1]

    def test_result_as_dict_roundtrip(self, torus, load):
        result = run_algorithm("algorithm2", torus, initial_load=load, rounds=8, seed=3)
        row = result.as_dict()
        assert row["algorithm"] == "algorithm2"
        assert row["n"] == 16
        assert "max_min" in row and "max_avg" in row


def _fault(name, network):
    """``(algorithm, continuous_kind, workload keywords)`` of one shared fault."""
    counts = point_load(network, 2 * network.num_nodes)
    weighted = WeightedLoads.from_buckets([{1: 1, 2: 1}] * network.num_nodes)
    return {
        "unknown algorithm": ("gossip", "fos", {"initial_load": counts}),
        "unknown substrate": ("algorithm1", "teleport", {"initial_load": counts}),
        "unknown baseline substrate": ("round-down", "teleport", {"initial_load": counts}),
        "weighted on algorithm2": ("algorithm2", "fos", {"weighted_load": weighted}),
        "weighted assignment on algorithm2": (
            "algorithm2", "fos", {"assignment": weighted.to_assignment(network)}),
        "weighted on a baseline": ("round-down", "fos", {"weighted_load": weighted}),
        "two workloads": ("algorithm1", "fos",
                          {"initial_load": counts, "weighted_load": weighted}),
    }[name]


def _make_balancer(algorithm, network, kind, backend, workload):
    return make_balancer(algorithm, network, continuous_kind=kind, backend=backend,
                         **workload)


def _run_algorithm(algorithm, network, kind, backend, workload):
    return run_algorithm(algorithm, network, continuous_kind=kind, backend=backend,
                         rounds=2, **workload)


def _streaming_engine(algorithm, network, kind, backend, workload):
    from repro.dynamic.events import ScheduledEvents
    from repro.dynamic.stream import StreamingEngine

    (initial_load,) = workload.values()
    return StreamingEngine(algorithm, network, initial_load, ScheduledEvents({}),
                           continuous_kind=kind, backend=backend)


_FAULTS = ("unknown algorithm", "unknown substrate", "unknown baseline substrate",
           "weighted on algorithm2", "weighted assignment on algorithm2",
           "weighted on a baseline", "two workloads")


class TestSharedFaults:
    """Every entry point raises the same ``ExperimentError`` on every backend."""

    @pytest.mark.parametrize("backend", ["object", "array", "auto"])
    @pytest.mark.parametrize("entry, fault", [
        *[(_make_balancer, fault) for fault in _FAULTS],
        *[(_run_algorithm, fault) for fault in _FAULTS],
        # a stream takes one workload
        *[(_streaming_engine, fault) for fault in _FAULTS if fault != "two workloads"],
    ])
    def test_fault_raises_experiment_error(self, torus, entry, fault, backend):
        algorithm, kind, workload = _fault(fault, torus)
        with pytest.raises(ExperimentError):
            entry(algorithm, torus, kind, backend, workload)

    @pytest.mark.parametrize("algorithm", ["algorithm1", "round-down"])
    def test_negative_rounds_rejected(self, torus, load, algorithm):
        with pytest.raises(ExperimentError, match="rounds must be non-negative"):
            run_algorithm(algorithm, torus, initial_load=load, rounds=-3)


class TestCompareAlgorithms:
    def test_all_runs_use_same_horizon(self, torus, load):
        results = compare_algorithms(torus, load, ["round-down", "algorithm1", "algorithm2"],
                                     seed=5)
        assert len({result.rounds for result in results}) == 1

    def test_matching_comparison_shares_schedule(self, torus, load):
        results = compare_algorithms(torus, load,
                                     ["matching-round-down", "algorithm1"],
                                     continuous_kind="random-matching", seed=6)
        assert len({result.rounds for result in results}) == 1

    def test_unknown_algorithm_rejected(self, torus, load):
        with pytest.raises(ExperimentError):
            compare_algorithms(torus, load, ["algorithm1", "warp-drive"])

    def test_explicit_rounds(self, torus, load):
        results = compare_algorithms(torus, load, ["round-down", "algorithm1"], rounds=7)
        assert all(result.rounds == 7 for result in results)

    def test_algorithm1_beats_round_down_on_cycle(self):
        """The headline comparison: flow imitation is n-independent, round-down is not."""
        net = topologies.cycle(24)
        load = point_load(net, 24 * 32)
        results = {r.algorithm: r for r in compare_algorithms(
            net, load, ["round-down", "algorithm1"], seed=3)}
        assert results["algorithm1"].final_max_min < results["round-down"].final_max_min
