"""O(n) re-coupling: in-place rewinds must equal freshly built balancers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.continuous.fos import FirstOrderDiffusion
from repro.continuous.sos import SecondOrderDiffusion
from repro.dynamic.events import DynamicEvent, ScheduledEvents, ARRIVAL, JOIN
from repro.dynamic.stream import StreamingEngine, run_stream
from repro.exceptions import ProcessError
from repro.network import topologies
from repro.network.matchings import RandomMatchingSchedule
from repro.simulation.engine import ALL_ALGORITHMS, make_balancer, make_schedule
from repro.tasks.generators import point_load, uniform_random_load


def trajectory(balancer, rounds):
    trace = []
    for _ in range(rounds):
        balancer.advance()
        trace.append(balancer.loads())
    return np.array(trace)


class TestContinuousReset:
    def test_reset_rewinds_loads_and_flows(self):
        network = topologies.torus(4, dims=2)
        process = FirstOrderDiffusion(network, point_load(network, 160))
        process.run(5)
        fresh_load = uniform_random_load(network, 160, seed=1).astype(float)
        process.reset(fresh_load)
        assert process.round_index == 0
        assert np.array_equal(process.load, fresh_load)
        assert np.all(process.cumulative_flows == 0.0)
        assert process.last_flows is None

    def test_reset_preserves_sos_spectral_data(self):
        network = topologies.torus(4, dims=2)
        process = SecondOrderDiffusion(network, point_load(network, 160))
        beta = process.beta
        process.run(5)
        process.reset(point_load(network, 320))
        assert process.beta == beta  # the O(n^3) eigenvalue work is not redone
        reference = SecondOrderDiffusion(network, point_load(network, 320))
        process.run(10)
        reference.run(10)
        assert np.allclose(process.load, reference.load)

    def test_balanced_target_is_a_fresh_copy(self):
        network = topologies.torus(4, dims=2)
        process = FirstOrderDiffusion(network, np.full(16, 10.0))
        target = process.balanced_target()
        target += 100.0
        assert process.is_balanced()
        assert np.array_equal(process.balanced_target(), np.full(16, 10.0))

    def test_reset_moves_the_balanced_target(self):
        network = topologies.torus(4, dims=2)
        process = FirstOrderDiffusion(network, np.full(16, 10.0))
        assert process.is_balanced()
        process.reset(np.full(16, 20.0))
        assert np.array_equal(process.balanced_target(), np.full(16, 20.0))
        assert process.is_balanced()
        process.reset(point_load(network, 160))
        assert np.array_equal(process.balanced_target(), np.full(16, 10.0))
        assert not process.is_balanced()

    def test_reset_rejects_negative_load(self):
        network = topologies.cycle(5)
        process = FirstOrderDiffusion(network, [1.0] * 5)
        with pytest.raises(ProcessError):
            process.reset([1.0, -1.0, 1.0, 1.0, 1.0])


class TestScheduleReseed:
    def test_reseed_matches_fresh_schedule(self):
        network = topologies.torus(4, dims=2)
        schedule = RandomMatchingSchedule(network, seed=0)
        _ = [schedule.matching(t) for t in range(10)]
        schedule.reseed(123)
        fresh = RandomMatchingSchedule(network, seed=123)
        assert [schedule.matching(t) for t in range(10)] == \
            [fresh.matching(t) for t in range(10)]


class TestBalancerRecouple:
    @pytest.mark.parametrize("algorithm", sorted(ALL_ALGORITHMS))
    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_recouple_equals_fresh_build(self, algorithm, backend):
        kind = ("random-matching" if algorithm.startswith("matching") else "fos")
        network = topologies.torus(4, dims=2)
        first_load = uniform_random_load(network, 96, seed=0)
        second_load = uniform_random_load(network, 160, seed=1)

        schedule = make_schedule(kind, network, seed=5)
        recoupled = make_balancer(algorithm, network, initial_load=first_load,
                                  continuous_kind=kind, schedule=schedule,
                                  seed=5, backend=backend)
        recoupled.run(10)
        recoupled.recouple(second_load, seed=77)

        fresh_schedule = make_schedule(kind, network, seed=77)
        fresh = make_balancer(algorithm, network, initial_load=second_load,
                              continuous_kind=kind, schedule=fresh_schedule,
                              seed=77, backend=backend)
        assert np.array_equal(trajectory(recoupled, 15), trajectory(fresh, 15))

    @pytest.mark.parametrize("cls_name", ["RandomWalkFineBalancer",
                                          "TwoPhaseRandomWalkBalancer"])
    def test_random_walk_recouple_equals_fresh_build(self, cls_name):
        """Even non-engine baselines must honour the recouple contract."""
        from repro.discrete.baselines import random_walk

        cls = getattr(random_walk, cls_name)
        network = topologies.torus(4, dims=2)
        recoupled = cls(network, uniform_random_load(network, 96, seed=0), seed=3)
        recoupled.run(20)
        second_load = uniform_random_load(network, 160, seed=1)
        recoupled.recouple(second_load, seed=3)
        fresh = cls(network, second_load, seed=3)
        assert np.array_equal(trajectory(recoupled, 15), trajectory(fresh, 15))

    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_recouple_moves_the_balanced_target(self, backend):
        network = topologies.torus(4, dims=2)
        balancer = make_balancer("algorithm1", network, initial_load=np.full(16, 4),
                                 backend=backend)
        assert balancer.continuous.is_balanced()
        balancer.recouple(np.full(16, 8))
        assert np.array_equal(balancer.continuous.balanced_target(), np.full(16, 8.0))
        assert balancer.continuous.is_balanced()
        balancer.recouple(point_load(network, 32))
        assert np.array_equal(balancer.continuous.balanced_target(), np.full(16, 2.0))
        assert not balancer.continuous.is_balanced()

    def test_recouple_resets_flow_imitation_counters(self):
        network = topologies.torus(4, dims=2)
        balancer = make_balancer("algorithm2", network,
                                 initial_load=point_load(network, 320),
                                 seed=3, backend="array")
        balancer.run(5)
        balancer._dummy_tokens_created = 11  # pretend the run drew dummies
        balancer._used_infinite_source = True
        balancer.recouple(point_load(network, 160), seed=4)
        assert balancer.round_index == 0
        assert balancer.dummy_tokens_created == 0
        assert not balancer.used_infinite_source
        assert balancer.round_reports == []
        assert balancer.original_weight == 160.0

    def test_recouple_rejects_fractional_loads(self):
        network = topologies.cycle(5)
        balancer = make_balancer("algorithm1", network, initial_load=[2] * 5,
                                 backend="array")
        with pytest.raises(ProcessError):
            balancer.recouple([1.5] * 5)


class TestStreamFastPath:
    def test_load_only_events_take_the_fast_path(self):
        network = topologies.torus(4, dims=2)
        load = uniform_random_load(network, 96, seed=2)
        generator = ScheduledEvents({
            3: [DynamicEvent(ARRIVAL, node=0, tokens=10)],
            6: [DynamicEvent(JOIN, attach_to=(0, 1), tokens=4)],
            9: [DynamicEvent(ARRIVAL, node=2, tokens=5)],
        })
        engine = StreamingEngine("algorithm1", network, load, generator, seed=2)
        for _ in range(12):
            engine.step()
        assert engine.recouplings == 3
        assert engine.fast_recouplings == 2  # the join rebuilt the network

    def test_fast_path_counter_reported_in_result(self):
        network = topologies.torus(4, dims=2)
        load = uniform_random_load(network, 96, seed=2)
        generator = ScheduledEvents({1: [DynamicEvent(ARRIVAL, node=0, tokens=3)]})
        result = run_stream("algorithm2", network, load, generator, rounds=5, seed=0)
        assert result.extra["fast_recouplings"] == 1.0
        assert result.extra["recouplings"] == 1.0
