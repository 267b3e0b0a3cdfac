"""Unit tests for :mod:`repro.tasks.generators`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TaskError
from repro.network import topologies
from repro.tasks import generators


@pytest.fixture
def net():
    return topologies.torus(4, dims=2)


class TestLoadVectors:
    def test_point_load(self, net):
        loads = generators.point_load(net, 100)
        assert loads.sum() == 100
        assert loads[0] == 100
        assert np.count_nonzero(loads) == 1

    def test_point_load_other_node(self, net):
        loads = generators.point_load(net, 10, node=5)
        assert loads[5] == 10

    def test_point_load_invalid_node(self, net):
        with pytest.raises(TaskError):
            generators.point_load(net, 10, node=99)

    def test_point_load_negative_total(self, net):
        with pytest.raises(TaskError):
            generators.point_load(net, -1)

    def test_two_point_load(self, net):
        loads = generators.two_point_load(net, 11)
        assert loads.sum() == 11
        assert loads[0] == 5 and loads[-1] == 6

    def test_uniform_random_conserves_total(self, net):
        loads = generators.uniform_random_load(net, 500, seed=1)
        assert loads.sum() == 500
        assert np.all(loads >= 0)

    def test_uniform_random_reproducible(self, net):
        a = generators.uniform_random_load(net, 200, seed=4)
        b = generators.uniform_random_load(net, 200, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_balanced_load(self):
        net = topologies.cycle(4).with_speeds([1, 2, 3, 4])
        loads = generators.balanced_load(net, 3)
        np.testing.assert_array_equal(loads, [3, 6, 9, 12])

    def test_balanced_load_rejects_large_fractional_speed(self):
        """The integer-speed check is absolute: no relative slack at scale."""
        net = topologies.cycle(4).with_speeds([1, 1, 1, 200_000.5])
        with pytest.raises(TaskError, match="integer speeds"):
            generators.balanced_load(net, 1)

    def test_balanced_load_negative_level(self, net):
        with pytest.raises(TaskError):
            generators.balanced_load(net, -1)

    def test_half_nodes_load(self, net):
        loads = generators.half_nodes_load(net, 10, seed=2)
        assert np.count_nonzero(loads) == net.num_nodes // 2
        assert set(np.unique(loads)).issubset({0, 10})

    def test_linear_gradient_load(self, net):
        loads = generators.linear_gradient_load(net, 30)
        assert loads[0] == 30
        assert loads[-1] == 0
        assert np.all(np.diff(loads) <= 0)


class TestAssignments:
    def test_unit_token_assignment(self, net):
        loads = generators.point_load(net, 50)
        assignment = generators.unit_token_assignment(net, loads)
        np.testing.assert_array_equal(assignment.loads(), loads)
        assert assignment.max_task_weight() == 1.0

    def test_weighted_assignment_point(self, net):
        assignment = generators.weighted_assignment(net, num_tasks=40, max_weight=5,
                                                    placement="point", seed=3)
        assert assignment.num_tasks == 40
        assert assignment.load(0) == assignment.total_weight()
        assert 1.0 <= assignment.max_task_weight() <= 5.0

    def test_weighted_assignment_uniform(self, net):
        assignment = generators.weighted_assignment(net, num_tasks=200, max_weight=3,
                                                    placement="uniform", seed=3)
        assert assignment.num_tasks == 200
        assert np.count_nonzero(assignment.loads()) > 1

    def test_weighted_assignment_proportional(self):
        net = topologies.cycle(4).with_speeds([1, 1, 1, 10])
        assignment = generators.weighted_assignment(net, num_tasks=500, max_weight=1,
                                                    placement="proportional", seed=5)
        loads = assignment.loads()
        assert loads[3] > loads[0]

    def test_weighted_assignment_invalid_placement(self, net):
        with pytest.raises(TaskError):
            generators.weighted_assignment(net, 10, placement="everywhere")

    def test_weighted_assignment_invalid_weight(self, net):
        with pytest.raises(TaskError):
            generators.weighted_assignment(net, 10, max_weight=0)

    def test_weighted_assignment_reproducible(self, net):
        a = generators.weighted_assignment(net, 30, max_weight=4, placement="uniform", seed=9)
        b = generators.weighted_assignment(net, 30, max_weight=4, placement="uniform", seed=9)
        np.testing.assert_array_equal(a.loads(), b.loads())


class TestSpeedProfiles:
    def test_uniform_speeds(self, net):
        np.testing.assert_array_equal(generators.uniform_speeds(net), np.ones(net.num_nodes))

    def test_random_integer_speeds_range(self, net):
        speeds = generators.random_integer_speeds(net, max_speed=5, seed=1)
        assert speeds.min() >= 1
        assert speeds.max() <= 5
        assert len(speeds) == net.num_nodes

    def test_random_integer_speeds_invalid(self, net):
        with pytest.raises(TaskError):
            generators.random_integer_speeds(net, max_speed=0)

    def test_power_of_two_speeds(self, net):
        speeds = generators.power_of_two_speeds(net, max_exponent=3, seed=2)
        assert set(np.unique(speeds)).issubset({1, 2, 4, 8})

    def test_power_of_two_invalid(self, net):
        with pytest.raises(TaskError):
            generators.power_of_two_speeds(net, max_exponent=-1)

    def test_degree_proportional_speeds(self):
        net = topologies.star(5)
        speeds = generators.proportional_to_degree_speeds(net)
        assert speeds[0] == 4
        assert np.all(speeds[1:] == 1)

    def test_speed_profiles_usable_as_network_speeds(self, net):
        speeds = generators.random_integer_speeds(net, max_speed=4, seed=7)
        upgraded = net.with_speeds(speeds)
        assert upgraded.total_speed == speeds.sum()
