"""Unit tests for :mod:`repro.network.topologies`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import NetworkError, TopologyError
from repro.network import topologies


class TestHypercube:
    def test_sizes(self):
        for dim in (1, 2, 3, 5):
            net = topologies.hypercube(dim)
            assert net.num_nodes == 2**dim
            assert net.max_degree == dim
            assert net.is_regular

    def test_edge_count(self):
        net = topologies.hypercube(4)
        assert net.num_edges == 4 * 2**4 // 2

    def test_invalid_dimension(self):
        with pytest.raises(TopologyError):
            topologies.hypercube(0)


class TestTorus:
    def test_2d_torus_is_4_regular(self):
        net = topologies.torus(5, dims=2)
        assert net.num_nodes == 25
        assert net.is_regular
        assert net.max_degree == 4

    def test_3d_torus_is_6_regular(self):
        net = topologies.torus(3, dims=3)
        assert net.num_nodes == 27
        assert net.max_degree == 6

    def test_1d_torus_is_cycle(self):
        net = topologies.torus(6, dims=1)
        assert net.num_nodes == 6
        assert net.max_degree == 2

    def test_invalid_parameters(self):
        with pytest.raises(TopologyError):
            topologies.torus(1, dims=2)
        with pytest.raises(TopologyError):
            topologies.torus(4, dims=0)


class TestSimpleFamilies:
    def test_cycle(self):
        net = topologies.cycle(10)
        assert net.num_nodes == 10
        assert net.num_edges == 10
        assert net.diameter() == 5

    def test_cycle_too_small(self):
        with pytest.raises(TopologyError):
            topologies.cycle(2)

    def test_path(self):
        net = topologies.path(7)
        assert net.num_edges == 6
        assert net.diameter() == 6

    def test_complete(self):
        net = topologies.complete(6)
        assert net.num_edges == 15
        assert net.max_degree == 5
        assert net.diameter() == 1

    def test_star(self):
        net = topologies.star(9)
        assert net.num_nodes == 9
        assert net.max_degree == 8
        assert net.min_degree == 1

    def test_grid(self):
        net = topologies.grid(3, 4)
        assert net.num_nodes == 12
        assert net.max_degree == 4
        assert net.min_degree == 2

    def test_binary_tree(self):
        net = topologies.binary_tree(3)
        assert net.num_nodes == 2**4 - 1
        assert net.max_degree == 3

    def test_barbell_and_lollipop(self):
        bar = topologies.barbell(4, 2)
        assert bar.is_connected()
        lol = topologies.lollipop(4, 3)
        assert lol.is_connected()
        bridge = topologies.two_cliques_bridge(5)
        assert bridge.num_nodes == 10

    def test_invalid_simple_parameters(self):
        with pytest.raises(TopologyError):
            topologies.path(1)
        with pytest.raises(TopologyError):
            topologies.complete(1)
        with pytest.raises(TopologyError):
            topologies.star(1)
        with pytest.raises(TopologyError):
            topologies.grid(0, 3)
        with pytest.raises(TopologyError):
            topologies.binary_tree(0)
        with pytest.raises(TopologyError):
            topologies.barbell(2, 0)
        with pytest.raises(TopologyError):
            topologies.lollipop(4, 0)


class TestRandomFamilies:
    def test_random_regular_connected_and_regular(self):
        net = topologies.random_regular(20, 4, seed=1)
        assert net.is_connected()
        assert net.is_regular
        assert net.max_degree == 4

    def test_random_regular_reproducible(self):
        a = topologies.random_regular(20, 4, seed=5)
        b = topologies.random_regular(20, 4, seed=5)
        assert a.edges == b.edges

    def test_random_regular_parity_check(self):
        with pytest.raises(TopologyError):
            topologies.random_regular(9, 3, seed=1)

    def test_random_regular_degree_bounds(self):
        with pytest.raises(TopologyError):
            topologies.random_regular(10, 0)
        with pytest.raises(TopologyError):
            topologies.random_regular(10, 10)

    def test_expander_alias(self):
        net = topologies.expander(16, degree=4, seed=2)
        assert net.max_degree == 4

    def test_erdos_renyi_connected(self):
        net = topologies.erdos_renyi(30, 0.3, seed=3)
        assert net.is_connected()
        assert net.num_nodes == 30

    def test_erdos_renyi_invalid_probability(self):
        with pytest.raises(TopologyError):
            topologies.erdos_renyi(10, 0.0)
        with pytest.raises(TopologyError):
            topologies.erdos_renyi(10, 1.5)

    def test_random_geometric_connected(self):
        net = topologies.random_geometric(40, seed=4)
        assert net.is_connected()

    def test_random_geometric_too_small(self):
        with pytest.raises(TopologyError):
            topologies.random_geometric(1)


class TestFromEdgeList:
    def test_basic(self):
        net = topologies.from_edge_list([(0, 1), (1, 2), (2, 0)], name="tri")
        assert net.num_nodes == 3
        assert net.name == "tri"

    def test_with_speeds(self):
        net = topologies.from_edge_list([(0, 1), (1, 2)], speeds=[1, 2, 3])
        assert net.total_speed == 6

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            topologies.from_edge_list([])
        with pytest.raises(TopologyError):
            topologies.from_edge_list(np.zeros((0, 2), dtype=np.int64))

    def test_integer_array_accepted(self):
        net = topologies.from_edge_list(np.array([[0, 1], [1, 2]]), name="p3")
        assert net.edges == ((0, 1), (1, 2))
        assert net.node_labels == [0, 1, 2]
        assert net.name == "p3"

    def test_sparse_endpoints_are_numbered_in_sorted_order(self):
        net = topologies.from_edge_list([(10, 3), (3, 7)])
        assert net.num_nodes == 3
        assert net.node_labels == [3, 7, 10]
        assert net.edges == ((0, 1), (0, 2))

    def test_bad_shape_and_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            topologies.from_edge_list(np.array([0, 1, 2]))
        with pytest.raises(NetworkError):
            topologies.from_edge_list([(0, 1), (2, 2)])

    def test_fractional_endpoints_rejected(self):
        with pytest.raises(TopologyError, match="integers"):
            topologies.from_edge_list([(0.5, 1.5), (1, 2)])
        with pytest.raises(TopologyError):
            topologies.from_edge_list([("a", "b")])
        net = topologies.from_edge_list([(0.0, 1.0), (1, 2)])
        assert net.edges == ((0, 1), (1, 2))


class TestNamedTopology:
    @pytest.mark.parametrize("name", ["hypercube", "torus", "torus3d", "cycle", "path",
                                      "complete", "star", "expander", "geometric"])
    def test_all_names_build(self, name):
        net = topologies.named_topology(name, 16, seed=1)
        assert net.num_nodes >= 2
        assert net.is_connected()

    def test_unknown_name(self):
        with pytest.raises(TopologyError):
            topologies.named_topology("klein-bottle", 16)

    def test_hypercube_rounds_to_power_of_two(self):
        net = topologies.named_topology("hypercube", 60)
        assert net.num_nodes == 64
