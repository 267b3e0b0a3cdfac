"""Unit tests for :mod:`repro.network.graph`."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NetworkError
from repro.network.graph import Network
from repro.network import topologies


@st.composite
def connected_networks(draw, max_nodes=12):
    """A random connected simple graph: a random spanning tree plus extra edges."""
    n = draw(st.integers(1, max_nodes))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for node in range(1, n):
        graph.add_edge(node, draw(st.integers(0, node - 1)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        graph.add_edges_from(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return Network(graph)


def build_triangle(speeds=None) -> Network:
    graph = nx.Graph()
    graph.add_edges_from([(0, 1), (1, 2), (0, 2)])
    return Network(graph, speeds=speeds, name="triangle")


class TestConstruction:
    def test_basic_properties(self):
        net = build_triangle()
        assert net.num_nodes == 3
        assert net.num_edges == 3
        assert net.max_degree == 2
        assert net.min_degree == 2
        assert net.is_regular
        assert len(net) == 3

    def test_empty_graph_rejected(self):
        with pytest.raises(NetworkError):
            Network(nx.Graph())

    def test_self_loops_rejected(self):
        graph = nx.Graph()
        graph.add_edge(0, 0)
        graph.add_edge(0, 1)
        with pytest.raises(NetworkError):
            Network(graph)

    def test_default_speeds_are_uniform(self):
        net = build_triangle()
        assert net.has_uniform_speeds
        assert net.total_speed == 3.0
        np.testing.assert_allclose(net.speeds, [1, 1, 1])

    def test_explicit_speeds(self):
        net = build_triangle(speeds=[1, 2, 3])
        assert not net.has_uniform_speeds
        assert net.total_speed == 6.0
        assert net.speed(1) == 2.0

    def test_wrong_speed_length_rejected(self):
        graph = nx.path_graph(3)
        with pytest.raises(NetworkError):
            Network(graph, speeds=[1, 2])

    def test_speed_below_one_rejected(self):
        graph = nx.path_graph(3)
        with pytest.raises(NetworkError):
            Network(graph, speeds=[0.5, 1, 1])

    def test_non_finite_speed_rejected(self):
        graph = nx.path_graph(3)
        with pytest.raises(NetworkError):
            Network(graph, speeds=[np.inf, 1, 1])

    def test_from_edges_dedupes_and_orders_edges(self):
        net = Network.from_edges(4, [2, 0, 1, 2], [1, 3, 0, 1], name="four")
        assert net.edges == ((0, 1), (0, 3), (1, 2))
        assert net.node_labels == [0, 1, 2, 3]
        assert net.name == "four"
        assert net.neighbors(1) == (0, 2)
        # the networkx view lists edges in order of first appearance
        assert list(net.graph.edges()) == [(0, 3), (0, 1), (1, 2)]

    def test_from_edges_rejects_bad_input(self):
        with pytest.raises(NetworkError):
            Network.from_edges(0, [], [])
        with pytest.raises(NetworkError):
            Network.from_edges(3, [0, 1], [1, 1])
        with pytest.raises(NetworkError):
            Network.from_edges(3, [0], [3])
        with pytest.raises(NetworkError):
            Network.from_edges(3, [0, 1], [1])

    def test_adapter_does_not_keep_the_input_graph(self):
        graph = nx.path_graph(4)
        net = Network(graph)
        assert net.graph is not graph
        assert net.graph is net.graph
        assert list(net.graph.edges()) == list(graph.edges())

    def test_string_labels_are_relabelled_to_integers(self):
        graph = nx.Graph()
        graph.add_edges_from([("a", "b"), ("b", "c")])
        net = Network(graph)
        assert set(net.nodes) == {0, 1, 2}
        assert net.node_labels == ["a", "b", "c"]


class TestTopologyQueries:
    def test_neighbors_sorted(self):
        net = topologies.star(5)
        assert net.neighbors(0) == (1, 2, 3, 4)
        assert net.neighbors(2) == (0,)

    def test_degree(self):
        net = topologies.star(5)
        assert net.degree(0) == 4
        assert net.degree(3) == 1
        np.testing.assert_array_equal(net.degrees, [4, 1, 1, 1, 1])

    def test_has_edge(self):
        net = build_triangle()
        assert net.has_edge(0, 1)
        assert net.has_edge(1, 0)
        net2 = topologies.path(3)
        assert not net2.has_edge(0, 2)

    def test_edge_index_roundtrip(self):
        net = topologies.torus(4, dims=2)
        for index, (u, v) in enumerate(net.edges):
            assert net.edge_index(u, v) == index
            assert net.edge_index(v, u) == index

    def test_edge_index_missing_edge(self):
        net = topologies.path(4)
        with pytest.raises(NetworkError):
            net.edge_index(0, 3)

    def test_incident_edges(self):
        net = build_triangle()
        incident = net.incident_edges(0)
        assert len(incident) == 2
        assert all(0 in net.edges[i] for i in incident)

    def test_invalid_node_rejected(self):
        net = build_triangle()
        with pytest.raises(NetworkError):
            net.degree(7)
        with pytest.raises(NetworkError):
            net.neighbors(-1)

    def test_connectivity_and_diameter(self):
        net = topologies.path(5)
        assert net.is_connected()
        assert net.diameter() == 4

    def test_disconnected_graph_detected(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        net = Network(graph)
        assert not net.is_connected()
        with pytest.raises(NetworkError):
            net.require_connected()


class TestMatrices:
    def test_adjacency_matrix(self):
        net = build_triangle()
        adjacency = net.adjacency_matrix()
        assert adjacency.shape == (3, 3)
        assert np.all(adjacency == adjacency.T)
        assert adjacency.sum() == 6  # two entries per edge

    def test_laplacian_row_sums_zero(self):
        net = topologies.torus(4, dims=2)
        lap = net.laplacian_matrix()
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.diag(lap), net.degrees)


class TestDerivedNetworks:
    def test_with_speeds(self):
        net = build_triangle()
        fast = net.with_speeds([2, 2, 2])
        assert fast.total_speed == 6.0
        assert net.total_speed == 3.0  # original untouched
        assert fast.num_edges == net.num_edges

    def test_with_speeds_keeps_labels_name_and_layout(self):
        graph = nx.Graph()
        graph.add_edges_from([("a", "b"), ("b", "c")])
        net = Network(graph, name="abc")
        fast = net.with_speeds([1, 2, 3])
        assert fast.node_labels == ["a", "b", "c"]
        assert fast.name == "abc"
        assert fast.edges == net.edges
        assert fast.edge_endpoints[0] is net.edge_endpoints[0]
        np.testing.assert_array_equal(fast.speeds, [1, 2, 3])
        with pytest.raises(NetworkError):
            net.with_speeds([1, 2])

    def test_subnetwork(self):
        net = topologies.complete(5)
        sub = net.subnetwork([0, 1, 2])
        assert sub.num_nodes == 3
        assert sub.num_edges == 3

    def test_subnetwork_keeps_speeds(self):
        net = topologies.complete(4).with_speeds([1, 2, 3, 4])
        sub = net.subnetwork([1, 3])
        assert sorted(sub.speeds.tolist()) == [2.0, 4.0]


class TestEdgeLayout:
    def test_edges_is_one_shared_tuple(self):
        net = topologies.torus(4)
        assert isinstance(net.edges, tuple)
        assert net.edges is net.edges

    def test_endpoints_match_edges_as_int64(self):
        net = topologies.torus(4)
        u, v = net.edge_endpoints
        assert u.dtype == np.int64 and v.dtype == np.int64
        assert list(zip(u.tolist(), v.tolist())) == list(net.edges)

    def test_directed_endpoints_list_both_orientations(self):
        net = topologies.torus(4)
        u, v = net.edge_endpoints
        senders, receivers = net.directed_endpoints
        np.testing.assert_array_equal(senders, np.concatenate((u, v)))
        np.testing.assert_array_equal(receivers, np.concatenate((v, u)))

    def test_layout_arrays_are_read_only(self):
        net = topologies.torus(4)
        arrays = (*net.edge_endpoints, *net.directed_endpoints, net.directed_order)
        for array in arrays:
            assert array.dtype == np.int64
            with pytest.raises(ValueError):
                array[0] = 1

    def test_single_node_network_has_empty_layout(self):
        graph = nx.Graph()
        graph.add_node(0)
        net = Network(graph)
        assert net.edges == ()
        assert net.directed_order.size == 0
        edges, forward, senders, receivers = net.active_directed_edges(np.zeros(0))
        assert edges.size == forward.size == senders.size == receivers.size == 0



class TestIntegerNodeIds:
    """Fractional node ids are rejected, never truncated to an integer."""

    def test_from_edges_rejects_fractional_endpoints(self):
        with pytest.raises(NetworkError, match="integers"):
            Network.from_edges(3, [0.5], [1.7])
        with pytest.raises(NetworkError, match="integers"):
            Network.from_edges(3, [0, 1], [1, float("nan")])

    def test_from_edges_accepts_integral_floats(self):
        net = Network.from_edges(3, [0.0, 1.0], [1, 2])
        assert net.edges == ((0, 1), (1, 2))

    def test_edge_ids_of_fractional_pairs_are_missing(self):
        net = topologies.cycle(6)
        assert net.edge_ids([0.5], [1]).tolist() == [-1]
        assert net.edge_ids([0.5, 1.0, 2], [1, 2.0, 3]).tolist() == [-1, 2, 3]


def _lexsorted_active(net, residual):
    """The per-round reference: orient the active edges, then lexsort them."""
    u, v = net.edge_endpoints
    active = np.nonzero(residual != 0.0)[0]
    forward = residual[active] > 0.0
    senders = np.where(forward, u[active], v[active])
    receivers = np.where(forward, v[active], u[active])
    order = np.lexsort((receivers, senders))
    return active[order], forward[order], senders[order], receivers[order]


class TestDirectedOrder:
    @given(net=connected_networks())
    @settings(max_examples=40, deadline=None)
    def test_order_is_lexsort_of_all_directed_edges(self, net):
        senders, receivers = net.directed_endpoints
        np.testing.assert_array_equal(net.directed_order,
                                      np.lexsort((receivers, senders)))

    @given(net=connected_networks(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_filtered_order_equals_per_round_lexsort(self, net, data):
        m = net.num_edges
        pattern = data.draw(st.one_of(
            st.just("zero"), st.just("forward"), st.just("backward"), st.just("mixed")))
        signs = {
            "zero": st.just(0.0),
            "forward": st.sampled_from([0.0, 0.5, 2.0]),
            "backward": st.sampled_from([0.0, -0.5, -2.0]),
            "mixed": st.sampled_from([0.0, 0.25, -0.25, 3.0, -3.0]),
        }[pattern]
        residual = np.array(data.draw(st.lists(signs, min_size=m, max_size=m)), dtype=float)
        got = net.active_directed_edges(residual)
        expected = _lexsorted_active(net, residual)
        for got_part, expected_part in zip(got, expected):
            np.testing.assert_array_equal(got_part, expected_part)
        if pattern == "zero":
            assert got[0].size == 0
