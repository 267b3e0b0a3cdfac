"""Unit tests for :class:`repro.continuous.base.RoundFlows`."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuous.base import RoundFlows
from repro.exceptions import ProcessError
from repro.network import topologies
from repro.network.graph import Network


@pytest.fixture
def net():
    return topologies.path(3)  # edges (0,1) and (1,2)


class TestRoundFlows:
    def test_empty_flows(self, net):
        flows = RoundFlows(net)
        assert flows.sent(0, 1) == 0.0
        np.testing.assert_array_equal(flows.net(), [0, 0])
        np.testing.assert_array_equal(flows.outgoing_all(), [0, 0, 0])

    def test_sent_directionality(self, net):
        flows = RoundFlows(net, forward=np.array([2.0, 0.0]), backward=np.array([0.5, 1.0]))
        assert flows.sent(0, 1) == 2.0
        assert flows.sent(1, 0) == 0.5
        assert flows.sent(2, 1) == 1.0
        assert flows.sent(1, 2) == 0.0

    def test_net_between(self, net):
        flows = RoundFlows(net, forward=np.array([2.0, 0.0]), backward=np.array([0.5, 1.0]))
        assert flows.net_between(0, 1) == pytest.approx(1.5)
        assert flows.net_between(1, 0) == pytest.approx(-1.5)

    def test_outgoing(self, net):
        flows = RoundFlows(net, forward=np.array([2.0, 3.0]), backward=np.array([0.5, 1.0]))
        assert flows.outgoing(0) == pytest.approx(2.0)
        assert flows.outgoing(1) == pytest.approx(0.5 + 3.0)
        assert flows.outgoing(2) == pytest.approx(1.0)
        np.testing.assert_allclose(flows.outgoing_all(), [2.0, 3.5, 1.0])

    def test_apply_to_conserves_total(self, net):
        flows = RoundFlows(net, forward=np.array([2.0, 3.0]), backward=np.array([0.5, 1.0]))
        loads = np.array([10.0, 5.0, 1.0])
        updated = flows.apply_to(loads)
        assert updated.sum() == pytest.approx(loads.sum())
        np.testing.assert_allclose(updated, [10 - 1.5, 5 + 1.5 - 2.0, 1 + 2.0])

    def test_wrong_shape_rejected(self, net):
        with pytest.raises(ProcessError):
            RoundFlows(net, forward=np.zeros(3))


@st.composite
def networks_with_flows(draw):
    """A random connected graph plus random non-negative per-edge flows."""
    n = draw(st.integers(2, 12))
    graph = nx.Graph()
    for node in range(1, n):
        graph.add_edge(node, draw(st.integers(0, node - 1)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    graph.add_edges_from(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    network = Network(graph)
    amounts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
    m = network.num_edges
    forward = draw(st.lists(amounts, min_size=m, max_size=m))
    backward = draw(st.lists(amounts, min_size=m, max_size=m))
    return network, np.array(forward), np.array(backward)


class TestOutgoingAllBitIdentity:
    @given(case=networks_with_flows())
    @settings(max_examples=60, deadline=None)
    def test_matches_two_scatter_adds(self, case):
        network, forward, backward = case
        u, v = network.edge_endpoints
        expected = np.zeros(network.num_nodes)
        np.add.at(expected, u, forward)
        np.add.at(expected, v, backward)
        got = RoundFlows(network, forward=forward, backward=backward).outgoing_all()
        assert np.array_equal(got, expected)
