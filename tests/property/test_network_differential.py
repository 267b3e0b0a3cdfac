"""Differential test: the array-built ``Network`` equals the networkx construction.

The oracle is the networkx path the library used before its edge layout was
built from int64 arrays: a networkx generator, ``convert_node_labels_to_integers``
and a sort of the relabelled graph's edges.  Four axes are checked:

(a) every array-native family (torus of any dimension, hypercube, grid,
    cycle, path, complete, star) equals its networkx generator: edges,
    neighbours, directed order, degrees, node labels, name and the
    adjacency order of :attr:`Network.graph`;
(b) the :class:`Network` adapter equals :meth:`Network.from_edges` and the
    oracle on generated graphs with int, shuffled, string and unsortable
    labels;
(c) the numpy BFS of :meth:`Network.distances_from` equals
    ``nx.single_source_shortest_path_length``, and :meth:`Network.is_connected`
    and :meth:`Network.diameter` built on it equal ``nx.is_connected`` and
    ``nx.diameter``;
(d) :func:`edge_coloring`, built from the edge arrays, equals networkx's
    greedy ``largest_first`` colouring of the oracle graph's line graph on
    every named family and on generated ``Network.from_edges`` inputs with
    shuffled, reversed and repeated edges, which pins the periodic matching
    schedules; building one never builds the networkx view.

The vectorised alpha setup and ``validate_matching`` are checked against
their scalar loops as well, and a run of Algorithms 1 and 2 on FOS and SOS
must never build the networkx view.  The generated example count follows
the active hypothesis profile (see ``tests/conftest.py``).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import NetworkError, ProcessError, ScheduleError
from repro.network import topologies
from repro.network.graph import Network
from repro.network.matchings import (PeriodicMatchingSchedule, edge_coloring,
                                     validate_matching)
from repro.network.spectral import AlphaScheme, compute_alphas, node_alpha_sums
from repro.continuous.fos import FirstOrderDiffusion
from repro.simulation.engine import run_algorithm
from repro.tasks.generators import uniform_random_load

# --------------------------------------------------------------------- #
# the networkx oracle
# --------------------------------------------------------------------- #


def _sortable(labels):
    try:
        sorted(labels)
        return True
    except TypeError:
        return False


def reference_network(graph, name=None):
    """The edge layout the networkx path computed for ``graph``."""
    labels = list(graph.nodes())
    sortable = _sortable(labels)
    relabelled = nx.convert_node_labels_to_integers(
        graph, ordering="sorted" if sortable else "default")
    n = relabelled.number_of_nodes()
    edges = tuple(sorted((u, v) if u < v else (v, u) for u, v in relabelled.edges()))
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    senders = np.concatenate((ends[:, 0], ends[:, 1]))
    receivers = np.concatenate((ends[:, 1], ends[:, 0]))
    neighbors = [tuple(sorted(relabelled.neighbors(i))) for i in range(n)]
    return SimpleNamespace(
        graph=relabelled, edges=edges, neighbors=neighbors,
        directed_order=np.lexsort((receivers, senders)),
        degrees=np.array([len(nbrs) for nbrs in neighbors], dtype=int),
        node_labels=sorted(labels) if sortable else labels,
        name=name or "network")


def _integers(graph):
    return nx.convert_node_labels_to_integers(graph)


#: (family, args) -> (networkx graph the family was generated from, name)
REFERENCE_FAMILIES = {
    "torus": lambda side, dims: (
        _integers(nx.grid_graph(dim=[side] * dims, periodic=True)), f"torus-{dims}d-{side}"),
    "hypercube": lambda d: (_integers(nx.hypercube_graph(d)), f"hypercube-{d}"),
    "grid": lambda rows, cols: (_integers(nx.grid_2d_graph(rows, cols)), f"grid-{rows}x{cols}"),
    "cycle": lambda n: (nx.cycle_graph(n), f"cycle-{n}"),
    "path": lambda n: (nx.path_graph(n), f"path-{n}"),
    "complete": lambda n: (nx.complete_graph(n), f"complete-{n}"),
    "star": lambda n: (nx.star_graph(n - 1), f"star-{n}"),
}

FAMILY_CASES = (
    [("torus", (side, 1)) for side in range(2, 12)]
    + [("torus", (side, 2)) for side in range(2, 9)]
    + [("torus", (side, 3)) for side in range(2, 6)]
    + [("torus", (3, 4)), ("torus", (2, 5))]
    + [("hypercube", (d,)) for d in range(1, 9)]
    + [("grid", (rows, cols)) for rows in (1, 2, 3, 5) for cols in (1, 2, 4, 7)]
    + [(family, (n,)) for family in ("cycle", "path", "complete", "star")
       for n in (3, 4, 5, 8, 13)]
    + [("path", (2,)), ("complete", (2,)), ("star", (2,))]
)


def adjacency(graph):
    """Node order plus each node's neighbour order: what networkx algorithms see."""
    return [(node, list(neighbors)) for node, neighbors in graph.adjacency()]


def assert_same_layout(network, reference, labels=True):
    assert network.edges == reference.edges
    assert [network.neighbors(i) for i in network.nodes] == reference.neighbors
    np.testing.assert_array_equal(network.directed_order, reference.directed_order)
    np.testing.assert_array_equal(network.degrees, reference.degrees)
    assert network.num_edges == len(reference.edges)
    if labels:
        assert network.node_labels == reference.node_labels
        assert network.name == reference.name


# --------------------------------------------------------------------- #
# (a) array-native families
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("family,args", FAMILY_CASES, ids=str)
def test_array_family_equals_networkx_generator(family, args):
    graph, name = REFERENCE_FAMILIES[family](*args)
    reference = reference_network(graph, name=name)
    network = getattr(topologies, family)(*args)
    assert_same_layout(network, reference)
    assert adjacency(network.graph) == adjacency(reference.graph)
    indptr, indices = network.csr
    assert indices.tolist() == [v for nbrs in reference.neighbors for v in nbrs]
    np.testing.assert_array_equal(np.diff(indptr), reference.degrees)


# --------------------------------------------------------------------- #
# (b) the adapter on generated graphs
# --------------------------------------------------------------------- #

LABEL_KINDS = ("int", "shuffled", "string", "unsortable")


@st.composite
def labelled_graphs(draw, max_nodes=12, connected=False):
    """A random simple graph under one of four label kinds.

    With ``connected`` a random spanning tree comes first; otherwise the
    graph may be disconnected.
    """
    n = draw(st.integers(1, max_nodes))
    kind = draw(st.sampled_from(LABEL_KINDS))
    tree = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)] if connected else []
    pairs = tree + draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                 .filter(lambda pair: pair[0] != pair[1]), max_size=3 * n))
    names = {
        "int": list(range(n)),
        "shuffled": list(range(n)),
        "string": [f"v{i}" for i in range(n)],
        "unsortable": [i if i % 2 else f"s{i}" for i in range(n)],
    }[kind]
    insertion = (draw(st.permutations(range(n))) if kind in ("shuffled", "string")
                 else range(n))
    graph = nx.Graph()
    graph.add_nodes_from(names[i] for i in insertion)
    graph.add_edges_from((names[a], names[b]) for a, b in pairs)
    return graph


@given(graph=labelled_graphs())
def test_adapter_equals_from_edges_and_oracle(graph):
    reference = reference_network(graph, name="g")
    network = Network(graph, name="g")
    assert_same_layout(network, reference)
    index = {label: i for i, label in enumerate(reference.node_labels)}
    u = [index[a] for a, _ in graph.edges()]
    v = [index[b] for _, b in graph.edges()]
    built = Network.from_edges(graph.number_of_nodes(), u, v, name="g")
    assert_same_layout(built, reference, labels=False)
    assert built.node_labels == list(range(graph.number_of_nodes()))
    if list(reference.graph.nodes()) == list(range(graph.number_of_nodes())):
        # the view reproduces the relabelled graph whenever its nodes are in order
        assert adjacency(network.graph) == adjacency(reference.graph)
        assert adjacency(built.graph) == adjacency(reference.graph)


@given(graph=labelled_graphs(), data=st.data())
def test_edge_ids_equals_edge_index(graph, data):
    network = Network(graph)
    n = network.num_nodes
    pairs = data.draw(st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=20))
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    expected = [network.edge_index(a, b) if network.has_edge(a, b) else -1 for a, b in pairs]
    assert network.edge_ids(u, v).tolist() == expected


# --------------------------------------------------------------------- #
# (c) connectivity
# --------------------------------------------------------------------- #


@given(graph=labelled_graphs(max_nodes=16))
def test_is_connected_equals_networkx(graph):
    assert Network(graph).is_connected() == nx.is_connected(graph)


@given(graph=labelled_graphs(max_nodes=16))
def test_distances_and_diameter_equal_networkx(graph):
    network = Network(graph)
    oracle = reference_network(graph).graph
    for source in network.nodes:
        lengths = nx.single_source_shortest_path_length(oracle, source)
        distances = network.distances_from(source)
        assert distances.dtype == np.int64
        assert distances.tolist() == [lengths.get(node, -1) for node in network.nodes]
    if nx.is_connected(graph):
        assert network.diameter() == nx.diameter(graph)
    else:
        with pytest.raises(NetworkError):
            network.diameter()


@pytest.mark.parametrize("graph,expected", [
    (nx.empty_graph(1), True),
    (nx.empty_graph(2), False),
    (nx.path_graph(40), True),
    (nx.disjoint_union(nx.cycle_graph(5), nx.path_graph(3)), False),
    (nx.disjoint_union(nx.empty_graph(1), nx.complete_graph(4)), False),
], ids=["single", "two-isolated", "long-path", "two-parts", "isolated-node-first"])
def test_is_connected_edge_cases(graph, expected):
    assert Network(graph).is_connected() is expected
    assert nx.is_connected(graph) is expected


# --------------------------------------------------------------------- #
# (d) edge colouring on every named family
# --------------------------------------------------------------------- #


def reference_coloring(graph):
    coloring = nx.coloring.greedy_color(nx.line_graph(graph), strategy="largest_first")
    buckets = {}
    for (u, v), color in coloring.items():
        buckets.setdefault(color, []).append((u, v) if u < v else (v, u))
    return [tuple(sorted(bucket)) for _, bucket in sorted(buckets.items())]


def _first_random_draw(seed):
    return int(np.random.default_rng(seed).integers(2**31))


def _ccc(dimension):
    graph = nx.Graph()
    for word in range(2**dimension):
        for position in range(dimension):
            graph.add_edge((word, position), (word, (position + 1) % dimension))
            graph.add_edge((word, position), (word ^ (1 << position), position))
    return _integers(graph)


#: named family -> reference networkx graph at size n (random ones: first draw)
REFERENCE_NAMED = {
    "hypercube": lambda n, seed: REFERENCE_FAMILIES["hypercube"](round(math.log2(n)))[0],
    "torus": lambda n, seed: REFERENCE_FAMILIES["torus"](round(math.sqrt(n)), 2)[0],
    "torus3d": lambda n, seed: REFERENCE_FAMILIES["torus"](round(n ** (1 / 3)), 3)[0],
    "cycle": lambda n, seed: nx.cycle_graph(n),
    "path": lambda n, seed: nx.path_graph(n),
    "complete": lambda n, seed: nx.complete_graph(n),
    "star": lambda n, seed: nx.star_graph(n - 1),
    "expander": lambda n, seed: nx.random_regular_graph(4, n, seed=_first_random_draw(seed)),
    "random-regular-8": lambda n, seed: nx.random_regular_graph(
        8, n, seed=_first_random_draw(seed)),
    "geometric": lambda n, seed: nx.random_geometric_graph(
        n, 1.5 * math.sqrt(math.log(max(n, 3)) / n), seed=_first_random_draw(seed)),
    "ccc": lambda n, seed: _ccc(max(3, round(math.log2(max(n, 24) / math.log2(max(n, 24)))))),
    "ring-of-cliques": lambda n, seed: _integers(nx.ring_of_cliques(max(3, n // 5), 5)),
}


#: every named family at five sizes; the complete graph's line graph has
#: O(n^3) edges, so it stops at 64 nodes
NAMED_CASES = [(name, n) for name in sorted(REFERENCE_NAMED) for n in (16, 27, 64, 128, 256)
               if name != "complete" or n <= 64]


@pytest.mark.parametrize("name,n", NAMED_CASES, ids=str)
def test_edge_coloring_equals_reference_line_graph_coloring(name, n):
    seed = 7
    graph = REFERENCE_NAMED[name](n, seed)
    if not nx.is_connected(graph):
        pytest.skip("the generator redraws disconnected samples")
    network = topologies.named_topology(name, n, seed=seed)
    assert network.edges == reference_network(graph).edges
    assert edge_coloring(network) == reference_coloring(reference_network(graph).graph)


@st.composite
def edge_lists(draw, max_nodes=14):
    """``Network.from_edges`` arguments: a random graph plus a star with leaves.

    The edges come in a shuffled order (so first appearance is unsorted),
    some reversed and some repeated.
    """
    n = draw(st.integers(2, max_nodes))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda pair: pair[0] != pair[1]), max_size=2 * n))
    centre = draw(st.integers(0, n - 1))
    pairs += [(centre, leaf) for leaf in draw(st.sets(st.integers(0, n - 1))) if leaf != centre]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=n))
    pairs = draw(st.permutations(pairs))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [(b, a) if flip else (a, b) for (a, b), flip in zip(pairs, flips)]


@given(edges=edge_lists())
def test_edge_coloring_equals_reference_on_generated_edge_lists(edges):
    n, pairs = edges
    network = Network.from_edges(n, [a for a, _ in pairs], [b for _, b in pairs])
    assert edge_coloring(network) == reference_coloring(network.graph)


def test_periodic_schedule_never_builds_the_networkx_view(monkeypatch):
    def forbidden(self):
        raise AssertionError("Network.graph was built for the edge colouring")

    monkeypatch.setattr(Network, "graph", property(forbidden))
    schedule = PeriodicMatchingSchedule(topologies.torus(8))
    assert schedule.period >= 4


# --------------------------------------------------------------------- #
# satellites: alpha setup and matching validation against their loops
# --------------------------------------------------------------------- #


def scalar_alphas(network, scheme):
    """The per-edge alpha loop the array setup replaced."""
    degrees, speeds, d_max = network.degrees, network.speeds, network.max_degree
    alphas = {}
    for u, v in network.edges:
        smin = min(speeds[u], speeds[v])
        denom = {AlphaScheme.MAX_DEGREE_PLUS_ONE: max(degrees[u], degrees[v]) + 1,
                 AlphaScheme.HALF_MAX_DEGREE: 2 * max(degrees[u], degrees[v]),
                 AlphaScheme.GLOBAL_DEGREE: d_max + 1}[scheme]
        alphas[(u, v)] = float(smin) / float(denom)
    return alphas


@given(graph=labelled_graphs(connected=True), scheme=st.sampled_from(AlphaScheme.ALL),
       data=st.data())
def test_alpha_setup_is_bit_identical_to_the_loop(graph, scheme, data):
    network = Network(graph)
    speeds = data.draw(st.lists(st.integers(1, 5), min_size=network.num_nodes,
                                max_size=network.num_nodes))
    network = network.with_speeds(speeds)
    expected = scalar_alphas(network, scheme)
    got = compute_alphas(network, scheme)
    assert list(got.items()) == list(expected.items())
    process = FirstOrderDiffusion(network, [1.0] * network.num_nodes, scheme=scheme)
    assert process.alphas == expected
    explicit = FirstOrderDiffusion(network, [1.0] * network.num_nodes, alphas=expected)
    np.testing.assert_array_equal(explicit._alpha_array, process._alpha_array)


@given(graph=labelled_graphs(), data=st.data())
def test_node_alpha_sums_add_in_loop_order(graph, data):
    network = Network(graph)
    alphas = np.array(data.draw(st.lists(
        st.floats(1e-3, 1.0), min_size=network.num_edges, max_size=network.num_edges)))
    expected = np.zeros(network.num_nodes)
    for (u, v), value in zip(network.edges, alphas.tolist()):
        expected[u] += value
        expected[v] += value
    u, v = network.edge_endpoints
    got = node_alpha_sums(network.num_nodes, u, v, alphas)
    assert got.tolist() == expected.tolist()


def test_alpha_errors_keep_their_messages():
    network = topologies.cycle(5)
    with pytest.raises(ProcessError, match=r"alpha for edge \(0, 1\) must be positive"):
        FirstOrderDiffusion(network, [1.0] * 5, alphas={(0, 1): 0.0})
    alphas = compute_alphas(network)
    alphas[(3, 4)] = -1.0
    with pytest.raises(ProcessError, match=r"alpha for edge \(3, 4\) must be positive"):
        FirstOrderDiffusion(network, [1.0] * 5, alphas=alphas)
    alphas = compute_alphas(network)
    del alphas[(1, 2)]
    with pytest.raises(ProcessError, match=r"alphas missing for edges \[\(1, 2\)\]"):
        FirstOrderDiffusion(network, [1.0] * 5, alphas=alphas)
    with pytest.raises(NetworkError, match=r"edge \(0, 2\) does not exist"):
        FirstOrderDiffusion(network, [1.0] * 5, alphas={(2, 0): 0.5})
    with pytest.raises(ProcessError, match="unknown alpha scheme"):
        compute_alphas(network, "bogus")


def scalar_validate_matching(network, matching):
    """The per-edge matching check the vectorised one replaced."""
    seen_nodes = set()
    canonical = []
    for (u, v) in matching:
        if not network.has_edge(u, v):
            raise ScheduleError(f"edge {(u, v)} is not an edge of the network")
        edge = (u, v) if u < v else (v, u)
        if edge[0] in seen_nodes or edge[1] in seen_nodes:
            raise ScheduleError(f"edges in a matching must be disjoint; node clash at {edge}")
        seen_nodes.update(edge)
        canonical.append(edge)
    return tuple(sorted(canonical))


def _outcome(check, network, matching):
    try:
        return check(network, matching)
    except ScheduleError as error:
        return str(error)


@given(graph=labelled_graphs(), data=st.data())
def test_validate_matching_equals_the_loop(graph, data):
    network = Network(graph)
    n = network.num_nodes
    edge = st.sampled_from(network.edges) if network.num_edges else st.nothing()
    pair = st.one_of(edge, edge.map(lambda e: (e[1], e[0])),
                     st.tuples(st.integers(-1, n), st.integers(-1, n)))
    if network.num_edges:
        # mostly-valid candidates: a random greedy matching, then a perturbation
        order = data.draw(st.permutations(range(network.num_edges)))
        used, matching = set(), []
        for index in order:
            u, v = network.edges[index]
            if u not in used and v not in used:
                used.update((u, v))
                matching.append((v, u) if data.draw(st.booleans()) else (u, v))
        matching += data.draw(st.lists(pair, max_size=2))
    else:
        matching = data.draw(st.lists(pair, max_size=3))
    assert _outcome(validate_matching, network, matching) == _outcome(
        scalar_validate_matching, network, matching)


# --------------------------------------------------------------------- #
# the run path never builds the networkx view
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("algorithm", ["algorithm1", "algorithm2"])
@pytest.mark.parametrize("continuous_kind", ["fos", "sos"])
@pytest.mark.parametrize("build", [lambda: topologies.torus(6), lambda: topologies.hypercube(5)],
                         ids=["torus", "hypercube"])
def test_balancing_runs_never_build_the_networkx_view(monkeypatch, algorithm,
                                                      continuous_kind, build):
    def forbidden(self):
        raise AssertionError("Network.graph was built on the run path")

    monkeypatch.setattr(Network, "graph", property(forbidden))
    network = build()
    load = uniform_random_load(network, 20 * network.num_nodes, seed=3)
    result = run_algorithm(algorithm, network, initial_load=load,
                           continuous_kind=continuous_kind, seed=1)
    assert result.rounds > 0
