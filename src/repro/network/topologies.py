"""Topology generators for the graph families used in the paper.

Tables 1 and 2 of the paper compare discrepancy bounds on four graph classes:
arbitrary graphs, constant-degree expanders, hypercubes and ``r``-dimensional
tori.  This module provides constructors for those families plus a number of
auxiliary topologies (cycles, paths, stars, complete graphs, trees, barbells,
random geometric graphs) used by tests, examples and ablation benchmarks.

Every constructor returns a :class:`~repro.network.graph.Network` with uniform
speed 1; pass the result through :meth:`Network.with_speeds` to attach a speed
profile.

The deterministic families (torus, hypercube, grid, cycle, path, complete,
star) generate their int64 edge arrays directly and call
:meth:`Network.from_edges`.  Node numbering and edge order are those of the
networkx generators they replace, so :attr:`Network.graph` -- and with it the
greedy edge colouring -- is unchanged.  The random and exotic families keep
their networkx generators and go through the :class:`Network` adapter.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import networkx as nx
import numpy as np

from ..exceptions import TopologyError
from .graph import Network, node_id_array

__all__ = [
    "hypercube",
    "torus",
    "grid",
    "cycle",
    "path",
    "complete",
    "star",
    "binary_tree",
    "random_regular",
    "expander",
    "erdos_renyi",
    "random_geometric",
    "barbell",
    "lollipop",
    "two_cliques_bridge",
    "cube_connected_cycles",
    "ring_of_cliques",
    "from_edge_list",
    "named_topology",
    "check_named_size",
    "TOPOLOGY_NAMES",
]


def hypercube(dimension: int) -> Network:
    """Return the ``dimension``-dimensional hypercube on ``2**dimension`` nodes.

    The hypercube is one of the benchmark graph classes of Tables 1 and 2;
    its maximum degree equals ``dimension`` and ``1 - lambda = Theta(1/d)``.
    """
    if dimension < 1:
        raise TopologyError("hypercube dimension must be >= 1")
    return _lattice([2] * dimension, periodic=False, name=f"hypercube-{dimension}")


def torus(side: int, dims: int = 2) -> Network:
    """Return a ``dims``-dimensional torus with ``side`` nodes per dimension.

    ``dims=1`` gives a cycle, ``dims=2`` the standard wrap-around grid, etc.
    Each node has degree ``2 * dims`` (when ``side >= 3``).
    """
    if side < 2:
        raise TopologyError("torus side must be >= 2")
    if dims < 1:
        raise TopologyError("torus dimension must be >= 1")
    return _lattice([side] * dims, periodic=True, name=f"torus-{dims}d-{side}")


def grid(rows: int, cols: int) -> Network:
    """Return a non-periodic 2-dimensional grid."""
    if rows < 1 or cols < 1:
        raise TopologyError("grid dimensions must be >= 1")
    return _lattice([rows, cols], periodic=False, name=f"grid-{rows}x{cols}")


def cycle(n: int) -> Network:
    """Return the cycle on ``n >= 3`` nodes."""
    _require_cycle_size(n)
    return _lattice([n], periodic=True, name=f"cycle-{n}")


def path(n: int) -> Network:
    """Return the path on ``n >= 2`` nodes (worst-case diameter topology)."""
    if n < 2:
        raise TopologyError("a path needs at least 2 nodes")
    return _lattice([n], periodic=False, name=f"path-{n}")


def complete(n: int) -> Network:
    """Return the complete graph on ``n >= 2`` nodes."""
    if n < 2:
        raise TopologyError("a complete graph needs at least 2 nodes")
    u, v = np.triu_indices(n, k=1)
    return Network.from_edges(n, u, v, name=f"complete-{n}")


def star(n: int) -> Network:
    """Return the star with one hub and ``n - 1`` leaves (``n >= 2`` nodes)."""
    if n < 2:
        raise TopologyError("a star needs at least 2 nodes")
    return Network.from_edges(n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n), name=f"star-{n}")


def _lattice(sides: Sequence[int], periodic: bool, name: str) -> Network:
    """The product of paths (or cycles, if ``periodic``) with the given side lengths.

    Node ``(c_0, ..., c_{r-1})`` gets the row-major index ``sum c_k * stride_k``
    (``c_0`` most significant), as networkx's ``grid_graph`` and
    ``grid_2d_graph`` number them.  Edges are listed from their smaller
    endpoint ``u`` in increasing ``u``; each node lists its larger neighbours
    dimension by dimension from the most significant, ``c_k + 1`` before the
    wrap-around ``side - 1`` -- the order those generators build adjacency in.
    """
    n = math.prod(sides)
    strides = [math.prod(sides[k + 1:]) for k in range(len(sides))]
    nodes = np.arange(n, dtype=np.int64)
    later, present = [], []
    for side, stride in zip(sides, strides):
        coordinate = nodes // stride % side
        later += [nodes + stride, nodes + (side - 1) * stride]
        present += [coordinate + 1 < side, periodic & (coordinate == 0) & (side > 2)]
    keep = np.stack(present, axis=1).ravel()
    u = np.repeat(nodes, len(later))[keep]
    v = np.stack(later, axis=1).ravel()[keep]
    return Network.from_edges(n, u, v, name=name)


def binary_tree(depth: int) -> Network:
    """Return the complete binary tree of the given depth (``2**(depth+1)-1`` nodes)."""
    if depth < 1:
        raise TopologyError("binary tree depth must be >= 1")
    graph = nx.balanced_tree(r=2, h=depth)
    return Network(graph, name=f"binary-tree-{depth}")


def random_regular(n: int, degree: int, seed: Optional[int] = None) -> Network:
    """Return a random ``degree``-regular graph on ``n`` nodes.

    Random regular graphs of constant degree are expanders with high
    probability and serve as the "constant-degree expander" column of
    Tables 1 and 2.  The constructor retries a few times until the sampled
    graph is connected.
    """
    _require_regular_size(n, degree)
    rng = np.random.default_rng(seed)
    last_error: Optional[Exception] = None
    for _ in range(20):
        try:
            graph = nx.random_regular_graph(degree, n, seed=int(rng.integers(2**31)))
        except nx.NetworkXError as exc:  # pragma: no cover - defensive
            last_error = exc
            continue
        if nx.is_connected(graph):
            return Network(graph, name=f"random-regular-{degree}-{n}")
    raise TopologyError(
        f"failed to sample a connected {degree}-regular graph on {n} nodes"
    ) from last_error


def expander(n: int, degree: int = 4, seed: Optional[int] = None) -> Network:
    """Return a constant-degree expander (alias for :func:`random_regular`)."""
    return random_regular(n, degree, seed=seed)


def erdos_renyi(n: int, p: float, seed: Optional[int] = None) -> Network:
    """Return a connected Erdős–Rényi graph ``G(n, p)``.

    The constructor resamples until the graph is connected (a handful of
    retries); use ``p`` above the connectivity threshold ``ln(n)/n``.
    """
    if not 0.0 < p <= 1.0:
        raise TopologyError("edge probability must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    for _ in range(50):
        graph = nx.gnp_random_graph(n, p, seed=int(rng.integers(2**31)))
        if graph.number_of_nodes() > 0 and nx.is_connected(graph):
            return Network(graph, name=f"gnp-{n}-{p:g}")
    raise TopologyError(
        f"failed to sample a connected G({n}, {p}); increase p (threshold ~ ln(n)/n)"
    )


def random_geometric(n: int, radius: Optional[float] = None, seed: Optional[int] = None) -> Network:
    """Return a connected random geometric graph on the unit square.

    Random geometric graphs are a natural "arbitrary graph" family with poor
    expansion, useful for stressing expansion-dependent baselines.
    """
    if n < 2:
        raise TopologyError("a random geometric graph needs at least 2 nodes")
    if radius is None:
        radius = 1.5 * math.sqrt(math.log(max(n, 3)) / n)
    rng = np.random.default_rng(seed)
    for _ in range(50):
        graph = nx.random_geometric_graph(n, radius, seed=int(rng.integers(2**31)))
        if nx.is_connected(graph):
            return Network(graph, name=f"geometric-{n}")
        radius *= 1.1
    raise TopologyError(f"failed to sample a connected geometric graph on {n} nodes")


def barbell(clique_size: int, bridge_length: int = 0) -> Network:
    """Return a barbell graph: two cliques joined by a path.

    Barbells have very poor expansion, which makes them a good stress test for
    algorithms whose discrepancy bounds depend on ``1 - lambda``.
    """
    if clique_size < 3:
        raise TopologyError("barbell cliques need at least 3 nodes")
    if bridge_length < 0:
        raise TopologyError("bridge length must be >= 0")
    graph = nx.barbell_graph(clique_size, bridge_length)
    return Network(graph, name=f"barbell-{clique_size}-{bridge_length}")


def lollipop(clique_size: int, path_length: int) -> Network:
    """Return a lollipop graph: a clique with a path attached."""
    if clique_size < 3:
        raise TopologyError("lollipop clique needs at least 3 nodes")
    if path_length < 1:
        raise TopologyError("lollipop path length must be >= 1")
    graph = nx.lollipop_graph(clique_size, path_length)
    return Network(graph, name=f"lollipop-{clique_size}-{path_length}")


def two_cliques_bridge(clique_size: int) -> Network:
    """Return two cliques joined by a single edge (minimal-conductance cut)."""
    return barbell(clique_size, 0)


def cube_connected_cycles(dimension: int) -> Network:
    """Return the cube-connected-cycles network CCC(dimension).

    CCC replaces every hypercube node with a cycle of ``dimension`` nodes;
    the result is 3-regular with ``dimension * 2**dimension`` nodes — a
    classical constant-degree interconnection topology, useful as another
    "constant-degree, moderate-expansion" test case.
    """
    if dimension < 3:
        raise TopologyError("cube-connected cycles need dimension >= 3")
    graph = nx.Graph()
    size = 2**dimension
    for word in range(size):
        for position in range(dimension):
            graph.add_edge((word, position), (word, (position + 1) % dimension))
            neighbour = word ^ (1 << position)
            graph.add_edge((word, position), (neighbour, position))
    return Network(nx.convert_node_labels_to_integers(graph), name=f"ccc-{dimension}")


def ring_of_cliques(num_cliques: int, clique_size: int) -> Network:
    """Return a ring of cliques: ``num_cliques`` cliques connected in a cycle.

    A standard low-conductance family between the single-bridge barbell and a
    plain ring; each clique is joined to the next by a single edge.
    """
    if num_cliques < 3:
        raise TopologyError("a ring of cliques needs at least 3 cliques")
    if clique_size < 2:
        raise TopologyError("cliques need at least 2 nodes")
    graph = nx.ring_of_cliques(num_cliques, clique_size)
    return Network(nx.convert_node_labels_to_integers(graph),
                   name=f"ring-of-cliques-{num_cliques}x{clique_size}")


def from_edge_list(edges: Sequence[Sequence[int]], speeds: Optional[Sequence[float]] = None,
                   name: str = "custom") -> Network:
    """Build a network from an explicit edge list (pairs, or an ``(m, 2)`` int array).

    Nodes are the distinct endpoints, numbered in sorted order (their values
    are kept in :attr:`Network.node_labels`); isolated nodes cannot be
    expressed this way (use :meth:`Network.from_edges` instead).
    """
    ends = node_id_array(edges, error=TopologyError)
    if ends.size == 0:
        raise TopologyError("edge list must be non-empty")
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise TopologyError(f"expected an (m, 2) edge list, got shape {ends.shape}")
    labels, index = np.unique(ends, return_inverse=True)
    index = index.reshape(ends.shape)
    network = Network.from_edges(labels.size, index[:, 0], index[:, 1], speeds=speeds, name=name)
    network.node_labels = labels.tolist()
    return network


def _require_cycle_size(n: int) -> None:
    if n < 3:
        raise TopologyError("a cycle needs at least 3 nodes")


def _require_regular_size(n: int, degree: int) -> None:
    if degree < 1 or degree >= n:
        raise TopologyError(
            f"need 1 <= degree < n for a random regular graph (degree {degree}, n {n})")
    if (n * degree) % 2 != 0:
        raise TopologyError(
            f"n * degree must be even for a regular graph (degree {degree}, n {n})")


#: The degree of each random-regular family of :func:`named_topology`.
_REGULAR_DEGREES = {"expander": 4, "random-regular-8": 8}

_NAMED = {
    "hypercube": lambda n, seed: hypercube(max(1, int(round(math.log2(n))))),
    "torus": lambda n, seed: torus(max(2, int(round(math.sqrt(n)))), dims=2),
    "torus3d": lambda n, seed: torus(max(2, int(round(n ** (1.0 / 3.0)))), dims=3),
    "cycle": lambda n, seed: cycle(n),
    "path": lambda n, seed: path(n),
    "complete": lambda n, seed: complete(n),
    "star": lambda n, seed: star(n),
    "expander": lambda n, seed: expander(n, degree=_REGULAR_DEGREES["expander"], seed=seed),
    "random-regular-8": lambda n, seed: random_regular(
        n, _REGULAR_DEGREES["random-regular-8"], seed=seed),
    "geometric": lambda n, seed: random_geometric(n, seed=seed),
    "ccc": lambda n, seed: cube_connected_cycles(
        max(3, int(round(math.log2(max(n, 24) / math.log2(max(n, 24))))))),
    "ring-of-cliques": lambda n, seed: ring_of_cliques(max(3, n // 5), 5),
}

#: The family names :func:`named_topology` accepts (case-insensitively).
TOPOLOGY_NAMES = tuple(sorted(_NAMED))


def named_topology(name: str, n: int, seed: Optional[int] = None) -> Network:
    """Construct one of the named topology families at (approximately) size ``n``.

    This is the entry point used by the CLI and the benchmark sweeps: hypercube
    and torus sizes are rounded to the nearest valid size for the family.
    """
    key = name.lower()
    if key not in _NAMED:
        raise TopologyError(
            f"unknown topology {name!r}; valid names: {sorted(_NAMED)}"
        )
    return _NAMED[key](n, seed)


def check_named_size(name: str, n: int) -> None:
    """Raise :class:`TopologyError` if :func:`named_topology` cannot build ``name`` at ``n``.

    The checks the family's generator makes before it builds anything, for
    the families that reject some ``n >= 2``: a cycle needs 3 nodes, and a
    random ``d``-regular graph ``1 <= d < n`` with ``n * d`` even.  The
    other families accept every ``n >= 2`` (the lattices and the clique
    families round ``n`` to a valid size).
    """
    key = name.lower()
    if key == "cycle":
        _require_cycle_size(n)
    elif key in _REGULAR_DEGREES:
        _require_regular_size(n, _REGULAR_DEGREES[key])
