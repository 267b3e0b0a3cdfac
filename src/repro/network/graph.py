"""Network model for neighbourhood load balancing.

A :class:`Network` is an undirected graph whose nodes represent processors
(resources) and whose edges represent communication links.  Every node ``i``
carries an integer *speed* ``s_i >= 1`` (heterogeneous processing rates, see
Section 3 of the paper).  The class pre-computes the data every balancing
process needs each round: neighbour lists, degrees, the edge index used to
store per-edge flows, the read-only edge endpoint arrays and directed
planning order the array kernels share, and convenience matrices
(adjacency, Laplacian).

Nodes are always labelled ``0 .. n-1``.  Graphs supplied as
:class:`networkx.Graph` instances with arbitrary hashable labels are relabelled
to integers (the original labels are kept in :attr:`Network.node_labels`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..exceptions import NetworkError

__all__ = ["Edge", "Network"]

#: An undirected edge, always stored with ``u < v``.
Edge = Tuple[int, int]


def _canonical_edge(u: int, v: int) -> Edge:
    """Return the canonical (sorted) representation of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Network:
    """An undirected network of processors with per-node speeds.

    Parameters
    ----------
    graph:
        A :class:`networkx.Graph`.  Self loops are rejected; multi-edges are
        collapsed by networkx automatically.  The graph may be disconnected,
        but most balancing processes only make sense on connected graphs, so
        a warning-level validation helper :meth:`require_connected` is
        provided.
    speeds:
        Optional sequence of integer speeds, one per node, each ``>= 1``.
        Defaults to uniform speed 1.
    name:
        Optional human readable name (topology generators fill this in).

    Notes
    -----
    The per-edge flow bookkeeping used throughout the library indexes
    undirected edges by position in :attr:`edges`; :meth:`edge_index` maps an
    unordered node pair to that position.

    The edge layout is computed once here and shared by every per-round
    consumer: :attr:`edges` is an immutable tuple returned without copying,
    and :attr:`edge_endpoints`, :attr:`directed_endpoints` and
    :attr:`directed_order` are read-only int64 arrays (writing to them raises
    ``ValueError``).  Directed edge ``k < m`` is edge ``k`` traversed
    ``u -> v``; directed edge ``m + k`` is the same edge traversed ``v -> u``.
    """

    def __init__(
        self,
        graph: nx.Graph,
        speeds: Optional[Sequence[float]] = None,
        name: Optional[str] = None,
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise NetworkError("a network must contain at least one node")
        if any(u == v for u, v in graph.edges()):
            raise NetworkError("self loops are not allowed in a network")

        node_labels = list(graph.nodes())
        relabelled = nx.convert_node_labels_to_integers(
            graph, ordering="sorted" if _is_sortable(node_labels) else "default"
        )

        self._graph: nx.Graph = relabelled
        self.node_labels: List = sorted(node_labels) if _is_sortable(node_labels) else node_labels
        self.name: str = name or "network"

        self._n = relabelled.number_of_nodes()
        self._edges: Tuple[Edge, ...] = tuple(sorted(
            _canonical_edge(u, v) for u, v in relabelled.edges()
        ))
        self._edge_index: Dict[Edge, int] = {e: k for k, e in enumerate(self._edges)}
        endpoints = np.array(self._edges, dtype=np.int64).reshape(-1, 2)
        self._directed_senders = _read_only(np.concatenate((endpoints[:, 0], endpoints[:, 1])))
        self._directed_receivers = _read_only(np.concatenate((endpoints[:, 1], endpoints[:, 0])))
        m = len(self._edges)
        self._edge_endpoints = (self._directed_senders[:m], self._directed_receivers[:m])
        # A simple graph has unique (sender, receiver) pairs, so this one sort
        # fixes the planning order of every subset of directed edges.
        self._directed_order = _read_only(
            np.lexsort((self._directed_receivers, self._directed_senders)))
        self._neighbors: List[Tuple[int, ...]] = [
            tuple(sorted(relabelled.neighbors(i))) for i in range(self._n)
        ]
        self._degrees = np.array([len(nbrs) for nbrs in self._neighbors], dtype=int)

        if speeds is None:
            speeds = np.ones(self._n, dtype=float)
        speeds = np.asarray(list(speeds), dtype=float)
        if speeds.shape != (self._n,):
            raise NetworkError(
                f"expected {self._n} speeds, got shape {speeds.shape}"
            )
        if np.any(speeds < 1):
            raise NetworkError("all speeds must be >= 1 (scale so min speed is 1)")
        if not np.all(np.isfinite(speeds)):
            raise NetworkError("speeds must be finite")
        self._speeds = speeds

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> nx.Graph:
        """The underlying :class:`networkx.Graph` with integer labels."""
        return self._graph

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self._edges)

    @property
    def nodes(self) -> range:
        """The node identifiers ``0 .. n-1``."""
        return range(self._n)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All undirected edges in canonical ``(u, v), u < v`` form (shared tuple)."""
        return self._edges

    @property
    def edge_endpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only int64 arrays ``(u, v)`` of the canonical edge endpoints."""
        return self._edge_endpoints

    @property
    def directed_endpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only int64 ``(senders, receivers)`` of the ``2m`` directed edges."""
        return self._directed_senders, self._directed_receivers

    @property
    def directed_order(self) -> np.ndarray:
        """The directed edges sorted by ``(sender, receiver)`` (read-only int64)."""
        return self._directed_order

    def active_directed_edges(
        self, residual: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Orient every edge with non-zero ``residual`` and put them in planning order.

        ``residual`` holds one signed value per canonical edge; a positive
        value makes ``u`` the sender, a negative one ``v``.  Returns
        ``(edges, forward, senders, receivers)`` sorted by ``(sender,
        receiver)`` -- the order :func:`numpy.lexsort` would give -- without
        sorting: the precomputed :attr:`directed_order` is filtered instead.
        """
        m = len(self._edges)
        order = self._directed_order
        # Integer gathers: boolean-mask indexing and np.where cost several
        # times more on the random masks a round produces.
        active = np.concatenate((residual > 0.0, residual < 0.0))[order]
        directed = order[np.flatnonzero(active)]
        forward = directed < m
        edges = directed - m * ~forward
        return (edges, forward, self._directed_senders[directed],
                self._directed_receivers[directed])

    @property
    def speeds(self) -> np.ndarray:
        """Per-node speeds (read-only copy)."""
        return self._speeds.copy()

    @property
    def total_speed(self) -> float:
        """The network capacity ``S = s_1 + ... + s_n``."""
        return float(self._speeds.sum())

    @property
    def degrees(self) -> np.ndarray:
        """Per-node degrees (read-only copy)."""
        return self._degrees.copy()

    @property
    def max_degree(self) -> int:
        """The maximum degree ``d`` of the network."""
        return int(self._degrees.max())

    @property
    def min_degree(self) -> int:
        """The minimum degree of the network."""
        return int(self._degrees.min())

    @property
    def is_regular(self) -> bool:
        """Whether every node has the same degree."""
        return bool(self._degrees.min() == self._degrees.max())

    @property
    def has_uniform_speeds(self) -> bool:
        """Whether every node has speed exactly 1."""
        return bool(np.all(self._speeds == 1.0))

    # ------------------------------------------------------------------ #
    # topology queries
    # ------------------------------------------------------------------ #

    def speed(self, node: int) -> float:
        """Return the speed of ``node``."""
        self._check_node(node)
        return float(self._speeds[node])

    def degree(self, node: int) -> int:
        """Return the degree of ``node``."""
        self._check_node(node)
        return int(self._degrees[node])

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Return the sorted tuple of neighbours of ``node``."""
        self._check_node(node)
        return self._neighbors[node]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        return _canonical_edge(u, v) in self._edge_index

    def edge_index(self, u: int, v: int) -> int:
        """Return the index of edge ``{u, v}`` in :attr:`edges`.

        Raises
        ------
        NetworkError
            If the edge does not exist.
        """
        key = _canonical_edge(u, v)
        try:
            return self._edge_index[key]
        except KeyError:
            raise NetworkError(f"edge {key} does not exist") from None

    def incident_edges(self, node: int) -> List[int]:
        """Return the indices of all edges incident to ``node``."""
        self._check_node(node)
        return [self.edge_index(node, j) for j in self._neighbors[node]]

    def is_connected(self) -> bool:
        """Whether the network is connected (single-node networks are)."""
        if self._n == 1:
            return True
        return nx.is_connected(self._graph)

    def require_connected(self) -> None:
        """Raise :class:`NetworkError` unless the network is connected."""
        if not self.is_connected():
            raise NetworkError(
                f"network '{self.name}' must be connected for this operation"
            )

    def diameter(self) -> int:
        """Return the graph diameter (requires a connected network)."""
        self.require_connected()
        if self._n == 1:
            return 0
        return int(nx.diameter(self._graph))

    # ------------------------------------------------------------------ #
    # matrices
    # ------------------------------------------------------------------ #

    def adjacency_matrix(self) -> np.ndarray:
        """Return the dense ``n x n`` adjacency matrix."""
        a = np.zeros((self._n, self._n), dtype=float)
        for u, v in self._edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        return a

    def laplacian_matrix(self) -> np.ndarray:
        """Return the dense combinatorial Laplacian ``L = D - A``."""
        lap = -self.adjacency_matrix()
        np.fill_diagonal(lap, self._degrees.astype(float))
        return lap

    # ------------------------------------------------------------------ #
    # derived networks
    # ------------------------------------------------------------------ #

    def with_speeds(self, speeds: Sequence[float]) -> "Network":
        """Return a copy of this network with different node speeds."""
        return Network(self._graph.copy(), speeds=speeds, name=self.name)

    def subnetwork(self, nodes: Iterable[int]) -> "Network":
        """Return the sub-network induced by ``nodes`` (relabelled 0..k-1)."""
        nodes = sorted(set(nodes))
        for node in nodes:
            self._check_node(node)
        sub = self._graph.subgraph(nodes).copy()
        speeds = [self._speeds[node] for node in nodes]
        return Network(sub, speeds=speeds, name=f"{self.name}[sub]")

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(name={self.name!r}, n={self._n}, m={self.num_edges}, "
            f"max_degree={self.max_degree}, uniform_speeds={self.has_uniform_speeds})"
        )

    def _check_node(self, node: int) -> None:
        if not (isinstance(node, (int, np.integer)) and 0 <= node < self._n):
            raise NetworkError(f"node {node!r} is not a valid node id (0..{self._n - 1})")


def _read_only(array: np.ndarray) -> np.ndarray:
    """Freeze ``array`` in place and return it."""
    array.setflags(write=False)
    return array


def _is_sortable(labels: List) -> bool:
    """Whether a list of node labels can be sorted with ``sorted``."""
    try:
        sorted(labels)
        return True
    except TypeError:
        return False
