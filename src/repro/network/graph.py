"""Network model for neighbourhood load balancing.

A :class:`Network` is an undirected graph whose nodes represent processors
(resources) and whose edges represent communication links.  Every node ``i``
carries an integer *speed* ``s_i >= 1`` (heterogeneous processing rates, see
Section 3 of the paper).  The class pre-computes the data every balancing
process needs each round: the read-only int64 edge endpoint arrays, the
directed planning order and CSR adjacency the array kernels share, and the
degrees.  Python-object views (the edge tuple, the edge index, neighbour
tuples, a :class:`networkx.Graph`) are built on first use and cached.

Nodes are always labelled ``0 .. n-1``.  :meth:`Network.from_edges` builds a
network straight from int64 endpoint arrays; the constructor adapts a
:class:`networkx.Graph` with arbitrary hashable labels, relabelling them to
integers (the original labels are kept in :attr:`Network.node_labels`).
"""

from __future__ import annotations

import copy
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

import networkx as nx
import numpy as np

from ..exceptions import NetworkError

__all__ = ["Edge", "Network", "node_id_array"]

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
        collapsed.  Sortable node labels are numbered in sorted order, others
        in insertion order; the graph itself is not kept.  The graph may be
        disconnected, but most balancing processes only make sense on
        connected graphs, so a validation helper :meth:`require_connected`
        is provided.
    speeds:
        Optional sequence of integer speeds, one per node, each ``>= 1``.
        Defaults to uniform speed 1.
    name:
        Optional human readable name (topology generators fill this in).

    Notes
    -----
    The per-edge flow bookkeeping used throughout the library indexes
    undirected edges by position in :attr:`edges` (sorted canonical pairs);
    :meth:`edge_index` maps an unordered node pair to that position.

    The edge layout is computed once, from int64 endpoint arrays, and shared
    by every per-round consumer: :attr:`edge_endpoints`,
    :attr:`directed_endpoints`, :attr:`directed_order` and :attr:`csr` are
    read-only int64 arrays (writing to them raises ``ValueError``), and
    :attr:`edges` is an immutable tuple returned without copying.  Directed
    edge ``k < m`` is edge ``k`` traversed ``u -> v``; directed edge ``m + k``
    is the same edge traversed ``v -> u``.
    """

    def __init__(
        self,
        graph: nx.Graph,
        speeds: Optional[Sequence[float]] = None,
        name: Optional[str] = None,
    ) -> None:
        labels = list(graph.nodes())
        if _is_sortable(labels):
            labels = sorted(labels)
        index = {label: i for i, label in enumerate(labels)}
        ends = np.fromiter(map(index.__getitem__, chain.from_iterable(graph.edges())),
                           dtype=np.int64, count=2 * graph.number_of_edges())
        self._build(len(labels), ends[0::2], ends[1::2], speeds, name, labels)

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        u: Sequence[int],
        v: Sequence[int],
        speeds: Optional[Sequence[float]] = None,
        name: Optional[str] = None,
    ) -> "Network":
        """Build a network on nodes ``0 .. num_nodes-1`` from edge endpoint arrays.

        Edge ``k`` joins ``u[k]`` and ``v[k]``; either orientation and
        repeated edges are accepted.  The order of first appearance is
        remembered only for :attr:`graph`'s adjacency order.
        """
        network = cls.__new__(cls)
        network._build(int(num_nodes), node_id_array(u), node_id_array(v),
                       speeds, name, list(range(int(num_nodes))))
        return network

    def _build(self, n: int, u: np.ndarray, v: np.ndarray,
               speeds: Optional[Sequence[float]], name: Optional[str],
               labels: List) -> None:
        """Compute the edge layout from endpoint arrays (the one layout builder)."""
        if n < 1:
            raise NetworkError("a network must contain at least one node")
        if u.shape != v.shape or u.ndim != 1:
            raise NetworkError(
                f"edge endpoints must be two 1-d arrays of one length, got {u.shape} and {v.shape}")
        if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            raise NetworkError(f"edge endpoints must lie in 0..{n - 1}")
        if np.any(u == v):
            raise NetworkError("self loops are not allowed in a network")
        self.node_labels: List = labels
        self.name: str = name or "network"
        self._n = n
        # One sort of the canonical keys n*u + v (u < v) dedupes the edges and
        # puts them in (u, v) order.
        keys, first = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_index=True)
        self._keys = _read_only(keys)
        #: the edges in order of first appearance, if that is not sorted order
        self._graph_order = (np.argsort(first) if np.any(first[1:] < first[:-1]) else None)
        m = keys.size
        self._directed_senders = _read_only(np.concatenate((keys // n, keys % n)))
        self._directed_receivers = _read_only(np.concatenate((keys % n, keys // n)))
        self._edge_endpoints = (self._directed_senders[:m], self._directed_receivers[:m])
        # (sender, receiver) pairs are unique, so sorting their keys fixes the
        # planning order of every subset of directed edges; it is also the CSR.
        self._directed_order = _read_only(
            np.argsort(self._directed_senders * n + self._directed_receivers))
        self._degrees = np.bincount(self._directed_senders, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._degrees, out=indptr[1:])
        self._csr = (_read_only(indptr),
                     _read_only(self._directed_receivers[self._directed_order]))
        self._speeds = _checked_speeds(speeds, n)
        self._edges: Optional[Tuple[Edge, ...]] = None
        self._edge_index: Optional[Dict[Edge, int]] = None
        self._neighbors: Optional[List[Tuple[int, ...]]] = None
        self._graph: Optional[nx.Graph] = None

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> nx.Graph:
        """A :class:`networkx.Graph` view on nodes ``0 .. n-1``, built on first use.

        Edges are added in the order they were first given, so the adjacency
        order (which networkx algorithms such as the edge colouring's line
        graph follow) is that of the source graph.  The view is cached; do
        not mutate it.
        """
        if self._graph is None:
            u, v = self._edge_endpoints
            if self._graph_order is not None:
                u, v = u[self._graph_order], v[self._graph_order]
            graph = nx.Graph()
            graph.add_nodes_from(range(self._n))
            graph.add_edges_from(zip(u.tolist(), v.tolist()))
            self._graph = graph
        return self._graph

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self._keys.size)

    @property
    def nodes(self) -> range:
        """The node identifiers ``0 .. n-1``."""
        return range(self._n)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All undirected edges in canonical ``(u, v), u < v`` form (shared tuple)."""
        if self._edges is None:
            u, v = self._edge_endpoints
            self._edges = tuple(zip(u.tolist(), v.tolist()))
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

    @property
    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only int64 CSR adjacency ``(indptr, indices)``.

        The sorted neighbours of node ``i`` are
        ``indices[indptr[i]:indptr[i + 1]]``; position ``p`` of ``indices`` is
        directed edge ``directed_order[p]``.
        """
        return self._csr

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
        m = self.num_edges
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
        if self._neighbors is None:
            indptr, indices = self._csr
            flat, bounds = indices.tolist(), indptr.tolist()
            self._neighbors = [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]
        return self._neighbors[node]

    def _index_map(self) -> Dict[Edge, int]:
        if self._edge_index is None:
            self._edge_index = dict(zip(self.edges, range(self.num_edges)))
        return self._edge_index

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        return _canonical_edge(u, v) in self._index_map()

    def edge_index(self, u: int, v: int) -> int:
        """Return the index of edge ``{u, v}`` in :attr:`edges`.

        Raises
        ------
        NetworkError
            If the edge does not exist.
        """
        key = _canonical_edge(u, v)
        try:
            return self._index_map()[key]
        except KeyError:
            raise NetworkError(f"edge {key} does not exist") from None

    def edge_ids(self, u: Sequence[int], v: Sequence[int]) -> np.ndarray:
        """Vectorised :meth:`edge_index`: the index of every pair ``{u[k], v[k]}``.

        Pairs that are not edges (including self pairs, out-of-range and
        non-integer nodes) get ``-1`` instead of raising.
        """
        u = node_id_array(u, error=None)
        v = node_id_array(v, error=None)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = np.where((lo >= 0) & (hi < self._n) & (lo < hi), lo * self._n + hi, -1)
        if not self.num_edges:
            return np.full(keys.shape, -1, dtype=np.int64)
        position = np.minimum(np.searchsorted(self._keys, keys), self.num_edges - 1)
        return np.where(self._keys[position] == keys, position, -1)

    def incident_edges(self, node: int) -> List[int]:
        """Return the indices of all edges incident to ``node``."""
        self._check_node(node)
        return [self.edge_index(node, j) for j in self.neighbors(node)]

    def is_connected(self) -> bool:
        """Whether the network is connected (single-node networks are)."""
        indptr, indices = self._csr
        seen = np.zeros(self._n, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            # gather the CSR rows of the whole frontier in one go (breadth-first)
            starts = indptr[frontier]
            lengths = indptr[frontier + 1] - starts
            ends = np.cumsum(lengths)
            rows = np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])
            reached = np.sort(indices[rows])
            frontier = reached[~seen[reached] & np.append(True, reached[1:] != reached[:-1])]
            seen[frontier] = True
        return bool(seen.all())

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
        return int(nx.diameter(self.graph))

    # ------------------------------------------------------------------ #
    # matrices
    # ------------------------------------------------------------------ #

    def adjacency_matrix(self) -> np.ndarray:
        """Return the dense ``n x n`` adjacency matrix."""
        a = np.zeros((self._n, self._n), dtype=float)
        a[self._directed_senders, self._directed_receivers] = 1.0
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
        """Return a copy of this network with different node speeds.

        The copy keeps the name and node labels and shares the (read-only)
        edge layout.
        """
        network = copy.copy(self)
        network._speeds = _checked_speeds(speeds, self._n)
        network.node_labels = list(self.node_labels)
        network._graph = None
        return network

    def subnetwork(self, nodes: Iterable[int]) -> "Network":
        """Return the sub-network induced by ``nodes`` (relabelled 0..k-1)."""
        nodes = sorted(set(nodes))
        for node in nodes:
            self._check_node(node)
        sub = self.graph.subgraph(nodes).copy()
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


def node_id_array(values, error: Optional[Type[Exception]] = NetworkError) -> np.ndarray:
    """``values`` as an int64 array of node ids, never truncating.

    Integers and exactly integral numbers such as ``1.0`` are accepted.  A
    fractional or non-finite number raises ``error``; with ``error=None`` it
    becomes ``-1``, which is no node.  Strings and ragged nesting raise
    ``error`` (``ValueError`` when it is ``None``).
    """
    try:
        array = np.asarray(values)
        if array.dtype.kind in "biu":
            return array.astype(np.int64, copy=False)
        if array.dtype.kind not in "fO":
            raise TypeError(f"got dtype {array.dtype}")
        floats = array.astype(float)
    except (TypeError, ValueError) as exc:
        raise (error or ValueError)(f"node ids must be integers: {exc}") from None
    integral = np.isfinite(floats) & (floats == np.floor(floats))
    if error is not None and not integral.all():
        raise error(f"node ids must be integers, got {float(floats[~integral][0])!r}")
    return np.where(integral, floats, -1).astype(np.int64)


def _checked_speeds(speeds: Optional[Sequence[float]], n: int) -> np.ndarray:
    """Validate per-node speeds (default: all 1) and return them as floats."""
    if speeds is None:
        return np.ones(n, dtype=float)
    speeds = np.asarray(list(speeds), dtype=float)
    if speeds.shape != (n,):
        raise NetworkError(f"expected {n} speeds, got shape {speeds.shape}")
    if np.any(speeds < 1):
        raise NetworkError("all speeds must be >= 1 (scale so min speed is 1)")
    if not np.all(np.isfinite(speeds)):
        raise NetworkError("speeds must be finite")
    return speeds


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
