"""Matching schedules for dimension-exchange (matching-based) balancing.

The matching model restricts the load exchange of every round to the edges of
a matching.  The paper considers two variants (Section 2.1):

* the **periodic matching model**: a fixed set of matchings covering every
  edge (obtained from a proper edge colouring) is used cyclically with period
  ``d~``;
* the **random matching model**: every round an independent random matching is
  generated.

A schedule is an object that answers "which matching is active in round
``t``?".  Crucially, a single schedule instance can be shared between the
continuous process and any number of discretizations so that all of them see
*exactly the same* matchings — this coupling is what the additivity argument
of the paper (Definition 3, footnote 6) requires.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..exceptions import ScheduleError
from .graph import Edge, Network

__all__ = [
    "MatchingSchedule",
    "PeriodicMatchingSchedule",
    "RandomMatchingSchedule",
    "SingleMatchingSchedule",
    "edge_coloring",
    "validate_matching",
]


def validate_matching(network: Network, matching: Sequence[Edge]) -> Tuple[Edge, ...]:
    """Validate that ``matching`` is a matching of ``network`` and canonicalise it.

    Membership is one sorted-key lookup (:meth:`Network.edge_ids`) and
    disjointness one ``bincount`` over the endpoints.  The result is the
    matched edges in :attr:`Network.edges` order (sorted canonical pairs).

    Raises
    ------
    ScheduleError
        If an edge is missing from the network or two edges share a node;
        the message names the first offending edge of ``matching``.
    """
    ends = np.asarray(matching, dtype=np.int64).reshape(-1, 2)
    edges = network.edge_ids(ends[:, 0], ends[:, 1])
    missing = edges < 0
    if not missing.any() and np.bincount(ends.ravel()).max(initial=0) <= 1:
        u, v = network.edge_endpoints
        edges = np.sort(edges)
        return tuple(zip(u[edges].tolist(), v[edges].tolist()))
    # The first offender: a non-edge, or an edge with an endpoint seen before.
    _, first_seen = np.unique(ends.ravel(), return_index=True)
    repeated = np.ones(ends.size, dtype=bool)
    repeated[first_seen] = False
    offender = int(np.flatnonzero(missing | repeated.reshape(-1, 2).any(axis=1))[0])
    u, v = matching[offender]
    if missing[offender]:
        raise ScheduleError(f"edge {(u, v)} is not an edge of the network")
    edge = (u, v) if u < v else (v, u)
    raise ScheduleError(f"edges in a matching must be disjoint; node clash at {edge}")


def edge_coloring(network: Network) -> List[Tuple[Edge, ...]]:
    """Return a proper edge colouring of the network as a list of matchings.

    Uses a greedy colouring of the line graph, which yields at most
    ``2 d - 1`` colours (the paper's periodic model assumes roughly ``d``
    matchings; greedy is within a factor two of that and keeps the
    implementation dependency-free).  Every edge appears in exactly one
    matching and every matching is non-empty.
    """
    if network.num_edges == 0:
        return []
    line_graph = nx.line_graph(network.graph)
    coloring = nx.coloring.greedy_color(line_graph, strategy="largest_first")
    # largest_first caches a DegreeView on the line graph, a reference cycle
    # that only the cyclic collector would free: release the edges now.
    line_graph.clear()
    buckets: Dict[int, List[Edge]] = {}
    for edge, color in coloring.items():
        u, v = edge
        canonical = (u, v) if u < v else (v, u)
        buckets.setdefault(color, []).append(canonical)
    matchings = [
        validate_matching(network, bucket) for _, bucket in sorted(buckets.items())
    ]
    return matchings


class MatchingSchedule:
    """Abstract base class: a (possibly random) sequence of matchings.

    Subclasses must implement :meth:`matching`.  Results are memoised so that
    the continuous process and every discrete process coupled to it observe
    the same matching for a given round, even across repeated queries.
    """

    def __init__(self, network: Network) -> None:
        self._network = network
        self._cache: Dict[int, Tuple[Edge, ...]] = {}

    @property
    def network(self) -> Network:
        """The network the schedule is defined on."""
        return self._network

    def matching(self, round_index: int) -> Tuple[Edge, ...]:
        """Return the matching active in round ``round_index`` (cached)."""
        if round_index < 0:
            raise ScheduleError("round index must be non-negative")
        if round_index not in self._cache:
            self._cache[round_index] = validate_matching(
                self._network, self._generate(round_index)
            )
        return self._cache[round_index]

    def _generate(self, round_index: int) -> Sequence[Edge]:
        raise NotImplementedError

    def reseed(self, seed: Optional[int] = None) -> None:
        """Restart the schedule from round 0 as if freshly constructed.

        Deterministic schedules only drop their memoised matchings; random
        schedules additionally re-initialise their generator from ``seed``.
        Sharing processes must be rewound together (the streaming engine's
        re-coupling does exactly that), otherwise they would observe different
        matchings for the same round index.
        """
        self._cache.clear()
        self._reseed_rng(seed)

    def _reseed_rng(self, seed: Optional[int]) -> None:
        """Hook for schedules that carry randomness."""

    @property
    def period(self) -> Optional[int]:
        """The period of the schedule, or ``None`` for aperiodic schedules."""
        return None


class PeriodicMatchingSchedule(MatchingSchedule):
    """Cycle through a fixed list of matchings (the periodic matching model).

    Parameters
    ----------
    network:
        The network.
    matchings:
        Optional explicit list of matchings.  When omitted, a proper edge
        colouring of the network is computed with :func:`edge_coloring`.
    """

    def __init__(self, network: Network, matchings: Optional[Sequence[Sequence[Edge]]] = None) -> None:
        super().__init__(network)
        if matchings is None:
            prepared = edge_coloring(network)
        else:
            prepared = [validate_matching(network, m) for m in matchings]
        if not prepared:
            raise ScheduleError("a periodic schedule needs at least one matching")
        covered = {edge for matching in prepared for edge in matching}
        missing = set(network.edges) - covered
        if missing:
            raise ScheduleError(
                f"periodic matchings must cover every edge; missing {sorted(missing)[:5]}"
            )
        self._matchings: List[Tuple[Edge, ...]] = list(prepared)

    @property
    def matchings(self) -> List[Tuple[Edge, ...]]:
        """The underlying list of matchings (one per colour)."""
        return list(self._matchings)

    @property
    def period(self) -> int:
        return len(self._matchings)

    def _generate(self, round_index: int) -> Sequence[Edge]:
        return self._matchings[round_index % len(self._matchings)]


class RandomMatchingSchedule(MatchingSchedule):
    """Generate an independent random matching every round.

    The sampling follows the classical distributed procedure of Ghosh and
    Muthukrishnan: edges are examined in a uniformly random order and greedily
    added to the matching when both endpoints are still free.  The schedule is
    seeded, and matchings are cached per round, so all coupled processes see
    identical randomness.
    """

    def __init__(self, network: Network, seed: Optional[int] = None) -> None:
        super().__init__(network)
        self._rng = np.random.default_rng(seed)
        self._edges = list(network.edges)

    def _reseed_rng(self, seed: Optional[int]) -> None:
        self._rng = np.random.default_rng(seed)

    def _generate(self, round_index: int) -> Sequence[Edge]:
        order = self._rng.permutation(len(self._edges))
        used = set()
        matching: List[Edge] = []
        for index in order:
            u, v = self._edges[index]
            if u in used or v in used:
                continue
            used.add(u)
            used.add(v)
            matching.append((u, v))
        return matching


class SingleMatchingSchedule(MatchingSchedule):
    """Use the same fixed matching in every round (useful for tests)."""

    def __init__(self, network: Network, matching: Sequence[Edge]) -> None:
        super().__init__(network)
        self._matching = validate_matching(network, matching)

    @property
    def period(self) -> int:
        return 1

    def _generate(self, round_index: int) -> Sequence[Edge]:
        return self._matching
