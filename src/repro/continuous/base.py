"""Base classes for continuous (divisible-load) balancing processes.

A continuous process maintains a real-valued load vector ``x(t)`` and, in
every synchronous round, transfers a non-negative amount ``y_{i,j}(t)`` of
load over (a subset of) the edges.  The paper's discretization framework
(Algorithms 1 and 2) only interacts with a continuous process through

* the per-round flows ``y_{i,j}(t)`` and
* the cumulative net flow ``f_{i,j}(t) = sum_{tau<=t} (y_{i,j} - y_{j,i})``,

so this module provides exactly that interface.  Processes are *stateful*
simulators: :meth:`ContinuousProcess.advance` computes the flows of the
current round, applies them to the load vector, accumulates them into the
per-edge cumulative flow, and increments the round counter.

The framework applies to *additive* and *terminating* processes
(Definitions 2 and 3 of the paper); those properties are validated for the
concrete subclasses by the property-based tests in ``tests/``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

from ..exceptions import ConvergenceError, NegativeLoadError, ProcessError
from ..network.graph import Network
from ..tasks.load import as_load_vector, balanced_allocation

__all__ = ["RoundFlows", "ContinuousProcess", "BALANCE_TOLERANCE"]

#: Default tolerance used in the definition of the balancing time
#: ``T = min { t : |x_i(t) - W s_i / S| <= 1 for all i }`` (Section 3).
BALANCE_TOLERANCE = 1.0


class RoundFlows:
    """The directed flows of a single round, stored per canonical edge.

    For every edge ``(u, v)`` with ``u < v`` of the network, ``forward[e]``
    is the amount sent from ``u`` to ``v`` and ``backward[e]`` the amount
    sent from ``v`` to ``u`` during the round.
    """

    __slots__ = ("_network", "forward", "backward")

    def __init__(self, network: Network,
                 forward: Optional[np.ndarray] = None,
                 backward: Optional[np.ndarray] = None) -> None:
        m = network.num_edges
        self._network = network
        self.forward = np.zeros(m, dtype=float) if forward is None else np.asarray(forward, dtype=float)
        self.backward = np.zeros(m, dtype=float) if backward is None else np.asarray(backward, dtype=float)
        if self.forward.shape != (m,) or self.backward.shape != (m,):
            raise ProcessError("flow arrays must have one entry per edge")

    @property
    def network(self) -> Network:
        """The network these flows refer to."""
        return self._network

    def sent(self, i: int, j: int) -> float:
        """Return ``y_{i,j}``: the amount sent from ``i`` to ``j`` this round."""
        index = self._network.edge_index(i, j)
        if i < j:
            return float(self.forward[index])
        return float(self.backward[index])

    def net(self) -> np.ndarray:
        """Return the per-edge net flow ``y_{u,v} - y_{v,u}`` (canonical direction)."""
        return self.forward - self.backward

    def net_between(self, i: int, j: int) -> float:
        """Return the net flow from ``i`` to ``j`` this round (may be negative)."""
        return self.sent(i, j) - self.sent(j, i)

    def outgoing(self, node: int) -> float:
        """Return the total outgoing demand ``sum_j y_{node, j}`` of ``node``."""
        total = 0.0
        for neighbor in self._network.neighbors(node):
            total += self.sent(node, neighbor)
        return total

    def outgoing_all(self) -> np.ndarray:
        """Return the vector of outgoing demands for every node (vectorised).

        One ``bincount`` over the directed edges adds every forward amount,
        then every backward amount, in edge order -- the same float sums as
        scatter-adding ``forward`` and then ``backward`` into zeros.
        """
        senders, _ = self._network.directed_endpoints
        return np.bincount(senders, weights=np.concatenate((self.forward, self.backward)),
                           minlength=self._network.num_nodes)

    def apply_to(self, loads: np.ndarray) -> np.ndarray:
        """Return a new load vector after applying the net flows of this round."""
        sources, targets = self._network.edge_endpoints
        net = self.net()
        updated = loads.astype(float).copy()
        np.subtract.at(updated, sources, net)
        np.add.at(updated, targets, net)
        return updated


class ContinuousProcess(ABC):
    """Abstract base for continuous neighbourhood load balancing processes.

    Parameters
    ----------
    network:
        The network to balance on.
    initial_load:
        Initial real-valued load vector ``x(0)``.
    check_negative_load:
        When ``True``, :meth:`advance` raises :class:`NegativeLoadError`
        whenever the outgoing demand of a node exceeds its current load
        (i.e. the process "induces negative load" in the sense of
        Definition 1).  When ``False`` (default) the violation is only
        recorded in :attr:`induced_negative_load`.
    """

    def __init__(self, network: Network, initial_load: Sequence[float],
                 check_negative_load: bool = False) -> None:
        network.require_connected()
        self._network = network
        # Copy: the process mutates its load vector in place every round.
        self._load = as_load_vector(initial_load, network).copy()
        if np.any(self._load < 0):
            raise ProcessError("initial load must be non-negative")
        self._initial_load = self._load.copy()
        self._round = 0
        self._check_negative = check_negative_load
        self._induced_negative = False
        self._cumulative = np.zeros(network.num_edges, dtype=float)
        self._last_flows: Optional[RoundFlows] = None
        self._target: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # read-only state
    # ------------------------------------------------------------------ #

    @property
    def network(self) -> Network:
        """The network being balanced."""
        return self._network

    @property
    def load(self) -> np.ndarray:
        """The current load vector ``x(t)`` (copy)."""
        return self._load.copy()

    @property
    def initial_load(self) -> np.ndarray:
        """The initial load vector ``x(0)`` (copy)."""
        return self._initial_load.copy()

    @property
    def round_index(self) -> int:
        """The index ``t`` of the next round to be executed."""
        return self._round

    @property
    def total_weight(self) -> float:
        """The total load ``W`` (invariant across rounds)."""
        return float(self._initial_load.sum())

    @property
    def induced_negative_load(self) -> bool:
        """Whether any executed round had outgoing demand exceeding a node's load."""
        return self._induced_negative

    @property
    def last_flows(self) -> Optional[RoundFlows]:
        """The flows of the most recently executed round (``None`` before round 0)."""
        return self._last_flows

    @property
    def cumulative_flows(self) -> np.ndarray:
        """Per-edge cumulative net flow ``f_{u,v}(t-1)`` in canonical direction (copy)."""
        return self._cumulative.copy()

    def cumulative_flow_between(self, i: int, j: int) -> float:
        """Return ``f_{i,j}``: cumulative net flow sent from ``i`` to ``j`` so far."""
        index = self._network.edge_index(i, j)
        value = float(self._cumulative[index])
        return value if i < j else -value

    def balanced_target(self) -> np.ndarray:
        """Return the perfectly balanced allocation ``(W / S) * s`` (copy)."""
        return self._balanced().copy()

    def _balanced(self) -> np.ndarray:
        """The balanced allocation, computed on first use in each run (shared)."""
        if self._target is None:
            self._target = balanced_allocation(self.total_weight, self._network)
        return self._target

    def reset(self, initial_load: Sequence[float]) -> None:
        """Rewind the process to round 0 with a new initial load vector.

        The network-derived data (edge weights, transfer rates, spectral
        parameters such as the SOS ``beta``) is kept — only the per-run state
        (loads, cumulative flows, round counter) is cleared.  This is the
        O(n) re-coupling primitive used by the dynamic streaming engine when
        events change the workload but not the topology.
        """
        load = as_load_vector(initial_load, self._network)
        if np.any(load < 0):
            raise ProcessError("initial load must be non-negative")
        self._restart(load.copy())

    def _restart(self, load: np.ndarray) -> None:
        """:meth:`reset` onto ``load``, which the process takes over unchecked.

        ``load`` must be a fresh, finite, non-negative float vector of
        length ``n`` that nobody else holds: a flow-coupled balancer's
        re-coupling hands over the reference it has just built from counts
        it has validated.
        """
        self._load = load
        self._initial_load = load.copy()
        self._round = 0
        self._induced_negative = False
        self._cumulative[:] = 0.0
        self._last_flows = None
        self._target = None
        self._on_reset()

    def _on_reset(self) -> None:
        """Hook for subclasses that keep extra per-run state."""

    def is_balanced(self, tolerance: float = BALANCE_TOLERANCE) -> bool:
        """Whether every node is within ``tolerance`` of its balanced load."""
        return bool(np.all(np.abs(self._load - self._balanced()) <= tolerance))

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    @abstractmethod
    def _compute_flows(self) -> RoundFlows:
        """Compute the flows ``y_{i,j}(t)`` of the current round from the current state."""

    def advance(self) -> RoundFlows:
        """Execute one round: compute flows, apply them and return them."""
        flows = self._compute_flows()
        demand = flows.outgoing_all()
        if np.any(self._load - demand < -1e-9):
            self._induced_negative = True
            if self._check_negative:
                node = int(np.argmax(demand - self._load))
                raise NegativeLoadError(
                    f"round {self._round}: node {node} has load {self._load[node]:.4f} "
                    f"but outgoing demand {demand[node]:.4f}"
                )
        net = flows.net()
        sources, targets = self._network.edge_endpoints
        np.subtract.at(self._load, sources, net)
        np.add.at(self._load, targets, net)
        self._cumulative += net
        self._on_round_applied(flows)
        self._last_flows = flows
        self._round += 1
        return flows

    def _on_round_applied(self, flows: RoundFlows) -> None:
        """Hook for subclasses that keep extra per-round state (e.g. SOS)."""

    def run(self, rounds: int) -> None:
        """Execute ``rounds`` rounds."""
        if rounds < 0:
            raise ProcessError("cannot run a negative number of rounds")
        for _ in range(rounds):
            self.advance()

    def run_until_balanced(self, tolerance: float = BALANCE_TOLERANCE,
                           max_rounds: int = 1_000_000) -> int:
        """Run until the load vector is within ``tolerance`` of balanced everywhere.

        Returns the balancing time ``T`` (number of rounds executed from the
        start of the process, i.e. the current round index when balance is
        reached).  Raises :class:`ConvergenceError` if ``max_rounds`` rounds
        pass without balancing.
        """
        while not self.is_balanced(tolerance):
            if self._round >= max_rounds:
                raise ConvergenceError(
                    f"{type(self).__name__} did not balance within {max_rounds} rounds "
                    f"(current discrepancy {self._current_discrepancy():.4f})"
                )
            self.advance()
        return self._round

    def _current_discrepancy(self) -> float:
        return float(np.max(np.abs(self._load - self._balanced())))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self._network.num_nodes}, "
            f"round={self._round}, W={self.total_weight:.1f})"
        )
