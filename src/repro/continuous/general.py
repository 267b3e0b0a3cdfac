"""The general linear process class of Lemma 1 (Equations (10)-(11)).

The proof of Lemma 1 observes that FOS, SOS and the matching-based processes
are all instances of one recursion, parameterised by a sequence of matrices
``P(0), P(1), ...`` and a relaxation parameter ``beta``:

    ``y_{i,j}(0) = P_{i,j}(0) * x_i(0)``
    ``y_{i,j}(t) = (beta - 1) * y_{i,j}(t-1) + beta * P_{i,j}(t) * x_i(t)``

Every process of this form (with symmetric ``alpha_{i,j} = P_{i,j} s_i``) is
additive and terminating, so the paper's discretization framework applies.
:class:`GeneralLinearProcess` implements the recursion directly, which lets
users plug in their own matrix sequences (e.g. time-varying topologies,
weighted matchings, hybrid diffusion/matching schemes) and immediately obtain
a discrete version via Algorithm 1 or Algorithm 2.

A *matrix provider* is a callable ``provider(t) -> dict[edge, alpha]`` giving
the symmetric edge weights active in round ``t`` (absent edges are inactive
that round).  The diffusion entry is then ``P_{i,j}(t) = alpha_{i,j} / s_i``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..exceptions import ProcessError
from ..network.graph import Edge, Network
from ..network.matchings import MatchingSchedule
from ..network.spectral import AlphaScheme, alpha_entries, compute_alphas, node_alpha_sums
from .base import ContinuousProcess, RoundFlows

__all__ = [
    "AlphaProvider",
    "GeneralLinearProcess",
    "constant_alpha_provider",
    "matching_alpha_provider",
]

AlphaProvider = Callable[[int], Dict[Edge, float]]


def constant_alpha_provider(network: Network,
                            alphas: Optional[Dict[Edge, float]] = None,
                            scheme: str = AlphaScheme.MAX_DEGREE_PLUS_ONE) -> AlphaProvider:
    """Provider that activates every edge with fixed weights each round (diffusion)."""
    if alphas is None:
        alphas = compute_alphas(network, scheme)
    fixed = dict(alphas)
    return lambda round_index: fixed


def matching_alpha_provider(network: Network, schedule: MatchingSchedule) -> AlphaProvider:
    """Provider that activates only the matched edges with the dimension-exchange weights."""
    if schedule.network is not network:
        raise ProcessError("the matching schedule must be built on the same network")
    speeds = network.speeds

    def provider(round_index: int) -> Dict[Edge, float]:
        active: Dict[Edge, float] = {}
        for (u, v) in schedule.matching(round_index):
            active[(u, v)] = speeds[u] * speeds[v] / (speeds[u] + speeds[v])
        return active

    return provider


class GeneralLinearProcess(ContinuousProcess):
    """A continuous process defined by the general recursion of Lemma 1.

    Parameters
    ----------
    network:
        The network to balance on.
    initial_load:
        Initial load vector ``x(0)``.
    alpha_provider:
        Callable returning the symmetric edge weights active in a round.
    beta:
        Relaxation parameter in ``(0, 2]``; ``beta = 1`` recovers the
        first-order behaviour (no memory of the previous round's flows).
    validate_rows:
        When ``True`` (default), every round the provider's weights are
        checked against ``sum_j alpha_{i,j} < s_i``, which guarantees the
        first-order (``beta = 1``) instance never induces negative load.
    """

    def __init__(
        self,
        network: Network,
        initial_load: Sequence[float],
        alpha_provider: AlphaProvider,
        beta: float = 1.0,
        validate_rows: bool = True,
        check_negative_load: bool = False,
    ) -> None:
        super().__init__(network, initial_load, check_negative_load=check_negative_load)
        if not 0.0 < beta <= 2.0:
            raise ProcessError(f"beta must lie in (0, 2], got {beta}")
        self._beta = float(beta)
        self._provider = alpha_provider
        self._validate_rows = validate_rows

    @property
    def beta(self) -> float:
        """The relaxation parameter of the recursion."""
        return self._beta

    def _active_rates(self) -> RoundFlows:
        """Evaluate ``P_{i,j}(t) * x_i(t)`` for the edges active this round."""
        network = self.network
        edges, alphas = alpha_entries(network, self._provider(self.round_index),
                                      check_positive=self._validate_rows)
        u, v = network.edge_endpoints
        u, v = u[edges], v[edges]
        speeds = network.speeds
        if self._validate_rows and edges.size:
            sums = node_alpha_sums(network.num_nodes, u, v, alphas)
            if np.any(sums >= speeds):
                node = int(np.argmax(sums - speeds))
                raise ProcessError(
                    f"round {self.round_index}: sum of alphas at node {node} "
                    f"({sums[node]:.4f}) must stay below its speed ({speeds[node]:.4f})"
                )
        flows = RoundFlows(network)
        flows.forward[edges] = alphas / speeds[u] * self._load[u]
        flows.backward[edges] = alphas / speeds[v] * self._load[v]
        return flows

    def _compute_flows(self) -> RoundFlows:
        first_order = self._active_rates()
        if self.round_index == 0 or self.last_flows is None or self._beta == 1.0:
            return first_order
        beta = self._beta
        forward = (beta - 1.0) * self.last_flows.forward + beta * first_order.forward
        backward = (beta - 1.0) * self.last_flows.backward + beta * first_order.backward
        return RoundFlows(self.network, forward=forward, backward=backward)
