"""Dimension exchange: matching-based continuous balancing.

In the matching model every node balances with at most one neighbour per
round: load transfer is restricted to the edges of a matching.  For a matched
edge ``(i, j)`` both endpoints equalise their makespans using

    ``y_{i,j}(t) = (alpha_{i,j} / s_i) * x_i(t)``  with
    ``alpha_{i,j} = s_i * s_j / (s_i + s_j)``                (Equation (5))

so that ``x_i(t+1) = s_i / (s_i + s_j) * (x_i(t) + x_j(t))``.  The matching
used in each round comes from a :class:`~repro.network.matchings.MatchingSchedule`
— either a periodic schedule derived from an edge colouring or an independent
random matching per round.  Dimension exchange is additive and terminating
(Lemma 1) and never induces negative load.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..exceptions import ProcessError
from ..network.graph import Network
from ..network.matchings import (
    MatchingSchedule,
    PeriodicMatchingSchedule,
    RandomMatchingSchedule,
)
from .base import ContinuousProcess, RoundFlows

__all__ = ["DimensionExchange", "periodic_dimension_exchange", "random_matching_exchange"]


class DimensionExchange(ContinuousProcess):
    """Continuous dimension-exchange process driven by a matching schedule.

    Parameters
    ----------
    network:
        The network to balance on.
    initial_load:
        Initial load vector ``x(0)``.
    schedule:
        The matching schedule.  Share the same schedule instance with any
        discretization of this process so both see identical matchings.
    """

    def __init__(
        self,
        network: Network,
        initial_load: Sequence[float],
        schedule: MatchingSchedule,
        check_negative_load: bool = False,
    ) -> None:
        super().__init__(network, initial_load, check_negative_load=check_negative_load)
        if schedule.network is not network:
            raise ProcessError("the matching schedule must be built on the same network")
        self._schedule = schedule

    @property
    def schedule(self) -> MatchingSchedule:
        """The matching schedule driving this process."""
        return self._schedule

    def _compute_flows(self) -> RoundFlows:
        flows = RoundFlows(self.network)
        ids = self._schedule.matching_ids(self.round_index)
        u, v = (ends[ids] for ends in self.network.edge_endpoints)
        speeds = self.network.speeds
        total_speed = speeds[u] + speeds[v]
        # alpha_{u,v} = s_u s_v / (s_u + s_v); y_{u,v} = alpha / s_u * x_u.
        flows.forward[ids] = speeds[v] / total_speed * self._load[u]
        flows.backward[ids] = speeds[u] / total_speed * self._load[v]
        return flows


def periodic_dimension_exchange(network: Network, initial_load: Sequence[float],
                                check_negative_load: bool = False) -> DimensionExchange:
    """Convenience constructor: dimension exchange with an edge-colouring schedule."""
    schedule = PeriodicMatchingSchedule(network)
    return DimensionExchange(network, initial_load, schedule,
                             check_negative_load=check_negative_load)


def random_matching_exchange(network: Network, initial_load: Sequence[float],
                             seed: Optional[int] = None,
                             check_negative_load: bool = False) -> DimensionExchange:
    """Convenience constructor: dimension exchange with a random matching schedule."""
    schedule = RandomMatchingSchedule(network, seed=seed)
    return DimensionExchange(network, initial_load, schedule,
                             check_negative_load=check_negative_load)
