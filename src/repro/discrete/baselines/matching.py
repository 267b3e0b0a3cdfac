"""Discrete matching-model baselines (Section 2.2 / 2.3 of the paper).

In the matching model, balancing actions are restricted to the edges of a
matching each round (periodic matchings from an edge colouring, or a fresh
random matching each round).  For a matched edge ``(i, j)`` the continuous
dimension-exchange process would move

    ``delta = (s_j x_i - s_i x_j) / (s_i + s_j)``

from ``i`` to ``j`` (when positive), equalising the two makespans.  The
discrete baselines round ``delta``:

* :class:`RoundDownMatching` — round down (Rabani et al. [37]); never creates
  negative load; lower bound ``Omega(diam(G))``.
* :class:`RandomizedRoundingMatching` — randomized rounding in the style of
  Friedrich & Sauerwald [24] / Sauerwald & Sun [38]; either round up/down with
  probability 1/2 each (``probability="half"``, the rule of [24]) or with
  probability equal to the fractional part (``probability="fractional"``).
  The "half" rule can create negative load when the sender holds very little.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ...exceptions import ProcessError
from ...network.graph import Network
from ...network.matchings import MatchingSchedule
from ..base import IntegerLoadBalancer

__all__ = ["MatchingBaseline", "RoundDownMatching", "RandomizedRoundingMatching"]


class MatchingBaseline(IntegerLoadBalancer):
    """Shared bookkeeping for the discrete matching-model baselines.

    Parameters
    ----------
    network:
        The network to balance on.
    initial_load:
        Integer token counts per node.
    schedule:
        The matching schedule; share the instance with any other process that
        should observe the same matchings.
    """

    def __init__(self, network: Network, initial_load: Sequence[int],
                 schedule: MatchingSchedule) -> None:
        super().__init__(network, initial_load)
        if schedule.network is not network:
            raise ProcessError("the matching schedule must be built on the same network")
        self._schedule = schedule

    @property
    def schedule(self) -> MatchingSchedule:
        """The matching schedule driving this process."""
        return self._schedule

    def _reset_state(self, seed) -> None:
        self._schedule.reseed(seed)

    def _matched_deltas(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(senders, receivers, delta)`` of the matched edges with non-zero delta.

        Entries follow the matching's edge order; ``delta > 0`` is the
        amount the sender's makespan exceeds the balanced exchange by.
        """
        ids = self._schedule.matching_ids(self.round_index)
        u, v = (ends[ids] for ends in self.network.edge_endpoints)
        speeds = self.network.speeds
        loads = self._loads.astype(float)
        delta = (speeds[v] * loads[u] - speeds[u] * loads[v]) / (speeds[u] + speeds[v])
        moving = delta != 0
        forward = delta[moving] > 0
        u, v = u[moving], v[moving]
        return np.where(forward, u, v), np.where(forward, v, u), np.abs(delta[moving])


class RoundDownMatching(MatchingBaseline):
    """Round the dimension-exchange amount of every matched edge down."""

    def _execute_round(self) -> None:
        senders, receivers, delta = self._matched_deltas()
        amounts = np.floor(delta + 1e-12).astype(np.int64)
        self._apply_edge_moves(np.column_stack((senders, receivers, amounts)))


class RandomizedRoundingMatching(MatchingBaseline):
    """Randomized rounding in the matching model ([24] / [38] style).

    One uniform draw per matched edge whose amount has a non-zero fractional
    part, in matching order.
    """

    def __init__(self, network: Network, initial_load: Sequence[int],
                 schedule: MatchingSchedule, probability: str = "half",
                 seed: Optional[int] = None) -> None:
        super().__init__(network, initial_load, schedule)
        if probability not in ("half", "fractional"):
            raise ProcessError(
                f"probability must be 'half' or 'fractional', got {probability!r}"
            )
        self._probability = probability
        self._rng = np.random.default_rng(seed)

    def _reset_state(self, seed) -> None:
        # Not called from __init__: re-coupling owns the schedule and may
        # reseed it, but a constructor must never touch a shared schedule.
        super()._reset_state(seed)
        self._rng = np.random.default_rng(seed)

    @property
    def probability_rule(self) -> str:
        """Which rounding probability rule is in use ('half' or 'fractional')."""
        return self._probability

    def _execute_round(self) -> None:
        senders, receivers, delta = self._matched_deltas()
        base = np.floor(delta)
        fraction = delta - base
        drawn = np.flatnonzero(fraction != 0.0)
        threshold = 0.5 if self._probability == "half" else fraction[drawn]
        amounts = base.astype(np.int64)
        amounts[drawn] += self._rng.random(drawn.size) < threshold
        self._apply_edge_moves(np.column_stack((senders, receivers, amounts)))
