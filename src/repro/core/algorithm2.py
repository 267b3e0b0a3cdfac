"""Algorithm 2: randomized flow imitation for identical tokens (Section 5).

Algorithm 2 keeps the same cumulative-flow bookkeeping as Algorithm 1 but
rounds the residual flow randomly: with

    ``Y^hat_{i,j}(t) = f^A_{i,j}(t) - F^{D(A)}_{i,j}(t - 1) > 0``

the node sends ``floor(Y^hat) + 1`` tokens with probability ``{Y^hat}``
(the fractional part) and ``floor(Y^hat)`` tokens otherwise, so the expected
discrete flow matches the continuous flow exactly.  Nodes short of tokens
draw dummy tokens from the infinite source, exactly as in Algorithm 1.

Guarantees (Theorem 8), provided the continuous balancing time is polynomial
in ``n``:

* the max-avg discrepancy at time ``T^A`` is at most
  ``d/4 + O(sqrt(d log n))`` w.h.p.;
* if every node starts with at least ``(d/4 + 2c sqrt(d log n)) * s_i`` load
  on top of a vector on which ``A`` induces no negative load, the max-min
  discrepancy is ``O(sqrt(d log n))`` w.h.p. and the infinite source is never
  used (Lemma 11).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..continuous.base import ContinuousProcess
from ..counter_rng import edge_scores, normalize_counter_seed
from ..exceptions import ProcessError
from ..tasks.assignment import TaskAssignment
from ..tasks.task import Task
from .flow_imitation import EdgeSendPlan, FlowImitationBalancer

__all__ = [
    "RandomizedFlowImitation",
    "theorem8_max_avg_bound",
    "theorem8_max_min_bound",
    "theorem8_required_base_load",
]


def theorem8_max_avg_bound(max_degree: int, num_nodes: int, constant: float = 1.0) -> float:
    """Return the Theorem 8(1) shape ``d/4 + c * sqrt(d log n)``."""
    n = max(num_nodes, 2)
    return max_degree / 4.0 + constant * math.sqrt(max_degree * math.log(n))


def theorem8_max_min_bound(max_degree: int, num_nodes: int, constant: float = 1.0) -> float:
    """Return the Theorem 8(2) shape ``c * sqrt(d log n)``."""
    n = max(num_nodes, 2)
    return constant * math.sqrt(max_degree * math.log(n))


def theorem8_required_base_load(max_degree: int, num_nodes: int, constant: float = 2.0) -> float:
    """Return the per-speed-unit base load ``d/4 + 2c sqrt(d log n)`` of Theorem 8(2)."""
    n = max(num_nodes, 2)
    return max_degree / 4.0 + constant * math.sqrt(max_degree * math.log(n))


class RandomizedFlowImitation(FlowImitationBalancer):
    """The paper's Algorithm 2: randomized flow imitation for unit tokens.

    Parameters
    ----------
    continuous:
        The continuous process ``A`` to discretize (fresh, round 0, starting
        from the same load vector as ``assignment``).
    assignment:
        The discrete workload at time 0; every task must be a unit token.
    seed:
        Seed of the rounding randomness.  The per-edge draws come from a
        Philox generator keyed on ``(seed, round)`` (see
        :mod:`repro.counter_rng`): edge ``e`` reads entry ``e`` of the
        per-round score block, so every draw is a pure function of
        ``(seed, round, edge)``.  Iterating the send requests in any order
        yields the same load trajectory, and the vectorised kernel
        (:class:`repro.backend.flow.ArrayRandomizedFlowImitation`) is
        bit-identical to this scalar reference.
    """

    def __init__(
        self,
        continuous: ContinuousProcess,
        assignment: TaskAssignment,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(continuous, assignment, max_task_weight=1.0)
        not_tokens = [
            task
            for node in assignment.network.nodes
            for task in assignment.tasks_at(node)
            if not task.is_token
        ]
        if not_tokens:
            raise ProcessError(
                "Algorithm 2 balances identical unit-weight tokens only; "
                f"found a task of weight {not_tokens[0].weight}"
            )
        self._reset_rng(seed)

    def discrepancy_bound(self, constant: float = 1.0) -> float:
        """The Theorem 8(1) shape ``d/4 + c sqrt(d log n)`` for this instance."""
        return theorem8_max_avg_bound(self.network.max_degree,
                                      self.network.num_nodes, constant)

    def _reset_rng(self, seed: Optional[int]) -> None:
        self._counter_key = normalize_counter_seed(seed)
        self._scores_round = -1
        self._scores: Optional[np.ndarray] = None

    def _rounding_uniform(self, source: int, destination: int) -> float:
        """The uniform draw that rounds this edge's residual this round.

        The edge's entry of the per-round score block — order-free by
        construction.
        """
        if self._scores_round != self._round:
            self._scores = edge_scores(self._counter_key, self._round,
                                       self.network.num_edges)
            self._scores_round = self._round
        return float(self._scores[self.network.edge_index(source, destination)])

    def _reset_workload(self, workload) -> None:
        from ..tasks.weighted import WeightedLoads

        if isinstance(workload, WeightedLoads) and workload.max_weight() > 1:
            raise ProcessError(
                "Algorithm 2 balances identical unit-weight tokens only; "
                "cannot recouple onto a weighted workload")
        super()._reset_workload(workload)

    def _plan_edge_send(self, source: int, destination: int, residual: float,
                        pool: List[Task]) -> EdgeSendPlan:
        if residual <= 0:
            return EdgeSendPlan(source=source, destination=destination)
        base = int(math.floor(residual))
        fraction = residual - base
        amount = base + (1 if self._rounding_uniform(source, destination) < fraction else 0)
        if amount <= 0:
            return EdgeSendPlan(source=source, destination=destination)
        tasks, missing = self._take_unit_tokens(pool, amount)
        return EdgeSendPlan(source=source, destination=destination,
                            tasks=tasks, dummy_tokens=missing)
