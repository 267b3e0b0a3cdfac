"""Vectorized flow imitation: Algorithms 1 and 2 on the array backend.

:class:`ArrayFlowImitation` runs the paper's flow-imitation template on the
columnar :class:`~repro.backend.weighted.WeightedRunState` instead of a
:class:`~repro.tasks.assignment.TaskAssignment`.  The workload may be a
unit-token count vector, a :class:`~repro.tasks.weighted.WeightedLoads` or
an integer-weight ``TaskAssignment``: unit tokens are the ``w_max = 1`` case
of the weighted Algorithm 1, so both algorithms share one round.  The round
works in canonical edge order and sorts nothing: each edge's send depends
only on its own residual, so the ``(sender, receiver)`` planning order is
needed only when a queue can run short, and then it is filtered from the
network's precomputed :attr:`~repro.network.graph.Network.directed_order`.

Per round, :meth:`ArrayFlowImitation._edge_amounts` turns every edge's
residual flow into what the edge asks its sender for: integer
unit-token counts (floor for Algorithm 1, randomized rounding for Algorithm
2) or, for weighted tasks, the residuals themselves.  One call,
:meth:`WeightedRunState.transfer`, then moves the tasks and reports the
weight each edge sent; how the queues are laid out and which form the
round takes are decisions of :mod:`repro.backend.weighted` alone.

Bit-for-bit equivalence with the object backend is a design invariant, not
an accident, and the ordering details below exist to preserve it:

* whenever queue order is observable (dummies, mixed classes, a sender
  short of tokens), the requests are planned in ``(sender, receiver)``
  order — exactly the order in which
  :meth:`FlowImitationBalancer._execute_round` visits its per-sender
  request lists — so the FIFO real/dummy split matches.  Algorithm 2's
  draws do not depend on any order (each edge owns its entry of the
  per-round Philox score block, see :mod:`repro.counter_rng`);
* the send counts are drawn for every edge before the state picks
  the round's form, so the draws never depend on which form runs;
* a sender's tasks are committed to its edges first-come-first-served
  against the start-of-round state, and every plan is taken before any
  delivery, so the real/dummy split of every transfer matches the object
  backend's FIFO pools;
* every edge's cumulative discrete flow accumulates the same float64
  values.

The equivalence suites (``tests/backend/``) assert identical per-round load
vectors, dummy distributions and discrepancy trajectories across backends
for every algorithm, workload kind and substrate.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..continuous.base import ContinuousProcess
from ..core.algorithm1 import theorem3_discrepancy_bound
from ..core.algorithm2 import theorem8_max_avg_bound
from ..core.flow_imitation import FlowCoupledBalancer, RoundReport, TaskSelectionPolicy
from ..counter_rng import edge_scores, normalize_counter_seed
from ..exceptions import ProcessError
from ..network.graph import Network
from ..obs.kernels import kernel_phase
from ..tasks.assignment import TaskAssignment
from ..tasks.load import as_token_counts
from ..tasks.weighted import WeightedLoads
from .weighted import WeightedRunState

__all__ = [
    "ArrayFlowImitation",
    "ArrayDeterministicFlowImitation",
    "ArrayRandomizedFlowImitation",
]

Workload = Union[np.ndarray, Sequence[int], WeightedLoads, TaskAssignment]


def _initial_state(workload: Workload, network: Network) -> WeightedRunState:
    """Build the columnar state of a token-count, weighted or task workload."""
    if isinstance(workload, TaskAssignment):
        if workload.network is not network:
            raise ProcessError(
                "the task assignment and the continuous process must share the same network"
            )
        return WeightedRunState.from_assignment(workload)
    if isinstance(workload, WeightedLoads):
        if workload.num_nodes != network.num_nodes:
            raise ProcessError(
                f"workload spans {workload.num_nodes} nodes, "
                f"network has {network.num_nodes}")
        return WeightedRunState.from_weighted_loads(workload)
    # as_token_counts has checked the counts and returns a fresh array
    return WeightedRunState(as_token_counts(workload, network, error=ProcessError), 1)


class ArrayFlowImitation(FlowCoupledBalancer):
    """Flow imitation over a :class:`WeightedRunState` (integer weights).

    Parameters
    ----------
    continuous:
        The continuous process ``A`` to imitate (fresh, round 0, starting
        from the workload's load vector).
    workload:
        Non-negative integer token counts per node, a :class:`WeightedLoads`
        (canonical ascending-weight queue order) or a :class:`TaskAssignment`
        of integer-weight tasks whose queue order is preserved.
    selection_policy:
        How the pseudocode's "arbitrary" task is chosen; one of
        :class:`TaskSelectionPolicy`.  Irrelevant for unit tokens.
    """

    def __init__(
        self,
        continuous: ContinuousProcess,
        workload: Workload,
        selection_policy: str = TaskSelectionPolicy.FIFO,
    ) -> None:
        if selection_policy not in TaskSelectionPolicy.ALL:
            raise ProcessError(
                f"unknown selection policy {selection_policy!r}; "
                f"valid policies: {TaskSelectionPolicy.ALL}")
        state = _initial_state(workload, continuous.network)
        if continuous.round_index == 0 and not np.allclose(
                state.load_vector(), continuous.load, rtol=0, atol=1e-9):
            raise ProcessError(
                "the continuous process must start from the load vector induced by the assignment"
            )
        max_weight = state.max_weight()
        super().__init__(continuous, max_task_weight=max(1.0, float(max_weight)),
                         original_weight=float(state.loads.sum()))
        self._policy = selection_policy
        self._state = state
        self._unit_tokens_only = max_weight <= 1

    # ------------------------------------------------------------------ #
    # state inspection
    # ------------------------------------------------------------------ #

    @property
    def selection_policy(self) -> str:
        """The task-selection policy in use."""
        return self._policy

    @property
    def unit_tokens_only(self) -> bool:
        """Whether the workload consists exclusively of unit-weight tokens."""
        return self._unit_tokens_only

    def loads(self, include_dummies: bool = True) -> np.ndarray:
        """Return the current discrete load vector."""
        return self._state.load_vector(include_dummies=include_dummies)

    def dummy_loads(self) -> np.ndarray:
        """Return the per-node total weight of dummy tokens (as floats)."""
        return self._state.dummy_counts.astype(float)

    def real_counts(self, weights: np.ndarray) -> np.ndarray:
        """The real task count of every node per weight class (a fresh int64 matrix)."""
        return self._state.real_counts(weights)

    def remove_dummies(self) -> float:
        """Eliminate all dummy tasks (the final step of the balancing process)."""
        return float(self._state.remove_dummies())

    def _reset_workload(self, workload) -> None:
        # recouple() has validated a fresh count vector: the state adopts it
        if isinstance(workload, WeightedLoads):
            self._state = WeightedRunState.from_weighted_loads(workload)
        else:
            self._state = WeightedRunState(workload, 1)
        self._unit_tokens_only = self._state.max_weight() <= 1

    # ------------------------------------------------------------------ #
    # the round
    # ------------------------------------------------------------------ #

    def _execute_round(self) -> None:
        with kernel_phase("continuous/advance"):
            self._continuous.advance()
        with kernel_phase("flow/array-round"):
            self._imitate_round()

    def _imitate_round(self) -> None:
        # The substrate's own array: read, never written, and no copy per round.
        residual = self._continuous._cumulative - self._discrete_cumulative
        # a zero residual asks for nothing, so the positive amounts pick the moving edges
        amounts = self._edge_amounts(np.abs(residual))
        moving = np.flatnonzero(amounts > 0)
        if moving.size == 0:
            self._report(0, 0, 0, 0)
            return
        amounts = amounts[moving]
        forward = residual[moving] > 0.0
        # directed edge k is edge k sent u -> v, m + k the same edge v -> u
        directed = moving + self.network.num_edges * ~forward
        senders, receivers = (ends[directed] for ends in self.network.directed_endpoints)
        sent, tasks_moved, dummies = self._state.transfer(
            senders, receivers, amounts, self._w_max + 1e-9, self._policy,
            lambda: self.network.planning_order(directed))
        self._discrete_cumulative[moving] += np.where(forward, sent, -sent).astype(float)
        self._report(int(np.count_nonzero(sent)), tasks_moved, int(sent.sum()), dummies)

    def _report(self, transfers: int, tasks_moved: int, weight_moved: int,
                dummies: int) -> None:
        if dummies:
            self._used_infinite_source = True
            self._dummy_tokens_created += dummies
        self._reports.append(RoundReport(self._round, transfers, tasks_moved,
                                         float(weight_moved), dummies))

    def _edge_amounts(self, magnitude: np.ndarray) -> np.ndarray:
        """What every edge asks its sender for.

        ``magnitude`` holds every edge's residual magnitude, in edge order
        (what counter-mode randomness is keyed on).  Returns integer
        unit-token counts, or the float residuals themselves for weighted
        tasks, which :meth:`WeightedRunState.transfer` answers with the
        pseudocode's while-loop.  An edge with a zero residual asks for 0.
        """
        raise NotImplementedError


class ArrayDeterministicFlowImitation(ArrayFlowImitation):
    """Algorithm 1 on the array backend (unit tokens or integer weights)."""

    def discrepancy_bound(self) -> float:
        """The Theorem 3 bound ``2 d w_max + 2`` for this instance."""
        return theorem3_discrepancy_bound(self.network.max_degree, self.w_max)

    def _edge_amounts(self, magnitude: np.ndarray) -> np.ndarray:
        if self._unit_tokens_only:
            return np.floor(magnitude + 1e-9).astype(np.int64)
        return magnitude


class ArrayRandomizedFlowImitation(ArrayFlowImitation):
    """Algorithm 2 on the array backend: randomized rounding of the residual.

    Every edge reads its entry of the per-round Philox score block
    (:mod:`repro.counter_rng`), bit-identical to the scalar reference
    (:class:`~repro.core.algorithm2.RandomizedFlowImitation`) by
    construction: both read ``edge_scores(seed, round)[edge]``.
    """

    def __init__(
        self,
        continuous: ContinuousProcess,
        initial_load: Workload,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(continuous, initial_load)
        if not self._unit_tokens_only:
            raise ProcessError(
                "Algorithm 2 balances identical unit-weight tokens only; "
                f"found a task of weight {self._state.max_weight()}")
        self._reset_rng(seed)

    def discrepancy_bound(self, constant: float = 1.0) -> float:
        """The Theorem 8(1) shape ``d/4 + c sqrt(d log n)`` for this instance."""
        return theorem8_max_avg_bound(self.network.max_degree,
                                      self.network.num_nodes, constant)

    def _reset_workload(self, workload) -> None:
        if isinstance(workload, WeightedLoads) and workload.max_weight() > 1:
            raise ProcessError(
                "Algorithm 2 balances identical unit-weight tokens only; "
                "cannot recouple onto a weighted workload")
        super()._reset_workload(workload)

    def _reset_rng(self, seed: Optional[int]) -> None:
        self._counter_key = normalize_counter_seed(seed)

    def _edge_amounts(self, magnitude: np.ndarray) -> np.ndarray:
        base = np.floor(magnitude)
        fraction = magnitude - base
        draws = edge_scores(self._counter_key, self._round, self.network.num_edges)
        round_up = draws < fraction
        return (base + round_up).astype(np.int64)
