"""Vectorized flow imitation: Algorithms 1 and 2 on the array backend.

:class:`ArrayFlowImitation` runs the paper's flow-imitation template on the
columnar :class:`~repro.backend.weighted.WeightedRunState` instead of a
:class:`~repro.tasks.assignment.TaskAssignment`.  The workload may be a
unit-token count vector, a :class:`~repro.tasks.weighted.WeightedLoads` or
an integer-weight ``TaskAssignment``: unit tokens are the ``w_max = 1`` case
of the weighted Algorithm 1, so both algorithms share one round.  No round
sorts: the planning order is filtered from the network's precomputed
:attr:`~repro.network.graph.Network.directed_order`.

Per round, the per-edge residual flows of the active edges are turned into
integer send counts by :meth:`ArrayFlowImitation._edge_amounts` (floor for
Algorithm 1 on unit tokens, the closed-form greedy count for a single weight
class ``w > 1``, randomized rounding for Algorithm 2; ``None`` once weight
classes mix), and the round then takes one of two forms:

* **scatter** — while every task shares one weight class, no dummy exists
  and every sender covers its sends, queue order is unobservable: the
  counts are scaled to weight once per edge and applied with two
  scatter-adds.  O(m) array work, independent of the number of tasks ``W``;
* **queue** — otherwise each sender plans its edges against its run queue
  (:meth:`WeightedRunState.plan_sender`), from the precomputed counts for
  unit tokens or by replaying the pseudocode's while-loop for weighted
  tasks, and the taken runs are delivered afterwards in plan order.
  O(m + runs touched).

Bit-for-bit equivalence with the object backend is a design invariant, not
an accident, and the ordering details below exist to preserve it:

* active edges are processed in ``(sender, receiver)`` order — exactly the
  order in which :meth:`FlowImitationBalancer._execute_round` visits its
  per-sender request lists — so Algorithm 2 consumes the *same* random draws
  in the *same* order from the same seeded generator (numpy's ``Generator``
  produces identical streams for scalar and vectorised uniform draws); in
  ``rng_mode="counter"`` the ordering no longer matters for the draws at all
  (each edge owns its entry of the per-round Philox score block, see
  :mod:`repro.counter_rng`) but is kept so the FIFO real/dummy split still
  matches;
* the send counts are drawn for every active edge before the round picks
  its form, so the draws never depend on which form runs;
* a sender's tasks are committed to its edges first-come-first-served
  against the start-of-round state, and every plan is taken before any
  delivery, so the real/dummy split of every transfer matches the object
  backend's FIFO pools;
* the cumulative discrete flows accumulate the same float64 values in the
  same per-edge order.

The equivalence suites (``tests/backend/``) assert identical per-round load
vectors, dummy distributions and discrepancy trajectories across backends
for every algorithm, workload kind and substrate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..continuous.base import ContinuousProcess
from ..core.algorithm1 import theorem3_discrepancy_bound
from ..core.algorithm2 import theorem8_max_avg_bound
from ..core.flow_imitation import FlowCoupledBalancer, RoundReport, TaskSelectionPolicy
from ..counter_rng import edge_scores, normalize_counter_seed, validate_rng_mode
from ..exceptions import ProcessError
from ..network.graph import Network
from ..obs.kernels import kernel_phase
from ..tasks.assignment import TaskAssignment
from ..tasks.load import as_token_counts
from ..tasks.weighted import WeightedLoads
from .weighted import Run, WeightedRunState, _take_counts_vector

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
    return WeightedRunState.from_counts(
        as_token_counts(workload, network, error=ProcessError))


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
                state.load_vector(), continuous.load, atol=1e-9):
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

    def real_weight_buckets(self) -> List[Dict[int, int]]:
        """Per-node ``{weight: count}`` of the real tasks (for streaming sync)."""
        return self._state.real_buckets()

    def remove_dummies(self) -> float:
        """Eliminate all dummy tasks (the final step of the balancing process)."""
        return float(self._state.remove_dummies())

    def _reset_workload(self, workload) -> None:
        # recouple() has already validated a count vector.
        if isinstance(workload, WeightedLoads):
            self._state = WeightedRunState.from_weighted_loads(workload)
        else:
            self._state = WeightedRunState.from_counts(workload)
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
        residual = self._continuous.cumulative_flows - self._discrete_cumulative
        # Orient each active edge from its sender and order the requests the
        # way the object backend iterates them: by sender, then by receiver.
        active, forward, senders, receivers = self.network.active_directed_edges(residual)
        if active.size == 0:
            self._report(0, 0, 0, 0)
            return
        magnitude = np.abs(residual[active])
        counts = self._edge_amounts(magnitude, active)
        if counts is not None:
            moving = np.flatnonzero(counts > 0)
            if moving.size == 0:
                self._report(0, 0, 0, 0)
                return
            active = active[moving]
            forward = forward[moving]
            senders = senders[moving]
            receivers = receivers[moving]
            counts = counts[moving]
            w = self._state.single_class
            if w is not None and self._scatter_round(active, forward, senders,
                                                     receivers, counts, w):
                return
            magnitude = magnitude[moving]
        self._queue_round(active, forward, senders, receivers, magnitude,
                          counts if self._unit_tokens_only else None)

    def _scatter_round(self, active: np.ndarray, forward: np.ndarray,
                       senders: np.ndarray, receivers: np.ndarray,
                       counts: np.ndarray, w: int) -> bool:
        """Apply a round of weight-``w`` tasks with two scatter-adds.

        Returns ``False`` — leaving the state untouched — when some sender
        cannot cover its sends, so the queue round can draw its dummies.
        """
        state = self._state
        sent = counts * w if w != 1 else counts
        n = self.network.num_nodes
        outgoing = np.zeros(n, dtype=np.int64)
        np.add.at(outgoing, senders, sent)
        if np.any(outgoing > state.loads):
            return False
        incoming = np.zeros(n, dtype=np.int64)
        np.add.at(incoming, receivers, sent)
        state.apply_moves(outgoing, incoming)
        self._discrete_cumulative[active] += np.where(forward, sent, -sent).astype(float)
        moved = int(counts.sum())
        self._report(int(counts.size), moved, moved * w, 0)
        return True

    def _queue_round(self, active: np.ndarray, forward: np.ndarray,
                     senders: np.ndarray, receivers: np.ndarray,
                     magnitude: np.ndarray, counts: Optional[np.ndarray]) -> None:
        """Plan per sender against the run queues, then deliver in plan order."""
        state = self._state
        senders_list = senders.tolist()
        receivers_list = receivers.tolist()
        residuals = magnitude.tolist()
        count_list = None if counts is None else counts.tolist()
        threshold = self._w_max + 1e-9
        starts = np.r_[0, np.flatnonzero(np.diff(senders)) + 1, senders.size].tolist()
        plans: List[Tuple[int, List[Run], int, int, int]] = []
        for begin, end in zip(starts[:-1], starts[1:]):
            plans.extend(state.plan_sender(senders_list[begin], range(begin, end),
                                           residuals, count_list, threshold,
                                           self._policy))
        if not plans:
            self._report(0, 0, 0, 0)
            return
        tasks_moved = 0
        dummies = 0
        for pos, takes, created, _total, moved in plans:
            state.deliver(receivers_list[pos], takes)
            state.deliver_dummies(receivers_list[pos], created)
            tasks_moved += moved
            dummies += created

        positions = np.fromiter((plan[0] for plan in plans), dtype=np.int64,
                                count=len(plans))
        totals = np.fromiter((plan[3] for plan in plans), dtype=np.int64,
                             count=len(plans))
        self._discrete_cumulative[active[positions]] += np.where(
            forward[positions], totals, -totals).astype(float)
        self._report(len(plans), tasks_moved, int(totals.sum()), dummies)

    def _report(self, transfers: int, tasks_moved: int, weight_moved: int,
                dummies: int) -> None:
        if dummies:
            self._used_infinite_source = True
            self._dummy_tokens_created += dummies
        self._reports.append(RoundReport(self._round, transfers, tasks_moved,
                                         float(weight_moved), dummies))

    def _edge_amounts(self, magnitude: np.ndarray,
                      edges: np.ndarray) -> Optional[np.ndarray]:
        """Derive the integer send count of every active edge.

        ``magnitude`` holds the residual magnitudes in planning order and
        ``edges`` the matching original edge indices (what counter-mode
        randomness is keyed on).  ``None`` means the counts depend on the
        queues, so the queue round plans them per sender.
        """
        raise NotImplementedError


class ArrayDeterministicFlowImitation(ArrayFlowImitation):
    """Algorithm 1 on the array backend (unit tokens or integer weights)."""

    def discrepancy_bound(self) -> float:
        """The Theorem 3 bound ``2 d w_max + 2`` for this instance."""
        return theorem3_discrepancy_bound(self.network.max_degree, self.w_max)

    def _edge_amounts(self, magnitude: np.ndarray,
                      edges: np.ndarray) -> Optional[np.ndarray]:
        if self._unit_tokens_only:
            return np.floor(magnitude + 1e-9).astype(np.int64)
        w = self._state.single_class
        if w is None:
            return None
        return _take_counts_vector(magnitude, float(w), self._w_max + 1e-9)


class ArrayRandomizedFlowImitation(ArrayFlowImitation):
    """Algorithm 2 on the array backend: randomized rounding of the residual.

    In the default ``"sequential"`` rng mode the round's draws come from one
    shared generator consumed in planning order — one batched call produces
    the same stream the object backend consumes edge by edge.  In the
    ``"counter"`` mode (:mod:`repro.counter_rng`) each active edge fancy-
    indexes its entry of the per-round Philox score block, bit-identical to
    the scalar counter-mode reference
    (:class:`~repro.core.algorithm2.RandomizedFlowImitation`) by
    construction: both read ``edge_scores(seed, round)[edge]``.
    """

    def __init__(
        self,
        continuous: ContinuousProcess,
        initial_load: Workload,
        seed: Optional[int] = None,
        rng_mode: str = "sequential",
    ) -> None:
        super().__init__(continuous, initial_load)
        if not self._unit_tokens_only:
            raise ProcessError(
                "Algorithm 2 balances identical unit-weight tokens only; "
                f"found a task of weight {self._state.max_weight()}")
        self._rng_mode = validate_rng_mode(rng_mode)
        self._reset_rng(seed)

    @property
    def rng_mode(self) -> str:
        """How per-edge rounding randomness is drawn ("sequential" or "counter")."""
        return self._rng_mode

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
        if self._rng_mode == "counter":
            self._counter_key = normalize_counter_seed(seed)
        else:
            self._rng = np.random.default_rng(seed)

    def _edge_amounts(self, magnitude: np.ndarray,
                      edges: np.ndarray) -> Optional[np.ndarray]:
        base = np.floor(magnitude)
        fraction = magnitude - base
        if self._rng_mode == "counter":
            draws = edge_scores(self._counter_key, self._round,
                                self.network.num_edges)[edges]
        else:
            draws = self._rng.random(magnitude.size)
        round_up = draws < fraction
        return (base + round_up).astype(np.int64)
