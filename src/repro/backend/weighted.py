"""Columnar weighted-task state and Algorithm 1 on weight buckets.

This module lifts the array backend's last restriction: weighted
:class:`~repro.tasks.assignment.TaskAssignment` workloads no longer fall
back to the object-per-task path.  The state (:class:`WeightedRunState`)
stores, per node, a *run-length queue* of ``[count, weight, is_dummy]``
runs — the weighted generalisation of the unit-token run queues in
:mod:`repro.backend.state` — plus int64 load and dummy-count vectors, all
derived from the CSR weight buckets of
:class:`~repro.tasks.weighted.WeightedLoads`.

:class:`ArrayWeightedDeterministicFlowImitation` runs the paper's Algorithm 1
on this state.  Per round it computes the per-edge residual flows and orders
the requests exactly like the object backend (senders ascending, receivers
ascending within a sender), then executes one of two kernels:

* **Single-weight-class fast path** — while every task in the system shares
  one weight ``w`` and no dummy exists, queue order is unobservable (all
  tasks are interchangeable), so the round collapses to the unit-token
  scatter-add kernel scaled by ``w``: the per-edge send count is
  ``floor(residual)`` for unit tokens and the closed form of the pseudocode's
  greedy while-loop (:func:`_take_counts_vector`) for ``w > 1``, and — as
  long as every sender covers its plans with its own tasks — the transfers
  reduce to two scatter-adds on the load vector.  No Python loop over edges
  remains; the run queues stay implicit (a single run per node) and are only
  materialised again on demand.

* **Grouped-per-sender general path** — once weight classes mix or dummies
  exist, queue order matters and the plans are replayed per *run* instead of
  per task: the active edges are grouped by sender and each group is planned
  in one :meth:`WeightedRunState.plan_sender` call that walks the sender's
  queue with the exact closed form

      ``k = |{ i >= 0 : residual - (committed + i * w) > w_max + 1e-9 }|``

  (:func:`_take_count`), evaluating the float comparison at the boundaries so
  the count is exactly what the object backend's one-task-at-a-time loop
  would produce.  Deliveries are applied in plan order (the FIFO contract)
  while the cumulative-flow and report bookkeeping is batched with numpy.

Because the paper's task weights are integers, every weight, committed sum
and load value is exactly representable in float64, and the two backends
agree bit for bit on loads, cumulative flows and dummy distributions
(enforced by ``tests/backend/test_weighted_equivalence.py``).

The per-round cost is O(m) array work on the fast path and
O(m + runs touched) on the general path — independent of the number of
tasks ``W`` — versus the object backend's O(W) queue snapshots and per-task
moves, which is what makes 10^5-task weighted dynamic streams feasible.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..continuous.base import ContinuousProcess
from ..core.algorithm1 import theorem3_discrepancy_bound
from ..core.flow_imitation import FlowCoupledBalancer, RoundReport, TaskSelectionPolicy
from ..exceptions import ProcessError, TaskError
from ..obs.kernels import kernel_phase
from ..tasks.assignment import TaskAssignment
from ..tasks.load import as_token_counts
from ..tasks.weighted import WeightedLoads, task_integer_weight

__all__ = ["WeightedRunState", "ArrayWeightedDeterministicFlowImitation"]

#: A run of consecutive queue positions holding interchangeable tasks.
#: Mutable on purpose: partial takes shrink the run in place.
Run = List  # [count: int, weight: int, is_dummy: bool]

#: Effectively unbounded cap for dummy draws from the infinite source.
_NO_CAP = 1 << 62


def _take_count(residual: float, committed: float, weight: float,
                cap: int, threshold: float) -> int:
    """How many tasks of ``weight`` the pseudocode's while-loop takes.

    Replays ``while residual - committed > threshold: committed += weight``
    in closed form: an arithmetic estimate followed by boundary fix-ups that
    evaluate the *same float comparison* the scalar loop evaluates, so the
    count matches the object backend exactly even at rounding boundaries.
    """
    if cap <= 0 or not residual - committed > threshold:
        return 0
    estimate = int((residual - threshold - committed) / weight) + 1
    k = min(cap, max(1, estimate))
    while k > 1 and not residual - (committed + (k - 1) * weight) > threshold:
        k -= 1
    while k < cap and residual - (committed + k * weight) > threshold:
        k += 1
    return k


def _take_counts_vector(residual: np.ndarray, weight: float,
                        threshold: float) -> np.ndarray:
    """Uncapped :func:`_take_count` (``committed = 0``) for a residual vector.

    The arithmetic estimate and both boundary fix-up loops evaluate the same
    float64 comparisons as the scalar closed form, element-wise, so the
    vectorised counts are bit-identical to calling :func:`_take_count` per
    edge.  The fix-up loops run until no element needs adjusting (one pass in
    all but pathological rounding cases).
    """
    counts = np.zeros(residual.size, dtype=np.int64)
    active = residual > threshold
    if not np.any(active):
        return counts
    taking = residual[active]
    k = ((taking - threshold) / weight).astype(np.int64) + 1
    np.maximum(k, 1, out=k)
    while True:
        over = (k > 1) & ~(taking - (k - 1) * weight > threshold)
        if not np.any(over):
            break
        k[over] -= 1
    while True:
        under = taking - k * weight > threshold
        if not np.any(under):
            break
        k[under] += 1
    counts[active] = k
    return counts


class WeightedRunState:
    """Per-node weighted task multisets with object-backend-faithful FIFO order.

    Every node holds a list of runs ``[count, weight, is_dummy]`` in queue
    order; tasks of equal weight and dummy status are interchangeable, so the
    run queue is exactly the object backend's task deque up to identity.

    While all tasks share a single weight class and no dummy exists, the
    queues may be dropped entirely (``single_class`` mode): each node's queue
    is then the implicit single run ``[load // w, w, False]``, rebuilt on
    demand — which is what lets the fast-path round skip queue maintenance
    altogether.  The maximum run weight and the per-node real weight buckets
    are cached instead of being re-derived by scanning all queues per call.
    """

    def __init__(self, queues: List[List[Run]], num_nodes: int) -> None:
        self._queues: Optional[List[List[Run]]] = queues
        self.loads = np.zeros(num_nodes, dtype=np.int64)
        self.dummy_counts = np.zeros(num_nodes, dtype=np.int64)
        max_weight = 0
        classes: set = set()
        any_dummy = False
        for node, queue in enumerate(queues):
            for count, weight, is_dummy in queue:
                self.loads[node] += count * weight
                if is_dummy:
                    self.dummy_counts[node] += count
                    any_dummy = True
                else:
                    classes.add(weight)
                if weight > max_weight:
                    max_weight = weight
        self._max_weight = max_weight
        if any_dummy or len(classes) > 1:
            self._single_class: Optional[int] = None
        else:
            self._single_class = next(iter(classes)) if classes else 1
        self._buckets_cache: Optional[List[Dict[int, int]]] = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_weighted_loads(cls, weighted: WeightedLoads) -> "WeightedRunState":
        """Canonical construction: one run per bucket, ascending weight."""
        queues = [
            [[count, weight, False] for weight, count in weighted.node_buckets(node)]
            for node in range(weighted.num_nodes)
        ]
        return cls(queues, weighted.num_nodes)

    @classmethod
    def from_assignment(cls, assignment: TaskAssignment) -> "WeightedRunState":
        """Snapshot an assignment preserving its actual queue order."""
        queues: List[List[Run]] = []
        for node in assignment.network.nodes:
            queue: List[Run] = []
            for task in assignment.tasks_at(node):
                weight = task_integer_weight(task)
                if weight is None:
                    raise TaskError(
                        f"task {task.task_id} has non-integer weight {task.weight}; "
                        "the columnar weighted backend requires integer weights")
                if queue and queue[-1][1] == weight and queue[-1][2] == task.is_dummy:
                    queue[-1][0] += 1
                else:
                    queue.append([1, weight, task.is_dummy])
            queues.append(queue)
        return cls(queues, assignment.network.num_nodes)

    # ------------------------------------------------------------------ #
    # cache/queue lifecycle
    # ------------------------------------------------------------------ #

    def _touch(self) -> None:
        """Invalidate derived caches after any mutation of the task state."""
        self._buckets_cache = None

    def _ensure_queues(self) -> List[List[Run]]:
        """Materialise the run queues from the implicit single-class state."""
        if self._queues is None:
            w = self._single_class
            self._queues = [
                [[int(load) // w, w, False]] if load else []
                for load in self.loads.tolist()
            ]
        return self._queues

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def load_vector(self, include_dummies: bool = True) -> np.ndarray:
        """The float load vector (dummy tasks always have unit weight)."""
        if include_dummies:
            return self.loads.astype(float)
        return (self.loads - self.dummy_counts).astype(float)

    @property
    def max_run_weight(self) -> int:
        """Maximum task weight currently present (0 when empty), cached.

        Maintained incrementally: balancing moves tasks but never creates
        weights (dummies are unit weight), so the cache only needs updating
        on deliveries and after dummy elimination.
        """
        return self._max_weight

    def max_weight(self) -> int:
        """Maximum task weight currently present (0 when empty)."""
        return self._max_weight

    @property
    def single_class(self) -> Optional[int]:
        """The one weight class every task shares (``None`` once classes mix
        or any dummy exists; ``1`` for an empty workload)."""
        return self._single_class

    def real_buckets(self) -> List[Dict[int, int]]:
        """Per-node ``{weight: count}`` of the real (non-dummy) tasks.

        In single-class mode the buckets are pure arithmetic on the load
        vector; otherwise the queue scan is cached until the next mutation.
        """
        if self._buckets_cache is None:
            if self._queues is None:
                w = self._single_class
                self._buckets_cache = [
                    {w: int(load) // w} if load else {}
                    for load in self.loads.tolist()
                ]
            else:
                buckets: List[Dict[int, int]] = []
                for queue in self._queues:
                    bucket: Dict[int, int] = {}
                    for count, weight, is_dummy in queue:
                        if not is_dummy:
                            bucket[weight] = bucket.get(weight, 0) + count
                    buckets.append(bucket)
                self._buckets_cache = buckets
        return [dict(bucket) for bucket in self._buckets_cache]

    # ------------------------------------------------------------------ #
    # planning (mutates the source queue, as the plans own the tasks)
    # ------------------------------------------------------------------ #

    def plan_sender(self, node: int, positions: Iterable[int],
                    magnitudes: List[float], threshold: float, policy: str,
                    unit_tokens: bool) -> List[Tuple[int, List[Run], int, int, int]]:
        """Plan every edge of one sender against its queue, in request order.

        ``positions`` indexes this sender's contiguous slice of the round's
        (sender-sorted) request arrays; ``magnitudes[pos]`` is the residual of
        the request at ``pos``.  Returns one
        ``(pos, takes, dummies, total_weight, tasks_moved)`` tuple per
        non-empty plan.  Grouping the per-edge planning by sender keeps the
        queue lookup and policy dispatch out of the per-edge hot loop.
        """
        plans: List[Tuple[int, List[Run], int, int, int]] = []
        for pos in positions:
            amount = magnitudes[pos]
            if unit_tokens:
                send = int(math.floor(amount + 1e-9))
                if send <= 0:
                    continue
                takes = self.take_front(node, send)
                moved = sum(run[0] for run in takes)
                dummies = send - moved
                total = send  # every task (and dummy) has unit weight
            else:
                takes = self.plan_takes(node, amount, threshold, policy)
                dummies = self.planned_dummies(amount, threshold)
                moved = sum(run[0] for run in takes)
                total = sum(run[0] * run[1] for run in takes) + dummies
            if moved or dummies:
                plans.append((pos, takes, dummies, total, moved))
        return plans

    def plan_takes(self, node: int, residual: float, threshold: float,
                   policy: str) -> List[Run]:
        """Select the tasks ``node`` commits to one edge this round.

        Implements the pseudocode's ``while residual - committed > w_max``
        loop at run granularity for the given selection policy, removing the
        selected tasks from the node's queue and returning them as runs in
        selection order.  Dummy draws from the infinite source are *not*
        included — the caller batches them separately via :func:`_take_count`
        on the final committed value (see :meth:`planned_dummies`).
        """
        queue = self._ensure_queues()[node]
        takes: List[Run] = []
        committed = 0.0
        while queue and residual - committed > threshold:
            if policy == TaskSelectionPolicy.FIFO:
                index = 0
            else:
                weights = [run[1] for run in queue]
                target = max(weights) if policy == TaskSelectionPolicy.LARGEST_FIRST \
                    else min(weights)
                index = next(i for i, run in enumerate(queue) if run[1] == target)
            run = queue[index]
            k = _take_count(residual, committed, float(run[1]), run[0], threshold)
            self._remove_from_run(node, queue, index, k)
            if takes and takes[-1][1] == run[1] and takes[-1][2] == run[2]:
                takes[-1][0] += k
            else:
                takes.append([k, run[1], run[2]])
            committed += k * float(run[1])
        self._planned_committed = committed
        return takes

    def planned_dummies(self, residual: float, threshold: float) -> int:
        """Dummy tokens the last :meth:`plan_takes` call must draw (weight 1)."""
        return _take_count(residual, self._planned_committed, 1.0, _NO_CAP, threshold)

    def take_front(self, node: int, amount: int) -> List[Run]:
        """Unit-token FIFO path: pop up to ``amount`` tasks from the head."""
        queue = self._ensure_queues()[node]
        takes: List[Run] = []
        need = amount
        while need and queue:
            run = queue[0]
            k = min(run[0], need)
            self._remove_from_run(node, queue, 0, k)
            if takes and takes[-1][1] == run[1] and takes[-1][2] == run[2]:
                takes[-1][0] += k
            else:
                takes.append([k, run[1], run[2]])
            need -= k
        return takes

    def _remove_from_run(self, node: int, queue: List[Run], index: int, k: int) -> None:
        run = queue[index]
        self.loads[node] -= k * run[1]
        if run[2]:
            self.dummy_counts[node] -= k
        if k == run[0]:
            queue.pop(index)
            if 0 < index < len(queue) and queue[index - 1][1] == queue[index][1] \
                    and queue[index - 1][2] == queue[index][2]:
                queue[index - 1][0] += queue.pop(index)[0]
        else:
            run[0] -= k
        self._touch()

    # ------------------------------------------------------------------ #
    # delivery
    # ------------------------------------------------------------------ #

    def deliver(self, node: int, takes: List[Run]) -> None:
        """Append taken runs to the tail of ``node``'s queue (order preserved)."""
        queue = self._ensure_queues()[node]
        for count, weight, is_dummy in takes:
            if queue and queue[-1][1] == weight and queue[-1][2] == is_dummy:
                queue[-1][0] += count
            else:
                queue.append([count, weight, is_dummy])
            self.loads[node] += count * weight
            if is_dummy:
                self.dummy_counts[node] += count
                self._single_class = None
            elif self._single_class is not None and weight != self._single_class:
                self._single_class = None
            if weight > self._max_weight:
                self._max_weight = weight
        self._touch()

    def deliver_dummies(self, node: int, count: int) -> None:
        """Create ``count`` fresh unit-weight dummies at the tail of the queue."""
        if count:
            self.deliver(node, [[count, 1, True]])

    def apply_single_class_moves(self, outgoing_tasks: np.ndarray,
                                 incoming_tasks: np.ndarray) -> None:
        """Fast-path round application: scatter-added task counts, no queues.

        Only legal in single-class mode when every sender covers its outgoing
        tasks (the caller checks both): then every queue is a single all-real
        run whose length follows from the load, so the queues are dropped and
        rebuilt lazily instead of being maintained.
        """
        w = self._single_class
        self.loads += (incoming_tasks - outgoing_tasks) * w
        self._queues = None
        self._touch()

    # ------------------------------------------------------------------ #
    # dummy elimination
    # ------------------------------------------------------------------ #

    def remove_dummies(self) -> int:
        """Drop every dummy task (the paper's final clean-up step).

        A no-op on clean queues: only the queues of nodes that actually hold
        dummies are compacted, the rest are left untouched.
        """
        removed = int(self.dummy_counts.sum())
        if removed:
            queues = self._ensure_queues()
            for node in np.flatnonzero(self.dummy_counts).tolist():
                queues[node] = [run for run in queues[node] if not run[2]]
            self.loads -= self.dummy_counts
            self.dummy_counts[:] = 0
            self._touch()
            # Dummies are unit weight, so only an all-unit maximum (or the
            # single-class invariant) can change; recompute in that rare case.
            if self._max_weight <= 1:
                self._max_weight = max(
                    (run[1] for queue in queues for run in queue), default=0)
            classes = {run[1] for queue in queues for run in queue}
            self._single_class = (next(iter(classes)) if len(classes) == 1
                                  else 1 if not classes else None)
        return removed


class ArrayWeightedDeterministicFlowImitation(FlowCoupledBalancer):
    """Algorithm 1 over columnar weight buckets (integer task weights only).

    Parameters
    ----------
    continuous:
        The continuous process ``A`` to imitate (fresh, round 0, starting
        from the workload's load vector).
    workload:
        A :class:`WeightedLoads` (canonical ascending-weight queue order) or
        a :class:`TaskAssignment` whose queue order is preserved.
    selection_policy:
        How the pseudocode's "arbitrary" task is chosen; one of
        :class:`TaskSelectionPolicy`.
    """

    def __init__(
        self,
        continuous: ContinuousProcess,
        workload: Union[WeightedLoads, TaskAssignment],
        selection_policy: str = TaskSelectionPolicy.FIFO,
    ) -> None:
        if selection_policy not in TaskSelectionPolicy.ALL:
            raise ProcessError(
                f"unknown selection policy {selection_policy!r}; "
                f"valid policies: {TaskSelectionPolicy.ALL}")
        network = continuous.network
        if isinstance(workload, TaskAssignment):
            if workload.network is not network:
                raise ProcessError(
                    "the task assignment and the continuous process must share the same network"
                )
            state = WeightedRunState.from_assignment(workload)
        else:
            if workload.num_nodes != network.num_nodes:
                raise ProcessError(
                    f"workload spans {workload.num_nodes} nodes, "
                    f"network has {network.num_nodes}")
            state = WeightedRunState.from_weighted_loads(workload)
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

    def discrepancy_bound(self) -> float:
        """The Theorem 3 bound ``2 d w_max + 2`` for this instance."""
        return theorem3_discrepancy_bound(self.network.max_degree, self.w_max)

    def loads(self, include_dummies: bool = True) -> np.ndarray:
        """Return the current discrete load vector."""
        return self._state.load_vector(include_dummies=include_dummies)

    def dummy_loads(self) -> np.ndarray:
        """Return the per-node total weight of dummy tasks (as floats)."""
        return self._state.dummy_counts.astype(float)

    def real_weight_buckets(self) -> List[Dict[int, int]]:
        """Per-node ``{weight: count}`` of the real tasks (for streaming sync)."""
        return self._state.real_buckets()

    def remove_dummies(self) -> float:
        """Eliminate all dummy tasks (the final step of the balancing process)."""
        return float(self._state.remove_dummies())

    # ------------------------------------------------------------------ #
    # re-coupling
    # ------------------------------------------------------------------ #

    def _reset_workload(self, workload) -> None:
        if isinstance(workload, WeightedLoads):
            self._state = WeightedRunState.from_weighted_loads(workload)
        else:
            counts = as_token_counts(workload, self.network, error=ProcessError)
            self._state = WeightedRunState.from_weighted_loads(
                WeightedLoads.from_unit_counts(counts))
        self._unit_tokens_only = self._state.max_weight() <= 1

    # ------------------------------------------------------------------ #
    # the round
    # ------------------------------------------------------------------ #

    def _execute_round(self) -> None:
        with kernel_phase("continuous/advance"):
            self._continuous.advance()
        with kernel_phase("flow/weighted-round"):
            self._imitate_round()

    def _imitate_round(self) -> None:
        residual = self._continuous.cumulative_flows - self._discrete_cumulative
        # Orient each active edge from its sender and order the requests the
        # way the object backend iterates them: by sender, then by receiver.
        active, forward, senders, receivers = self.network.active_directed_edges(residual)
        if active.size == 0:
            self._reports.append(RoundReport(self._round, 0, 0, 0.0, 0))
            return
        magnitude = np.abs(residual[active])

        if not self._single_class_round(active, forward, senders, receivers,
                                        magnitude):
            self._general_round(active, forward, senders, receivers, magnitude)

    def _single_class_round(self, active: np.ndarray, forward: np.ndarray,
                            senders: np.ndarray, receivers: np.ndarray,
                            magnitude: np.ndarray) -> bool:
        """The fully vectorised round for a single global weight class.

        With one weight class and no dummies, every per-edge plan is a pure
        function of the residual (floor for unit tokens, the closed-form
        greedy count otherwise) and queue order is unobservable; if every
        sender also covers its plans with its own tasks, the transfers reduce
        to two scatter-adds.  Returns ``False`` — leaving the state untouched
        — when these conditions do not hold, so the queue-faithful general
        path can replay the round instead.
        """
        state = self._state
        w = state.single_class
        if w is None:
            return False
        if self._unit_tokens_only:
            amounts = np.floor(magnitude + 1e-9).astype(np.int64)
        else:
            amounts = _take_counts_vector(magnitude, float(w), self._w_max + 1e-9)
        moving = np.flatnonzero(amounts > 0)
        transfers = int(moving.size)
        if transfers == 0:
            self._reports.append(RoundReport(self._round, 0, 0, 0.0, 0))
            return True
        amounts = amounts[moving]
        n = self.network.num_nodes
        outgoing = np.zeros(n, dtype=np.int64)
        np.add.at(outgoing, senders[moving], amounts)
        if np.any(outgoing * w > state.loads):
            return False  # some sender would need the infinite source
        incoming = np.zeros(n, dtype=np.int64)
        np.add.at(incoming, receivers[moving], amounts)
        state.apply_single_class_moves(outgoing, incoming)

        moved_weight = amounts * w
        signed = np.where(forward[moving], moved_weight, -moved_weight).astype(float)
        self._discrete_cumulative[active[moving]] += signed
        self._reports.append(
            RoundReport(
                round_index=self._round,
                transfers=transfers,
                tasks_moved=int(amounts.sum()),
                weight_moved=float(moved_weight.sum()),
                dummy_tokens_created=0,
            )
        )
        return True

    def _general_round(self, active: np.ndarray, forward: np.ndarray,
                       senders: np.ndarray, receivers: np.ndarray,
                       magnitude: np.ndarray) -> None:
        """The queue-faithful path: per-sender grouped planning, FIFO deliveries."""
        senders_list = senders.tolist()
        receivers_list = receivers.tolist()
        magnitudes = magnitude.tolist()
        threshold = self._w_max + 1e-9
        state = self._state

        starts = np.r_[0, np.flatnonzero(np.diff(senders)) + 1, senders.size]
        plans: List[Tuple[int, List[Run], int, int, int]] = []
        for group in range(starts.size - 1):
            begin = int(starts[group])
            plans.extend(state.plan_sender(
                senders_list[begin], range(begin, int(starts[group + 1])),
                magnitudes, threshold, self._policy, self._unit_tokens_only))

        if not plans:
            self._reports.append(RoundReport(self._round, 0, 0, 0.0, 0))
            return
        tasks_moved = 0
        dummies_this_round = 0
        for pos, takes, dummies, _total, moved in plans:
            state.deliver(receivers_list[pos], takes)
            state.deliver_dummies(receivers_list[pos], dummies)
            tasks_moved += moved
            dummies_this_round += dummies

        positions = np.fromiter((plan[0] for plan in plans), dtype=np.int64,
                                count=len(plans))
        totals = np.fromiter((plan[3] for plan in plans), dtype=np.int64,
                             count=len(plans))
        signed = np.where(forward[positions], totals, -totals).astype(float)
        self._discrete_cumulative[active[positions]] += signed

        if dummies_this_round:
            self._used_infinite_source = True
            self._dummy_tokens_created += dummies_this_round
        self._reports.append(
            RoundReport(
                round_index=self._round,
                transfers=len(plans),
                tasks_moved=tasks_moved,
                weight_moved=float(totals.sum()),
                dummy_tokens_created=dummies_this_round,
            )
        )
