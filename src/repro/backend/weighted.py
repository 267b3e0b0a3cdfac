"""The array backend's columnar load state: run-length task queues.

:class:`WeightedRunState` is the one load state of the array backend.  It
stores, per node, a *run-length queue* of ``[count, weight, is_dummy]`` runs
— the object backend's task deque up to the identity of interchangeable
tasks — plus ``int64`` load and dummy-count vectors.  Unit tokens are its
``weight = 1`` case: the paper states Algorithm 1 for integer-weight tasks,
and identical unit tokens (Algorithm 2's model) are the special case
``w_max = 1``.

While every task shares one weight class and no dummy exists, queue order is
unobservable, so the queues stay *implicit*: each node's queue is the single
run ``[load // w, w, False]``, rebuilt only when a round needs it.  Building
a state from a count vector (:meth:`WeightedRunState.from_counts`) or from a
single-class :class:`~repro.tasks.weighted.WeightedLoads` therefore costs a
few numpy operations and no per-node Python objects — which is what keeps a
re-coupling of a million-token stream O(n) array work.

Only when weight classes mix or a node draws dummies from the infinite
source do the queues materialise; the per-round cost is then proportional
to the runs touched, never to the number of tasks ``W``.  The planning
helpers replay the pseudocode's greedy while-loop at run granularity with
the exact closed form :func:`_take_count`, so every count equals what the
object backend's one-task-at-a-time loop produces.  Because the paper's
task weights are integers, every weight, committed sum and load value is
exactly representable in float64.  The round that drives this state lives
in :mod:`repro.backend.flow`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.flow_imitation import TaskSelectionPolicy
from ..exceptions import TaskError
from ..tasks.assignment import TaskAssignment
from ..tasks.weighted import WeightedLoads, task_integer_weight

__all__ = ["WeightedRunState"]

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
    """Per-node task multisets with object-backend-faithful FIFO order.

    Every node holds a list of runs ``[count, weight, is_dummy]`` in queue
    order; tasks of equal weight and dummy status are interchangeable, so the
    run queue is exactly the object backend's task deque up to identity.

    While all tasks share a single weight class and no dummy exists
    (:attr:`single_class` is set), the queues may be implicit
    (``_queues is None``): each node's queue is then the single run
    ``[load // w, w, False]``, rebuilt on demand — which is what lets the
    scatter round skip queue maintenance altogether.  The maximum weight and
    the per-node real weight buckets are cached instead of being re-derived
    by scanning all queues per call.
    """

    def __init__(self, loads: np.ndarray, single_class: Optional[int],
                 max_weight: int, queues: Optional[List[List[Run]]] = None,
                 dummy_counts: Optional[np.ndarray] = None) -> None:
        self.loads = loads
        self.dummy_counts = (np.zeros(loads.size, dtype=np.int64)
                             if dummy_counts is None else dummy_counts)
        self._queues = queues
        self._single_class = single_class
        self._max_weight = max_weight
        self._buckets_cache: Optional[List[Dict[int, int]]] = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_counts(cls, counts: np.ndarray, weight: int = 1) -> "WeightedRunState":
        """``counts[i]`` tasks of one ``weight`` at node ``i``, queues implicit."""
        counts = np.asarray(counts)
        if counts.ndim != 1:
            raise TaskError("task counts must be a one-dimensional vector")
        if np.any(counts < 0):
            raise TaskError("task counts must be non-negative")
        loads = counts.astype(np.int64)
        if weight != 1:
            loads *= weight
        return cls(loads, weight, weight if loads.any() else 0)

    @classmethod
    def from_weighted_loads(cls, weighted: WeightedLoads) -> "WeightedRunState":
        """Canonical construction: one run per bucket, ascending weight.

        A single-class workload takes the implicit :meth:`from_counts` state.
        """
        weights = weighted.weights
        if weights.size == 0 or weights.min() == weights.max():
            weight = int(weights[0]) if weights.size else 1
            return cls.from_counts(weighted.load_vector() // weight, weight)
        return cls.from_queues([
            [[count, weight, False] for weight, count in weighted.node_buckets(node)]
            for node in range(weighted.num_nodes)
        ])

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
        return cls.from_queues(queues)

    @classmethod
    def from_queues(cls, queues: List[List[Run]]) -> "WeightedRunState":
        """Adopt explicit run queues, deriving the load vectors and caches."""
        loads = np.zeros(len(queues), dtype=np.int64)
        dummy_counts = np.zeros(len(queues), dtype=np.int64)
        max_weight = 0
        classes: set = set()
        any_dummy = False
        for node, queue in enumerate(queues):
            for count, weight, is_dummy in queue:
                loads[node] += count * weight
                if is_dummy:
                    dummy_counts[node] += count
                    any_dummy = True
                else:
                    classes.add(weight)
                if weight > max_weight:
                    max_weight = weight
        if any_dummy or len(classes) > 1:
            single_class: Optional[int] = None
        else:
            single_class = next(iter(classes)) if classes else 1
        return cls(loads, single_class, max_weight, queues, dummy_counts)

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

        With implicit queues the buckets are pure arithmetic on the load
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
                    residuals: List[float], counts: Optional[List[int]],
                    threshold: float, policy: str
                    ) -> List[Tuple[int, List[Run], int, int, int]]:
        """Plan every edge of one sender against its queue, in request order.

        ``positions`` indexes this sender's contiguous slice of the round's
        (sender-sorted) request arrays.  With ``counts`` (unit tokens) the
        request at ``pos`` sends ``counts[pos]`` tokens from the queue head;
        without, the tasks are picked against ``residuals[pos]`` by the
        pseudocode's while-loop under ``policy``.  Returns one
        ``(pos, takes, dummies, total_weight, tasks_moved)`` tuple per
        non-empty plan.  Grouping the per-edge planning by sender keeps the
        queue lookup and policy dispatch out of the per-edge hot loop.
        """
        plans: List[Tuple[int, List[Run], int, int, int]] = []
        for pos in positions:
            if counts is not None:
                send = counts[pos]
                takes = self.take_front(node, send)
                moved = sum(run[0] for run in takes)
                dummies = send - moved
                total = send  # every task (and dummy) has unit weight
            else:
                residual = residuals[pos]
                takes = self.plan_takes(node, residual, threshold, policy)
                dummies = self.planned_dummies(residual, threshold)
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

    def apply_moves(self, outgoing: np.ndarray, incoming: np.ndarray) -> None:
        """Scatter-round application: per-node weight out and in, no queues.

        Only legal with a single class when every sender covers its
        ``outgoing`` weight (the caller checks both): then every queue is a
        single all-real run whose length follows from the load, so the
        queues are dropped and rebuilt lazily instead of being maintained.
        """
        self.loads -= outgoing
        self.loads += incoming
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
