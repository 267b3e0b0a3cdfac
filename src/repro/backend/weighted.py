"""The array backend's load state: flat, canonical run arrays.

:class:`WeightedRunState` is the one load state of the array backend.  Every
node's task queue is a slice of three flat arrays — ``run_count``,
``run_weight`` and ``run_dummy`` — stored in ``(node, queue position)``
order with per-node CSR ``run_offsets``.  A run is a maximal block of
interchangeable tasks, so the arrays are the object backend's task deques up
to task identity.  They are kept *canonical*: no run is empty and no two
adjacent runs of a node share weight and dummy flag.  Unit tokens are the
``weight = 1`` case: the paper states Algorithm 1 for integer-weight tasks,
and identical unit tokens (Algorithm 2's model) are the case ``w_max = 1``.

While every task shares one weight class and no dummy exists, the canonical
layout is one run per non-empty node, so it is not stored: :meth:`runs`
derives it from the ``int64`` load vector.  Building a state from a count
vector or a single-class :class:`~repro.tasks.weighted.WeightedLoads`
therefore costs a few numpy operations, which keeps re-coupling a
million-token stream O(n) array work.

:meth:`WeightedRunState.transfer` moves one round's tasks, requested in any
order.  With one class, no dummy and every sender covering its sends, queue
order is unobservable and two scatter-adds apply the round.  Otherwise the
requests are put in ``(sender, receiver)`` planning order and each is
planned against the start-of-round queues — unit counts for all senders at
once by :func:`numpy.searchsorted`, weighted residuals by replaying the
pseudocode's greedy while-loop at run granularity with the exact closed
form :func:`_take_count` — and the taken runs are appended to the receivers'
queues in plan order.  Because the paper's task weights are integers, every
weight, committed sum and load value is exactly representable in float64.
The round that drives this state lives in :mod:`repro.backend.flow`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.flow_imitation import TaskSelectionPolicy
from ..exceptions import TaskError
from ..tasks.assignment import TaskAssignment
from ..tasks.weighted import WeightedLoads, task_integer_weight

__all__ = ["WeightedRunState"]

#: ``(run_count, run_weight, run_dummy, run_offsets)``.
Runs = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

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


def _run_nodes(offsets: np.ndarray) -> np.ndarray:
    """The node of every run of a CSR layout."""
    return np.repeat(np.arange(offsets.size - 1), np.diff(offsets))


def _per_node(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Exact ``int64`` per-node sums of per-run ``values``."""
    cumulative = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=cumulative[1:])
    return cumulative[offsets[1:]] - cumulative[offsets[:-1]]


def _plan_counts(runs: Runs, senders: np.ndarray, counts: np.ndarray):
    """Plan unit-count requests for every sender at once.

    A sender's requests take consecutive stretches of its queue from the
    head; in global task positions (all queues laid end to end) request
    ``r`` takes ``[lo[r], hi[r])``, clipped to the queue, and draws the
    shortfall as dummies.  Returns the runs' remaining counts, the taken
    segments ``(request, count, weight, dummy)`` and the dummy total.
    """
    run_count, run_weight, run_dummy, offsets = runs
    ends = np.cumsum(run_count)
    bounds = np.concatenate(([0], ends))[offsets]
    head, available = bounds[senders], np.diff(bounds)[senders]
    cumulative = np.cumsum(counts)
    first = np.r_[True, senders[1:] != senders[:-1]]
    before = (cumulative - counts)[first][np.cumsum(first) - 1]
    lo = head + np.minimum(cumulative - counts - before, available)
    hi = head + np.minimum(cumulative - before, available)
    # The runs each request overlaps, one segment per (request, run).
    first_run = np.searchsorted(ends, lo, side="right")
    spans = np.where(hi > lo, np.searchsorted(ends, hi - 1, side="right")
                     - first_run + 1, 0)
    request = np.repeat(np.arange(senders.size), spans)
    run = (first_run[request] + np.arange(request.size)
           - np.repeat(np.cumsum(spans) - spans, spans))
    starts = ends - run_count
    moved = (np.minimum(hi[request], ends[run])
             - np.maximum(lo[request], starts[run]))
    # Each sender loses the head of its queue up to its last request.
    last = np.r_[senders[1:] != senders[:-1], True]
    cut = bounds[:-1].copy()
    cut[senders[last]] = hi[last]
    left = run_count - np.clip(cut[_run_nodes(offsets)] - starts, 0, run_count)
    shortfall = counts - (hi - lo)
    short = np.flatnonzero(shortfall)
    taken = (np.concatenate((request, short)),
             np.concatenate((moved, shortfall[short])),
             np.concatenate((run_weight[run], np.ones(short.size, dtype=np.int64))),
             np.concatenate((run_dummy[run], np.ones(short.size, dtype=bool))))
    return left, taken, int(shortfall.sum())


def _plan_greedy(runs: Runs, senders: np.ndarray, residuals: np.ndarray,
                 threshold: float, policy: str):
    """Replay the pseudocode's while-loop per request over its sender's runs.

    Same return value as :func:`_plan_counts`.
    """
    run_count, run_weight, run_dummy, offsets = runs
    left = run_count.tolist()
    weights = run_weight.tolist()
    dummies = run_dummy.tolist()
    bounds = offsets.tolist()
    pick = max if policy == TaskSelectionPolicy.LARGEST_FIRST else min
    taken: List[Tuple[int, int, int, bool]] = []
    created = 0
    sender = -1
    # A request whose residual is within the threshold takes nothing.
    asking = np.flatnonzero(residuals > threshold)
    for position, node, residual in zip(asking.tolist(), senders[asking].tolist(),
                                        residuals[asking].tolist()):
        if node != sender:
            sender = node
            held = list(range(bounds[node], bounds[node + 1]))
        committed = 0.0
        while held and residual - committed > threshold:
            slot = 0
            if policy != TaskSelectionPolicy.FIFO:
                held_weights = [weights[index] for index in held]
                slot = held_weights.index(pick(held_weights))
            index = held[slot]
            weight = weights[index]
            k = _take_count(residual, committed, float(weight), left[index], threshold)
            left[index] -= k
            if not left[index]:
                del held[slot]
            taken.append((position, k, weight, dummies[index]))
            committed += k * float(weight)
        if residual - committed > threshold:
            drawn = _take_count(residual, committed, 1.0, _NO_CAP, threshold)
            taken.append((position, drawn, 1, True))
            created += drawn
    request, moved, moved_weight, moved_dummy = np.array(
        taken, dtype=np.int64).reshape(-1, 4).T
    return (np.array(left, dtype=np.int64),
            (request, moved, moved_weight, moved_dummy.astype(bool)), created)


class WeightedRunState:
    """Per-node task queues as flat run arrays, in the object backend's order.

    :attr:`loads` and :attr:`dummy_counts` are the per-node ``int64`` load
    and dummy-count vectors; :meth:`runs` gives the queues.  The run arrays
    are stored only while weight classes mix or a dummy exists; a
    single-class state (:attr:`single_class`) is its load vector.
    """

    def __init__(self, loads: np.ndarray, single_class: int) -> None:
        """A single-class state: ``loads[i] // single_class`` tasks at node ``i``."""
        self.loads = loads
        self.dummy_counts = np.zeros(loads.size, dtype=np.int64)
        self._single_class: Optional[int] = single_class
        self._runs: Optional[Runs] = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_counts(cls, counts: np.ndarray, weight: int = 1) -> "WeightedRunState":
        """``counts[i]`` tasks of one ``weight`` at node ``i``."""
        counts = np.asarray(counts)
        if counts.ndim != 1:
            raise TaskError("task counts must be a one-dimensional vector")
        if np.any(counts < 0):
            raise TaskError("task counts must be non-negative")
        loads = counts.astype(np.int64)
        if not np.array_equal(loads, counts):
            raise TaskError("task counts must be integers")
        if weight < 1 or int(weight) != weight:
            raise TaskError(f"task weight must be a positive integer, got {weight}")
        loads *= int(weight)
        return cls(loads, int(weight) if loads.any() else 1)

    @classmethod
    def from_weighted_loads(cls, weighted: WeightedLoads) -> "WeightedRunState":
        """Canonical construction: one run per bucket, ascending weight."""
        state = cls(np.zeros(weighted.num_nodes, dtype=np.int64), 1)
        state._adopt(_run_nodes(weighted.offsets), weighted.counts,
                     weighted.weights, np.zeros(weighted.counts.size, dtype=bool))
        return state

    @classmethod
    def from_assignment(cls, assignment: TaskAssignment) -> "WeightedRunState":
        """Snapshot an assignment preserving its actual queue order."""
        nodes: List[int] = []
        weights: List[int] = []
        dummies: List[bool] = []
        for node in assignment.network.nodes:
            for task in assignment.tasks_at(node):
                weight = task_integer_weight(task)
                if weight is None:
                    raise TaskError(
                        f"task {task.task_id} has non-integer weight {task.weight}; "
                        "the columnar weighted backend requires integer weights")
                nodes.append(node)
                weights.append(weight)
                dummies.append(task.is_dummy)
        state = cls(np.zeros(assignment.network.num_nodes, dtype=np.int64), 1)
        state._adopt(np.array(nodes, dtype=np.int64), np.ones(len(nodes), dtype=np.int64),
                     np.array(weights, dtype=np.int64), np.array(dummies, dtype=bool))
        return state

    def _adopt(self, node: np.ndarray, count: np.ndarray, weight: np.ndarray,
               dummy: np.ndarray) -> None:
        """Replace the state by runs listed in ``(node, queue position)`` order.

        Drops empty runs, merges adjacent equal ones and derives the load
        vectors; a state left with one weight class and no dummy keeps only
        its load vector.
        """
        keep = count > 0
        node, count, weight, dummy = node[keep], count[keep], weight[keep], dummy[keep]
        if count.size:
            head = np.ones(count.size, dtype=bool)
            head[1:] = ((node[1:] != node[:-1]) | (weight[1:] != weight[:-1])
                        | (dummy[1:] != dummy[:-1]))
            starts = np.flatnonzero(head)
            count = np.add.reduceat(count, starts)
            node, weight, dummy = node[starts], weight[starts], dummy[starts]
        offsets = np.zeros(self.loads.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(node, minlength=self.loads.size), out=offsets[1:])
        self.loads = _per_node(count * weight, offsets)
        self.dummy_counts = _per_node(count * dummy, offsets)
        if dummy.any() or (weight.size and weight.min() != weight.max()):
            self._single_class = None
            self._runs = (count, weight, dummy, offsets)
        else:
            self._single_class = int(weight[0]) if weight.size else 1
            self._runs = None

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def runs(self) -> Runs:
        """``(run_count, run_weight, run_dummy, run_offsets)`` of every queue."""
        if self._runs is not None:
            return self._runs
        occupied = self.loads > 0
        count = self.loads[occupied] // self._single_class
        offsets = np.zeros(self.loads.size + 1, dtype=np.int64)
        np.cumsum(occupied, out=offsets[1:])
        return (count, np.full(count.size, self._single_class, dtype=np.int64),
                np.zeros(count.size, dtype=bool), offsets)

    def load_vector(self, include_dummies: bool = True) -> np.ndarray:
        """The float load vector (dummy tasks always have unit weight)."""
        if include_dummies:
            return self.loads.astype(float)
        return (self.loads - self.dummy_counts).astype(float)

    def max_weight(self) -> int:
        """Maximum task weight currently present (0 when empty)."""
        if self._runs is None:
            return self._single_class if self.loads.any() else 0
        return int(self._runs[1].max())

    @property
    def single_class(self) -> Optional[int]:
        """The one weight class every task shares (``None`` once classes mix
        or any dummy exists; ``1`` for an empty workload)."""
        return self._single_class

    def real_counts(self, weights: np.ndarray) -> np.ndarray:
        """Real tasks per node and ascending weight class, as a fresh int64 matrix;
        a single-class state divides its load vector and stores no runs."""
        counts = np.zeros((self.loads.size, len(weights)), dtype=np.int64)
        if self._runs is None:
            w = self._single_class
            counts[:, np.searchsorted(weights, w)] = self.loads // w
            return counts
        count, weight, dummy, offsets = self._runs
        real = ~dummy
        np.add.at(counts, (_run_nodes(offsets)[real], np.searchsorted(weights, weight[real])),
                  count[real])
        return counts

    # ------------------------------------------------------------------ #
    # the round
    # ------------------------------------------------------------------ #

    def transfer(self, senders: np.ndarray, receivers: np.ndarray,
                 amounts: np.ndarray, threshold: float, policy: str,
                 planning_order: Callable[[], np.ndarray]
                 ) -> Tuple[np.ndarray, int, int]:
        """Move one round's tasks; return ``(sent, tasks_moved, dummies)``.

        The requests may come in any order, one per distinct ``(sender,
        receiver)`` pair.  Integer ``amounts`` are unit-task counts; float
        ``amounts`` are residual flows, answered by the pseudocode's ``while
        residual - committed > threshold`` loop under the selection
        ``policy``.  ``sent`` is the weight each request moved, dummies
        included, in the caller's order; ``tasks_moved`` counts the tasks
        taken from queues and ``dummies`` the new ones.

        With one class, no dummy and every sender covering its sends, the
        order is unobservable and two scatter-adds apply the round.
        Otherwise the requests are put in planning order, by sender and then
        receiver, with the permutation ``planning_order()`` returns (the
        round passes :meth:`~repro.network.graph.Network.planning_order`,
        which sorts nothing).  Every request is planned against the
        start-of-round queues in that order, a shortfall is drawn as unit
        dummies, and the plans are delivered afterwards in the same order,
        each plan's dummies after its tasks.
        """
        if senders.size == 0:
            return np.zeros(0, dtype=np.int64), 0, 0
        unit = amounts.dtype.kind == "i"
        w = self._single_class
        if w is not None:
            counts = amounts if unit else _take_counts_vector(amounts, float(w), threshold)
            sent = counts * w if w != 1 else counts
            outgoing = np.zeros(self.loads.size, dtype=np.int64)
            np.add.at(outgoing, senders, sent)
            if np.all(outgoing <= self.loads):
                # One class, no dummy and every sender covers its sends:
                # queue order is unobservable, so only the loads change.
                incoming = np.zeros(self.loads.size, dtype=np.int64)
                np.add.at(incoming, receivers, sent)
                self.loads += incoming - outgoing
                return sent, int(counts.sum()), 0
        order = planning_order()
        senders, receivers, amounts = senders[order], receivers[order], amounts[order]
        runs = self.runs()
        if unit:
            left, taken, created = _plan_counts(runs, senders, amounts)
        else:
            left, taken, created = _plan_greedy(runs, senders, amounts, threshold, policy)
        count, weight, dummy, offsets = runs
        request, moved, moved_weight, moved_dummy = taken
        sent = np.zeros(senders.size, dtype=np.int64)
        np.add.at(sent, order[request], moved * moved_weight)
        # Every plan before any delivery: each receiver keeps what it did
        # not send, then gets the taken runs in plan order (stable sort).
        node = np.concatenate((_run_nodes(offsets), receivers[request]))
        position = np.concatenate((np.full(count.size, -1), request))
        order = np.lexsort((position, node))
        self._adopt(node[order], np.concatenate((left, moved))[order],
                    np.concatenate((weight, moved_weight))[order],
                    np.concatenate((dummy, moved_dummy))[order])
        return sent, int(moved.sum()) - created, created

    # ------------------------------------------------------------------ #
    # dummy elimination
    # ------------------------------------------------------------------ #

    def remove_dummies(self) -> int:
        """Drop every dummy task (the paper's final clean-up step)."""
        removed = int(self.dummy_counts.sum())
        if removed:
            count, weight, dummy, offsets = self._runs
            self._adopt(_run_nodes(offsets), np.where(dummy, 0, count), weight, dummy)
        return removed
