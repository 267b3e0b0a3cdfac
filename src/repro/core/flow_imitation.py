"""Shared machinery for the paper's flow-imitation discretizations.

Both Algorithm 1 (deterministic flow imitation, Section 4) and Algorithm 2
(randomized flow imitation, Section 5) follow the same template:

1. simulate the continuous process ``A`` in parallel (every node can do this
   locally because the continuous dynamics are deterministic given the shared
   matching schedule);
2. per edge ``(i, j)`` track the *residual flow*
   ``y^hat_{i,j}(t) = f^A_{i,j}(t) - f^{D(A)}_{i,j}(t-1)`` — how much the
   discrete process lags behind the continuous one;
3. move whole tasks so that the discrete flow catches up with the continuous
   flow as closely as the task granularity allows, drawing unit-weight dummy
   tasks from an *infinite source* when a node's own tasks do not suffice.

The residual bookkeeping does not care how the discrete workload is
represented, so it lives in :class:`FlowCoupledBalancer`, which two load
backends share (see :mod:`repro.backend`):

* :class:`FlowImitationBalancer` (this module) — the *object* backend: one
  Python :class:`~repro.tasks.task.Task` per token, held in a
  :class:`~repro.tasks.assignment.TaskAssignment`.  Required for
  non-integer task weights and for locality analyses that track task
  identity.
* :class:`~repro.backend.flow.ArrayFlowImitation` — the *array* backend:
  one columnar state (:class:`~repro.backend.weighted.WeightedRunState`)
  for unit tokens and integer-weight tasks alike, and one round for both
  algorithms.

The two algorithms differ only in how the target amount for a single edge and
round is derived from the residual; object-backend subclasses implement
:meth:`FlowImitationBalancer._plan_edge_send`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..continuous.base import BALANCE_TOLERANCE, ContinuousProcess
from ..discrete.base import DiscreteBalancer
from ..exceptions import ConvergenceError, ProcessError, TaskError
from ..obs.kernels import kernel_phase
from ..tasks.assignment import TaskAssignment
from ..tasks.load import as_token_counts
from ..tasks.task import Task, TaskFactory
from ..tasks.weighted import WeightedLoads

__all__ = [
    "EdgeSendPlan",
    "RoundReport",
    "FlowCoupledBalancer",
    "FlowImitationBalancer",
    "TaskSelectionPolicy",
]

#: Dummy tasks receive identifiers starting at this offset so they never clash
#: with identifiers of the original workload.
_DUMMY_ID_OFFSET = 10**12


class TaskSelectionPolicy:
    """Policies for choosing which "arbitrary" task to forward (Algorithm 1).

    The theorem holds for any choice; the policy only affects which concrete
    tasks travel, which matters for locality-style analyses.
    """

    FIFO = "fifo"
    LARGEST_FIRST = "largest-first"
    SMALLEST_FIRST = "smallest-first"

    ALL = (FIFO, LARGEST_FIRST, SMALLEST_FIRST)


@dataclass
class EdgeSendPlan:
    """A planned transfer over a single edge in a single round."""

    source: int
    destination: int
    tasks: List[Task] = field(default_factory=list)
    dummy_tokens: int = 0

    @property
    def weight(self) -> float:
        """Total weight that will be transferred (real tasks plus dummies)."""
        return sum(task.weight for task in self.tasks) + float(self.dummy_tokens)


@dataclass(frozen=True)
class RoundReport:
    """Statistics of one executed round of a flow-imitation process."""

    round_index: int
    transfers: int
    tasks_moved: int
    weight_moved: float
    dummy_tokens_created: int


class FlowCoupledBalancer(DiscreteBalancer):
    """Representation-agnostic base for processes coupled to a continuous one.

    Holds everything the flow-imitation template needs that does not depend
    on how tasks are stored: the continuous process, the per-edge cumulative
    discrete flow, the dummy-token counters and the per-round reports.
    Subclasses own the workload representation and must implement
    :meth:`loads`, :meth:`remove_dummies`, :meth:`_execute_round` and the
    re-coupling hooks.

    Parameters
    ----------
    continuous:
        The continuous process ``A`` to imitate.  It must be freshly
        constructed (round 0).  The balancer *owns* the process and advances
        it internally; callers should not advance it themselves.
    max_task_weight:
        The ``w_max`` used in the residual bookkeeping.
    original_weight:
        The total weight of the original workload (excluding any dummies).
    """

    def __init__(
        self,
        continuous: ContinuousProcess,
        max_task_weight: float,
        original_weight: float,
    ) -> None:
        super().__init__(continuous.network)
        if continuous.round_index != 0:
            raise ProcessError("the continuous process must not have been advanced yet")
        if max_task_weight <= 0:
            raise ProcessError("max_task_weight must be positive")
        self._continuous = continuous
        self._w_max = float(max_task_weight)
        self._original_weight = float(original_weight)
        self._discrete_cumulative = np.zeros(continuous.network.num_edges, dtype=float)
        self._dummy_tokens_created = 0
        self._used_infinite_source = False
        self._reports: List[RoundReport] = []

    # ------------------------------------------------------------------ #
    # state inspection
    # ------------------------------------------------------------------ #

    @property
    def continuous(self) -> ContinuousProcess:
        """The continuous process being imitated."""
        return self._continuous

    @property
    def w_max(self) -> float:
        """The maximum task weight ``w_max`` used in the residual bookkeeping."""
        return self._w_max

    @property
    def original_weight(self) -> float:
        """The total weight of the original workload (excluding any dummies)."""
        return self._original_weight

    @property
    def used_infinite_source(self) -> bool:
        """Whether any node ever had to draw dummy tasks from the infinite source."""
        return self._used_infinite_source

    @property
    def dummy_tokens_created(self) -> int:
        """The total number of dummy tokens created so far."""
        return self._dummy_tokens_created

    @property
    def round_reports(self) -> List[RoundReport]:
        """Per-round statistics of the executed rounds (copy)."""
        return list(self._reports)

    def discrete_cumulative_flows(self) -> np.ndarray:
        """Per-edge cumulative net discrete flow ``f^{D(A)}_{u,v}`` (canonical direction)."""
        return self._discrete_cumulative.copy()

    def flow_errors(self) -> np.ndarray:
        """Per-edge flow error ``e_{u,v}(t) = f^A_{u,v}(t) - f^{D(A)}_{u,v}(t)``.

        Observation 4 of the paper shows ``|e| <= w_max`` for Algorithm 1;
        Observation 9 gives the corresponding bound for Algorithm 2.
        """
        return self._continuous.cumulative_flows - self._discrete_cumulative

    def load_deviation(self) -> np.ndarray:
        """Per-node deviation of the discrete load from the continuous load.

        Lemma 6(1): ``x^{D(A)}_i(t) - x^A_i(t) = sum_{j in N(i)} e_{i,j}(t-1)``
        as long as no infinite source has been used, hence the deviation is
        bounded by ``d * w_max`` (Lemma 6(2)).
        """
        return self.loads(include_dummies=True) - self._continuous.load

    # ------------------------------------------------------------------ #
    # driving the run
    # ------------------------------------------------------------------ #

    def run_until_continuous_balanced(self, tolerance: float = BALANCE_TOLERANCE,
                                      max_rounds: int = 1_000_000) -> int:
        """Run the coupled processes until the continuous one is balanced.

        Returns the balancing time ``T^A``.  This is the time horizon at
        which Theorems 3 and 8 bound the discrete discrepancy.
        """
        while not self._continuous.is_balanced(tolerance):
            if self._round >= max_rounds:
                raise ConvergenceError(
                    f"continuous process did not balance within {max_rounds} rounds"
                )
            self.advance()
        return self._round

    def remove_dummies(self) -> float:
        """Eliminate all dummy tasks (the final step of the balancing process)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # O(n) re-coupling
    # ------------------------------------------------------------------ #

    def recouple(self, initial_load: Union[Sequence[float], WeightedLoads],
                 seed: Optional[int] = None) -> None:
        """Rewind the coupled pair to round 0 on a new workload.

        The continuous substrate is rewound in place, as by
        :meth:`~repro.continuous.base.ContinuousProcess.reset` (its cached
        spectral data — edge weights, transfer rates, the SOS ``beta`` —
        survives), its matching schedule, if any, is
        reseeded from ``seed``, and the discrete workload is rebuilt by the
        backend-specific :meth:`_reset_workload` hook.  The result is
        bit-identical to constructing a fresh balancer through
        :func:`repro.simulation.engine.make_balancer` with the same seed, but
        without recomputing topology-derived data: O(n + m) for the array
        backend instead of O(W).

        ``initial_load`` is either a unit-token integer load vector or a
        :class:`~repro.tasks.weighted.WeightedLoads` (columnar weight
        buckets) — the latter is how the dynamic streaming engine re-couples
        weighted streams in O(n) without materialising task objects.
        Algorithm 2, which balances unit tokens only, rejects weighted ones.

        The workload is validated once, here: an integer count vector is
        taken exactly, without a float round-trip, into a fresh array.  The
        substrate takes over the float reference built from it and
        :meth:`_reset_workload` the counts, neither checked nor copied again.
        """
        if isinstance(initial_load, WeightedLoads):
            if initial_load.num_nodes != self.network.num_nodes:
                raise ProcessError(
                    f"workload spans {initial_load.num_nodes} nodes, "
                    f"network has {self.network.num_nodes}")
            workload: object = initial_load
            reference = initial_load.load_vector().astype(float)
            total = float(initial_load.total_weight())
            w_max = max(1.0, float(initial_load.max_weight()))
        else:
            counts = as_token_counts(initial_load, self.network, error=ProcessError)
            workload = counts
            reference = counts.astype(float)
            total = float(counts.sum())
            w_max = 1.0
        self._continuous._restart(reference)
        schedule = getattr(self._continuous, "schedule", None)
        if schedule is not None:
            schedule.reseed(seed)
        self._round = 0
        self._discrete_cumulative[:] = 0.0
        self._dummy_tokens_created = 0
        self._used_infinite_source = False
        self._reports = []
        self._original_weight = total
        self._w_max = w_max
        self._reset_workload(workload)
        self._reset_rng(seed)

    def _reset_workload(self, workload) -> None:
        """Rebuild the discrete workload from a validated, fresh ``int64``
        token-count vector (the hook may keep it) or a
        :class:`~repro.tasks.weighted.WeightedLoads`."""
        raise NotImplementedError

    def _reset_rng(self, seed: Optional[int]) -> None:
        """Hook for randomized subclasses: re-initialise rounding randomness."""


class FlowImitationBalancer(FlowCoupledBalancer):
    """Object-backend base class: flow imitation over a :class:`TaskAssignment`.

    Parameters
    ----------
    continuous:
        The continuous process ``A`` to imitate.  It must be freshly
        constructed (round 0) and its initial load vector must equal the load
        vector induced by ``assignment``.  The balancer *owns* the process and
        advances it internally; callers should not advance it themselves.
    assignment:
        The discrete workload: which node holds which (possibly weighted)
        tasks at time 0.
    max_task_weight:
        Override for ``w_max``.  Defaults to the maximum weight present in
        ``assignment`` (at least 1, the weight of dummy tasks).
    """

    def __init__(
        self,
        continuous: ContinuousProcess,
        assignment: TaskAssignment,
        max_task_weight: Optional[float] = None,
    ) -> None:
        if assignment.network is not continuous.network:
            raise ProcessError(
                "the task assignment and the continuous process must share the same network"
            )
        if continuous.round_index == 0 and not np.allclose(
                assignment.loads(), continuous.load, rtol=0, atol=1e-9):
            raise ProcessError(
                "the continuous process must start from the load vector induced by the assignment"
            )
        if max_task_weight is None:
            max_task_weight = max(1.0, assignment.max_task_weight())
        super().__init__(continuous, max_task_weight=max_task_weight,
                         original_weight=assignment.total_weight())
        self._assignment = assignment
        self._dummy_factory = TaskFactory(start_id=_DUMMY_ID_OFFSET)

    # ------------------------------------------------------------------ #
    # state inspection
    # ------------------------------------------------------------------ #

    @property
    def assignment(self) -> TaskAssignment:
        """The discrete task assignment (mutated in place as rounds execute)."""
        return self._assignment

    def loads(self, include_dummies: bool = True) -> np.ndarray:
        """Return the current discrete load vector."""
        return self._assignment.loads(include_dummies=include_dummies)

    # ------------------------------------------------------------------ #
    # the round
    # ------------------------------------------------------------------ #

    def _execute_round(self) -> None:
        with kernel_phase("continuous/advance"):
            self._continuous.advance()
        with kernel_phase("flow/object-round"):
            self._imitate_round()

    def _imitate_round(self) -> None:
        residual = self._continuous.cumulative_flows - self._discrete_cumulative

        # Partition residuals into per-sender requests (only one direction of an
        # edge can have positive residual flow).
        edge_u, edge_v = self.network.edge_endpoints
        active = np.flatnonzero(residual)
        requests: Dict[int, List[Tuple[int, int, float]]] = {}
        for edge_idx, value, u, v in zip(active.tolist(), residual[active].tolist(),
                                         edge_u[active].tolist(), edge_v[active].tolist()):
            if value > 0:
                requests.setdefault(u, []).append((v, edge_idx, value))
            else:
                requests.setdefault(v, []).append((u, edge_idx, -value))

        plans: List[Tuple[int, EdgeSendPlan]] = []
        pools: Dict[int, List[Task]] = {}
        for node, neighbor, edge_idx, amount in self._iter_requests(requests):
            pool = pools.get(node)
            if pool is None:
                pool = pools[node] = list(self._assignment.tasks_at(node))
            plan = self._plan_edge_send(node, neighbor, amount, pool)
            if plan.tasks or plan.dummy_tokens:
                plans.append((edge_idx, plan))

        transfers = 0
        tasks_moved = 0
        weight_moved = 0.0
        dummies_this_round = 0
        for edge_idx, plan in plans:
            for task in plan.tasks:
                self._assignment.move(task, plan.source, plan.destination)
                tasks_moved += 1
            for _ in range(plan.dummy_tokens):
                dummy = self._dummy_factory.create_dummy(origin=plan.source)
                self._assignment.add(plan.destination, dummy)
                dummies_this_round += 1
            sent = plan.weight
            weight_moved += sent
            transfers += 1
            # Canonical edges are stored with u < v.
            signed = sent if plan.source < plan.destination else -sent
            self._discrete_cumulative[edge_idx] += signed

        if dummies_this_round:
            self._used_infinite_source = True
            self._dummy_tokens_created += dummies_this_round

        self._reports.append(
            RoundReport(
                round_index=self._round,
                transfers=transfers,
                tasks_moved=tasks_moved,
                weight_moved=weight_moved,
                dummy_tokens_created=dummies_this_round,
            )
        )

    def _iter_requests(self, requests: Dict[int, List[Tuple[int, int, float]]]):
        """Yield this round's send requests as ``(node, neighbor, edge_idx, amount)``.

        The canonical planning order — senders ascending, receivers ascending
        within a sender — which the array backend reads from the network's
        precomputed :attr:`~repro.network.graph.Network.directed_order`.
        Overridable so permutation tests can prove that Algorithm 2's
        counter-based load trajectories do not depend on it.
        """
        for node in sorted(requests):
            for neighbor, edge_idx, amount in sorted(requests[node]):
                yield node, neighbor, edge_idx, amount

    def _plan_edge_send(self, source: int, destination: int, residual: float,
                        pool: List[Task]) -> EdgeSendPlan:
        """Decide which tasks ``source`` forwards to ``destination`` this round.

        ``pool`` contains the tasks of ``source`` that have not yet been
        committed to another neighbour in the same round; the implementation
        must remove any task it selects from ``pool``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # dummies and re-coupling
    # ------------------------------------------------------------------ #

    def remove_dummies(self) -> float:
        """Eliminate all dummy tasks (the final step of the balancing process)."""
        return self._assignment.remove_dummies()

    def real_weight_buckets(self) -> List[Dict[int, int]]:
        """Per-node ``{weight: count}`` of the real tasks (for streaming sync).

        Only defined for integer-weight workloads (the weighted streaming
        engine's model); the columnar backend exposes the same method.
        """
        try:
            return WeightedLoads.from_assignment(self._assignment).buckets()
        except TaskError as exc:
            raise ProcessError(str(exc)) from exc

    def _reset_workload(self, workload) -> None:
        if isinstance(workload, WeightedLoads):
            self._assignment = workload.to_assignment(self.network)
        else:
            self._assignment = TaskAssignment.from_unit_loads(self.network, workload)
        self._dummy_factory = TaskFactory(start_id=_DUMMY_ID_OFFSET)

    # ------------------------------------------------------------------ #
    # helpers available to subclasses
    # ------------------------------------------------------------------ #

    def _take_unit_tokens(self, pool: List[Task], count: int) -> Tuple[List[Task], int]:
        """Take up to ``count`` tasks from ``pool``; return (tasks, missing)."""
        taken: List[Task] = []
        while pool and len(taken) < count:
            taken.append(pool.pop(0))
        return taken, count - len(taken)
