"""Vectorized flow imitation: Algorithms 1 and 2 on the array backend.

:class:`ArrayFlowImitation` runs the paper's flow-imitation template on a
:class:`~repro.backend.state.TokenCountState` instead of a
:class:`~repro.tasks.assignment.TaskAssignment`.  Per round it computes the
per-edge residual flows, derives the integer send amount of every active edge
in one vectorised pass (floor for Algorithm 1, randomized rounding for
Algorithm 2), and applies the transfers with scatter-adds.  The cost of a
round is O(m) in the number of edges — independent of the number of tokens
``W`` — versus the object backend's O(W) queue snapshots.  No round sorts:
the planning order is filtered from the network's precomputed
:attr:`~repro.network.graph.Network.directed_order`.

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
* a sender's tokens are committed to its edges first-come-first-served
  against the start-of-round state, so the real/dummy split of every
  transfer matches the object backend's FIFO pools (see
  :mod:`repro.backend.state`);
* the cumulative discrete flows accumulate the same float64 values in the
  same per-edge order.

The equivalence test suite (``tests/backend/``) asserts identical per-round
load vectors, dummy distributions and discrepancy trajectories across
backends for every algorithm and substrate.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..continuous.base import ContinuousProcess
from ..core.algorithm1 import theorem3_discrepancy_bound
from ..core.algorithm2 import theorem8_max_avg_bound
from ..core.flow_imitation import FlowCoupledBalancer, RoundReport
from ..counter_rng import edge_scores, normalize_counter_seed, validate_rng_mode
from ..exceptions import ProcessError
from ..obs.kernels import kernel_phase
from ..tasks.load import as_token_counts
from .state import TokenCountState

__all__ = [
    "ArrayFlowImitation",
    "ArrayDeterministicFlowImitation",
    "ArrayRandomizedFlowImitation",
]


class ArrayFlowImitation(FlowCoupledBalancer):
    """Flow imitation over a numpy token-count vector (unit tokens only).

    Parameters
    ----------
    continuous:
        The continuous process ``A`` to imitate (fresh, round 0, starting
        from the load vector given by ``initial_load``).
    initial_load:
        Non-negative integer token counts per node.
    """

    def __init__(
        self,
        continuous: ContinuousProcess,
        initial_load: Sequence[int],
    ) -> None:
        network = continuous.network
        counts = as_token_counts(initial_load, network, error=ProcessError)
        if continuous.round_index == 0 and not np.allclose(
                counts, continuous.load, atol=1e-9):
            raise ProcessError(
                "the continuous process must start from the load vector induced by the assignment"
            )
        super().__init__(continuous, max_task_weight=1.0,
                         original_weight=float(counts.sum()))
        self._state = TokenCountState(counts)

    # ------------------------------------------------------------------ #
    # state inspection
    # ------------------------------------------------------------------ #

    @property
    def unit_tokens_only(self) -> bool:
        """Always ``True``: the array backend stores unit tokens only."""
        return True

    def loads(self, include_dummies: bool = True) -> np.ndarray:
        """Return the current discrete load vector."""
        return self._state.loads(include_dummies=include_dummies)

    def dummy_loads(self) -> np.ndarray:
        """Return the per-node number of dummy tokens (as floats)."""
        return self._state.dummy_counts.astype(float)

    def real_weight_buckets(self):
        """Per-node ``{weight: count}`` of the real tokens (all weight 1)."""
        real = self._state.counts - self._state.dummy_counts
        return [{1: int(count)} if count else {} for count in real.tolist()]

    def remove_dummies(self) -> float:
        """Eliminate all dummy tokens (the final step of the balancing process)."""
        return float(self._state.remove_dummies())

    def _reset_workload(self, workload) -> None:
        from ..tasks.weighted import WeightedLoads

        if isinstance(workload, WeightedLoads):
            if workload.max_weight() > 1:
                raise ProcessError(
                    "the unit-token array backend cannot hold weighted tasks; "
                    "use the columnar weighted backend")
            workload = workload.load_vector()
        self._state = TokenCountState(workload)

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
            self._reports.append(RoundReport(self._round, 0, 0, 0.0, 0))
            return
        magnitude = np.abs(residual[active])

        amounts = self._edge_amounts(magnitude, active)
        moving = np.flatnonzero(amounts > 0)
        transfers = int(moving.size)
        if transfers == 0:
            self._reports.append(RoundReport(self._round, 0, 0, 0.0, 0))
            return
        active = active[moving]
        forward = forward[moving]
        senders = senders[moving]
        receivers = receivers[moving]
        amounts = amounts[moving]

        n = self.network.num_nodes
        outgoing = np.zeros(n, dtype=np.int64)
        np.add.at(outgoing, senders, amounts)
        total_sent = int(amounts.sum())
        dummies_this_round = 0
        state = self._state
        if state.dummy_total == 0 and bool(np.all(outgoing <= state.counts)):
            # Fast path: every sender covers its plans with real tokens, so
            # the transfers reduce to two scatter-adds on the count vector.
            state.drop_queues()
            incoming = np.zeros(n, dtype=np.int64)
            np.add.at(incoming, receivers, amounts)
            state.counts -= outgoing
            state.counts += incoming
        else:
            dummies_this_round = self._apply_with_queues(senders, receivers, amounts)

        signed = np.where(forward, amounts, -amounts).astype(float)
        self._discrete_cumulative[active] += signed

        if dummies_this_round:
            self._used_infinite_source = True
            self._dummy_tokens_created += dummies_this_round
        self._reports.append(
            RoundReport(
                round_index=self._round,
                transfers=transfers,
                tasks_moved=total_sent - dummies_this_round,
                weight_moved=float(total_sent),
                dummy_tokens_created=dummies_this_round,
            )
        )

    def _apply_with_queues(self, senders: np.ndarray, receivers: np.ndarray,
                           amounts: np.ndarray) -> int:
        """Slow path: some transfer touches dummies, so replay FIFO semantics.

        Mirrors the object backend's two phases: every plan first draws from
        its sender's start-of-round queue head, then all popped runs (plus
        freshly created dummies) are appended to the receivers in plan order.
        """
        state = self._state
        state.materialize_queues()
        pending = []
        for sender, receiver, amount in zip(senders.tolist(), receivers.tolist(),
                                            amounts.tolist()):
            runs, missing = state.pop_front(sender, amount)
            pending.append((receiver, runs, missing))
        dummies = 0
        for receiver, runs, missing in pending:
            state.push(receiver, runs)
            if missing:
                state.push_dummies(receiver, missing)
                dummies += missing
        return dummies

    def _edge_amounts(self, magnitude: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Derive the integer send amount of every active edge.

        ``magnitude`` holds the residual magnitudes in planning order and
        ``edges`` the matching original edge indices (what counter-mode
        randomness is keyed on).
        """
        raise NotImplementedError


class ArrayDeterministicFlowImitation(ArrayFlowImitation):
    """Algorithm 1 on the array backend: send ``floor(residual)`` tokens."""

    def discrepancy_bound(self) -> float:
        """The Theorem 3 bound ``2 d w_max + 2`` for this instance."""
        return theorem3_discrepancy_bound(self.network.max_degree, self.w_max)

    def _edge_amounts(self, magnitude: np.ndarray, edges: np.ndarray) -> np.ndarray:
        return np.floor(magnitude + 1e-9).astype(np.int64)


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
        initial_load: Sequence[int],
        seed: Optional[int] = None,
        rng_mode: str = "sequential",
    ) -> None:
        super().__init__(continuous, initial_load)
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

    def _reset_rng(self, seed: Optional[int]) -> None:
        if self._rng_mode == "counter":
            self._counter_key = normalize_counter_seed(seed)
        else:
            self._rng = np.random.default_rng(seed)

    def _edge_amounts(self, magnitude: np.ndarray, edges: np.ndarray) -> np.ndarray:
        base = np.floor(magnitude)
        fraction = magnitude - base
        if self._rng_mode == "counter":
            draws = edge_scores(self._counter_key, self._round,
                                self.network.num_edges)[edges]
        else:
            draws = self._rng.random(magnitude.size)
        round_up = draws < fraction
        return (base + round_up).astype(np.int64)
