"""Common interface for discrete (indivisible-task) balancing processes.

Two families of discrete processes live in this library:

* the paper's **flow imitation** algorithms (:mod:`repro.core`), which couple
  themselves to a continuous process and imitate its cumulative flow, and
* the **baselines** from the prior literature (:mod:`repro.discrete.baselines`),
  which each round compute the flow the continuous process *would* send given
  the current discrete load and round it (down, quasirandomly, or randomly).

Both expose the same minimal interface so the simulation engine, metrics and
benchmarks can treat them interchangeably.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from ..exceptions import ProcessError
from ..network.graph import Network
from ..tasks.load import LoadSummary, as_token_counts, summarize_loads

__all__ = ["DiscreteBalancer", "IntegerLoadBalancer"]


class DiscreteBalancer(ABC):
    """Abstract base class for discrete balancing processes.

    Subclasses maintain whatever internal representation they need (a
    :class:`~repro.tasks.assignment.TaskAssignment` for weighted tasks, a
    plain integer vector for token-only baselines) but must expose the load
    vector, the network and a synchronous :meth:`advance`.
    """

    def __init__(self, network: Network) -> None:
        network.require_connected()
        self._network = network
        self._round = 0
        self._probe = None

    @property
    def network(self) -> Network:
        """The network being balanced."""
        return self._network

    @property
    def round_index(self) -> int:
        """The index ``t`` of the next round to be executed."""
        return self._round

    @abstractmethod
    def loads(self, include_dummies: bool = True) -> np.ndarray:
        """Return the current load vector of the discrete process."""

    @abstractmethod
    def _execute_round(self) -> None:
        """Execute the balancing actions of the current round."""

    @property
    def probe(self):
        """The attached :class:`~repro.obs.probe.RoundProbe`, if any."""
        return self._probe

    def attach_probe(self, probe) -> None:
        """Attach a per-round telemetry probe (see :mod:`repro.obs`).

        The probe's ``after_round(balancer, seconds)`` is called once per
        executed round with the round's kernel wall-clock.  Probes are
        strictly observers — they read state, never mutate it — so attaching
        one cannot change the trajectory.  Pass ``None`` to detach.
        """
        self._probe = probe

    def advance(self) -> None:
        """Execute one synchronous round."""
        probe = self._probe
        if probe is None:
            self._execute_round()
            self._round += 1
            return
        start = time.perf_counter()  # repro: allow[R002] probe timing envelope
        self._execute_round()
        # repro: allow[R002] probe timing envelope (kernel seconds, read-only)
        seconds = time.perf_counter() - start
        self._round += 1
        probe.after_round(self, seconds)

    def run(self, rounds: int) -> None:
        """Execute ``rounds`` rounds."""
        if rounds < 0:
            raise ProcessError("cannot run a negative number of rounds")
        for _ in range(rounds):
            self.advance()

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #

    def total_weight(self, include_dummies: bool = True) -> float:
        """Return the total weight currently in the system."""
        return float(self.loads(include_dummies=include_dummies).sum())

    def summary(self, include_dummies: bool = True,
                reference_weight: Optional[float] = None) -> LoadSummary:
        """Return a :class:`~repro.tasks.load.LoadSummary` of the current loads.

        ``reference_weight`` overrides the total weight used for the average
        makespan — pass the *original* workload weight when dummy tasks have
        been created so the max-avg discrepancy refers to the real workload.
        """
        return summarize_loads(self.loads(include_dummies=include_dummies),
                               self._network, total_weight=reference_weight)

    def max_min_discrepancy(self, include_dummies: bool = True) -> float:
        """Return the current max-min discrepancy of the makespans."""
        return self.summary(include_dummies=include_dummies).max_min_discrepancy

    def max_avg_discrepancy(self, include_dummies: bool = True,
                            reference_weight: Optional[float] = None) -> float:
        """Return the current max-avg discrepancy of the makespans."""
        return self.summary(include_dummies=include_dummies,
                            reference_weight=reference_weight).max_avg_discrepancy

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self._network.num_nodes}, round={self._round}, "
            f"W={self.total_weight():.1f})"
        )


class IntegerLoadBalancer(DiscreteBalancer):
    """Base class for token-only processes that track an integer load vector.

    The baselines of the prior literature are defined on identical unit-weight
    tokens; they only need the per-node token counts, not task identity.
    Loads are stored as a (possibly negative, for processes that can create
    negative load) integer vector.
    """

    def __init__(self, network: Network, initial_load) -> None:
        super().__init__(network)
        self._loads = self._validated_counts(initial_load)
        self._initial_loads = self._loads.copy()
        self._went_negative = False

    def _validated_counts(self, initial_load) -> np.ndarray:
        return as_token_counts(initial_load, self._network, error=ProcessError)

    def recouple(self, initial_load, seed: Optional[int] = None) -> None:
        """Rewind the process to round 0 on a new integer load vector.

        Network-derived data (diffusion weights, the SOS ``beta``, matching
        schedules) is reused; only the per-run state is reset via the
        :meth:`_reset_state` hook.  With the same ``seed`` this is equivalent
        to constructing a fresh balancer, at O(n) instead of recomputing
        spectral data — the re-coupling primitive of the dynamic streaming
        engine.
        """
        self._loads = self._validated_counts(initial_load)
        self._initial_loads = self._loads.copy()
        self._went_negative = False
        self._round = 0
        self._reset_state(seed)

    def _reset_state(self, seed: Optional[int]) -> None:
        """Hook for subclasses with extra per-run state (errors, momentum, rngs)."""

    @property
    def initial_loads(self) -> np.ndarray:
        """The initial integer load vector (copy)."""
        return self._initial_loads.copy()

    @property
    def went_negative(self) -> bool:
        """Whether any node's load ever became negative during the run."""
        return self._went_negative

    def loads(self, include_dummies: bool = True) -> np.ndarray:
        """Return the current integer load vector as floats (dummies do not apply)."""
        return self._loads.astype(float)

    def _apply_edge_moves(self, moves) -> None:
        """Apply ``(source, destination, tokens)`` moves synchronously.

        ``moves`` is a ``(k, 3)`` integer array or a list of triples, all
        computed against the pre-round load vector by the subclass; two
        scatter-adds apply them at once, and the post-round vector records
        whether any load became negative.
        """
        moves = np.asarray(moves, dtype=np.int64).reshape(-1, 3)
        sources, destinations, tokens = moves.T
        if np.any(tokens < 0):
            raise ProcessError("token moves must be non-negative")
        np.subtract.at(self._loads, sources, tokens)
        np.add.at(self._loads, destinations, tokens)
        if np.any(self._loads < 0):
            self._went_negative = True
