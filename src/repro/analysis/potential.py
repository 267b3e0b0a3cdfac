"""Potential-function analysis (the classical machinery of Section 2.2).

The prior work surveyed in the paper analyses discrete diffusion through the
quadratic potential ``Phi(t) = sum_i (x_i(t) - s_i W / S)^2``:

* in the continuous FOS process ``Phi`` drops by a factor of at least
  ``lambda^2`` per round (Muthukrishnan et al. [34]);
* the discrete round-down process behaves like the continuous one as long as
  the potential is large (``Phi(t+1) <= (1 + eps) lambda^2 Phi(t)`` whenever
  ``Phi(t) >= 16 d^2 n^2 / eps^2``).

This module records per-round potential traces for any process (continuous or
discrete), estimates the empirical per-round drop factor, and evaluates the
"large potential" threshold of [34] — the ``potential-drop`` entry of
:mod:`repro.simulation.claims` uses it to show that the classical analysis
matches the simulation and where it stops being informative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from ..continuous.base import ContinuousProcess
from ..discrete.base import DiscreteBalancer
from ..exceptions import ProcessError
from ..network.graph import Network
from ..tasks.load import quadratic_potential

__all__ = [
    "PotentialTrace",
    "muthukrishnan_threshold",
    "track_potential",
    "estimate_drop_factor",
]

Balancer = Union[ContinuousProcess, DiscreteBalancer]


@dataclass
class PotentialTrace:
    """Per-round record of the quadratic potential of a balancing process.

    Attributes
    ----------
    values:
        ``Phi`` after each round; index 0 is the initial state.
    drop_factors:
        ``Phi(t+1) / Phi(t)`` for every round with ``Phi(t) > 0``.
    threshold:
        The ``16 d^2 n^2 / eps^2`` threshold of [34] for the network the
        trace was recorded on.
    rounds_above_threshold:
        Number of recorded rounds whose starting potential exceeded the
        threshold (the regime where the classical multiplicative-drop
        analysis applies).
    """

    values: List[float] = field(default_factory=list)
    drop_factors: List[float] = field(default_factory=list)
    threshold: float = 0.0
    rounds_above_threshold: int = 0

    @property
    def initial(self) -> float:
        """The initial potential ``Phi(0)``."""
        return self.values[0] if self.values else 0.0

    @property
    def final(self) -> float:
        """The potential after the last recorded round."""
        return self.values[-1] if self.values else 0.0

    @property
    def total_reduction(self) -> float:
        """``Phi(0) / Phi(end)`` (infinity when the final potential is zero)."""
        if not self.values:
            return 1.0
        if self.final == 0.0:
            return float("inf")
        return self.initial / self.final


def muthukrishnan_threshold(network: Network, epsilon: float = 0.5) -> float:
    """The ``16 d^2 n^2 / eps^2`` "large potential" threshold of [34]."""
    if not 0.0 < epsilon < 1.0:
        raise ProcessError("epsilon must lie in (0, 1)")
    d = network.max_degree
    n = network.num_nodes
    return 16.0 * d * d * n * n / (epsilon * epsilon)


def _loads_of(process: Balancer) -> np.ndarray:
    if isinstance(process, ContinuousProcess):
        return process.load
    return process.loads()


def track_potential(process: Balancer, rounds: int,
                    reference_weight: Optional[float] = None,
                    epsilon: float = 0.5) -> PotentialTrace:
    """Run ``process`` for ``rounds`` rounds and record its potential trace.

    Parameters
    ----------
    process:
        Any continuous or discrete balancer (it is advanced in place).
    reference_weight:
        Total weight used for the balanced target; defaults to the current
        total load (pass the original workload when dummies may appear).
    epsilon:
        The ``eps`` of the [34] threshold recorded alongside the trace.
    """
    if rounds < 0:
        raise ProcessError("rounds must be non-negative")
    network = process.network
    trace = PotentialTrace(threshold=muthukrishnan_threshold(network, epsilon))

    def record() -> float:
        value = quadratic_potential(_loads_of(process), network,
                                    total_weight=reference_weight)
        trace.values.append(value)
        return value

    previous = record()
    for _ in range(rounds):
        if previous > trace.threshold:
            trace.rounds_above_threshold += 1
        process.advance()
        current = record()
        if previous > 0:
            trace.drop_factors.append(current / previous)
        previous = current
    return trace


def estimate_drop_factor(trace: PotentialTrace, above_threshold_only: bool = False) -> float:
    """Estimate the average per-round multiplicative potential drop.

    Returns the geometric mean of the recorded ``Phi(t+1)/Phi(t)`` ratios
    (optionally restricted to rounds whose starting potential exceeded the
    [34] threshold).  Returns 1.0 when no usable rounds exist.
    """
    factors = trace.drop_factors
    if above_threshold_only:
        factors = factors[:trace.rounds_above_threshold]
    factors = [factor for factor in factors if factor > 0]
    if not factors:
        return 1.0
    return float(np.exp(np.mean(np.log(factors))))
