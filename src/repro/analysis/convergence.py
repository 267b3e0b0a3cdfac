"""Convergence measurement for continuous processes.

The balancing time of a continuous process ``A`` is

    ``T^A = min { t : |x_i(t) - W s_i / S| <= 1 for all i }``

(Section 3).  This module measures ``T^A`` empirically, records traces of the
distance to the balanced state, and compares measured times against the
spectral predictions of Section 2.1 (used by the ``convergence`` entry of
:mod:`repro.simulation.claims`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..continuous.base import BALANCE_TOLERANCE, ContinuousProcess
from ..exceptions import ConvergenceError

__all__ = ["ConvergenceTrace", "measure_balancing_time", "convergence_trace"]


@dataclass
class ConvergenceTrace:
    """Per-round record of how far a continuous process is from balanced.

    Attributes
    ----------
    rounds:
        Number of rounds executed.
    max_deviation:
        ``max_i |x_i(t) - W s_i / S|`` after each round (index 0 is the
        initial state, before any round).
    potential:
        The quadratic potential ``Phi(t)`` after each round.
    balanced_at:
        The first round index at which the process was balanced (within the
        tolerance), or ``None`` if it never balanced during the trace.
    """

    rounds: int
    max_deviation: List[float] = field(default_factory=list)
    potential: List[float] = field(default_factory=list)
    balanced_at: Optional[int] = None


def measure_balancing_time(process: ContinuousProcess,
                           tolerance: float = BALANCE_TOLERANCE,
                           max_rounds: int = 1_000_000) -> int:
    """Run ``process`` until balanced and return the balancing time ``T``."""
    return process.run_until_balanced(tolerance=tolerance, max_rounds=max_rounds)


def convergence_trace(process: ContinuousProcess, max_rounds: int,
                      tolerance: float = BALANCE_TOLERANCE,
                      stop_when_balanced: bool = True) -> ConvergenceTrace:
    """Run ``process`` for up to ``max_rounds`` rounds, recording a trace.

    Parameters
    ----------
    stop_when_balanced:
        When ``True`` (default), stop as soon as the process is balanced.
    """
    if max_rounds < 0:
        raise ConvergenceError("max_rounds must be non-negative")
    target = process.balanced_target()
    trace = ConvergenceTrace(rounds=0)

    def record() -> None:
        deviation = float(np.max(np.abs(process.load - target)))
        trace.max_deviation.append(deviation)
        trace.potential.append(float(np.sum((process.load - target) ** 2)))

    record()
    if process.is_balanced(tolerance):
        trace.balanced_at = process.round_index
        if stop_when_balanced:
            return trace
    for _ in range(max_rounds):
        process.advance()
        trace.rounds += 1
        record()
        if trace.balanced_at is None and process.is_balanced(tolerance):
            trace.balanced_at = process.round_index
            if stop_when_balanced:
                break
    return trace
