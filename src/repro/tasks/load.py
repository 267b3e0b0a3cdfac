"""Load vectors, makespans and discrepancy metrics.

These are the quantities the paper's theorems bound:

* the *makespan* of node ``i`` is ``x_i / s_i``;
* the *max-min discrepancy* of a load vector is the difference between the
  maximum and the minimum makespan;
* the *max-avg discrepancy* is the difference between the maximum makespan
  and ``W / S`` (the makespan of the perfectly balanced allocation);
* the potential ``Phi(t) = sum_i (x_i - s_i W / S)^2`` is the classical
  quadratic potential used by the prior work surveyed in Section 2.2.

All functions accept plain numpy arrays so they can be used on continuous
load vectors and on the induced loads of a :class:`TaskAssignment` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..exceptions import TaskError
from ..network.graph import Network

__all__ = [
    "as_load_vector",
    "as_token_counts",
    "balanced_allocation",
    "makespans",
    "max_min_discrepancy",
    "max_avg_discrepancy",
    "min_avg_discrepancy",
    "quadratic_potential",
    "LoadSummary",
    "summarize_loads",
]


def as_load_vector(loads: Sequence[float], network: Network) -> np.ndarray:
    """Validate and convert ``loads`` into a float numpy array of length ``n``.

    Accepts any sequence (ndarrays pass through without a Python-list
    round-trip; an already-float ndarray is not copied by ``asarray``, so
    hot paths can call this every round for free).
    """
    array = np.asarray(loads, dtype=float)
    if array.shape != (network.num_nodes,):
        raise TaskError(
            f"load vector must have length {network.num_nodes}, got shape {array.shape}"
        )
    if not np.all(np.isfinite(array)):
        raise TaskError("load vector must contain only finite values")
    return array


def as_token_counts(loads: Sequence[float], network: Network,
                    error: type = TaskError) -> np.ndarray:
    """Validate ``loads`` as non-negative integer token counts (``int64``).

    The shared validate-and-convert step of every token-only process;
    ``error`` lets callers surface their own exception family.  Always
    returns a fresh array the caller owns.  Integer input (an integer
    ndarray or a list of ints) is converted exactly, so counts above 2**53
    keep every token; other input goes through float64 and must lie within
    ``1e-9`` of an integer.
    """
    array = np.asarray(loads)
    integer = array.dtype.kind in "iu"
    if not integer:
        array = array.astype(float, copy=False)
    if array.shape != (network.num_nodes,):
        raise error(
            f"load vector must have length {network.num_nodes}, got shape {array.shape}"
        )
    if integer:
        # astype copies; an unsigned count beyond int64 wraps negative and
        # is rejected with the negative ones
        counts = array.astype(np.int64)
        if counts.size and counts.min() < 0:
            raise error("token loads must be non-negative")
        return counts
    if np.any(array < 0):
        raise error("token loads must be non-negative")
    rounded = np.round(array)
    if not np.allclose(array, rounded, rtol=0, atol=1e-9):
        raise error("integer token loads are required")
    return rounded.astype(np.int64)


def balanced_allocation(total_weight: float, network: Network) -> np.ndarray:
    """Return the perfectly balanced allocation ``(W / S) * (s_1, ..., s_n)``."""
    speeds = network.speeds
    return total_weight * speeds / speeds.sum()


def makespans(loads: Sequence[float], network: Network) -> np.ndarray:
    """Return the per-node makespans ``x_i / s_i``."""
    return as_load_vector(loads, network) / network.speeds


def max_min_discrepancy(loads: Sequence[float], network: Network) -> float:
    """Return the difference between the maximum and minimum makespan."""
    spans = makespans(loads, network)
    return float(spans.max() - spans.min())


def max_avg_discrepancy(loads: Sequence[float], network: Network,
                        total_weight: Optional[float] = None) -> float:
    """Return the difference between the maximum makespan and ``W / S``.

    ``total_weight`` defaults to the sum of ``loads``; pass it explicitly when
    the reported loads exclude dummy tasks but the average should refer to the
    original workload.
    """
    vector = as_load_vector(loads, network)
    if total_weight is None:
        total_weight = float(vector.sum())
    average = total_weight / network.total_speed
    spans = vector / network.speeds
    return float(spans.max() - average)


def min_avg_discrepancy(loads: Sequence[float], network: Network,
                        total_weight: Optional[float] = None) -> float:
    """Return ``W / S`` minus the minimum makespan (how far the emptiest node lags)."""
    vector = as_load_vector(loads, network)
    if total_weight is None:
        total_weight = float(vector.sum())
    average = total_weight / network.total_speed
    spans = vector / network.speeds
    return float(average - spans.min())


def quadratic_potential(loads: Sequence[float], network: Network,
                        total_weight: Optional[float] = None) -> float:
    """Return ``Phi = sum_i (x_i - s_i * W / S)^2`` (Equation (6) of the paper)."""
    vector = as_load_vector(loads, network)
    if total_weight is None:
        total_weight = float(vector.sum())
    target = balanced_allocation(total_weight, network)
    return float(np.sum((vector - target) ** 2))


@dataclass(frozen=True)
class LoadSummary:
    """Immutable summary of a load vector's balance quality.

    Attributes mirror the metrics reported by the paper's theorems and the
    comparison tables.
    """

    total_weight: float
    max_makespan: float
    min_makespan: float
    average_makespan: float
    max_min_discrepancy: float
    max_avg_discrepancy: float
    potential: float

    def as_dict(self) -> dict:
        """Return the summary as a plain dictionary (handy for CSV/JSON dumps)."""
        return {
            "total_weight": self.total_weight,
            "max_makespan": self.max_makespan,
            "min_makespan": self.min_makespan,
            "average_makespan": self.average_makespan,
            "max_min_discrepancy": self.max_min_discrepancy,
            "max_avg_discrepancy": self.max_avg_discrepancy,
            "potential": self.potential,
        }


def summarize_loads(loads: Sequence[float], network: Network,
                    total_weight: Optional[float] = None) -> LoadSummary:
    """Compute a :class:`LoadSummary` for a load vector.

    Parameters
    ----------
    loads:
        The per-node loads.
    network:
        The network providing the speeds.
    total_weight:
        Total workload used for the "average" reference; defaults to the sum
        of ``loads``.
    """
    vector = as_load_vector(loads, network)
    if total_weight is None:
        total_weight = float(vector.sum())
    spans = vector / network.speeds
    average = total_weight / network.total_speed
    return LoadSummary(
        total_weight=total_weight,
        max_makespan=float(spans.max()),
        min_makespan=float(spans.min()),
        average_makespan=average,
        max_min_discrepancy=float(spans.max() - spans.min()),
        max_avg_discrepancy=float(spans.max() - average),
        potential=quadratic_potential(vector, network, total_weight),
    )
