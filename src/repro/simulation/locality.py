"""Task locality analysis: how far do tasks travel from their origin?

The introduction of the paper motivates neighbourhood load balancing partly
by locality: because tasks only move between neighbours, they "have the
tendency to keep the tasks close to their initial location which is
beneficial if the tasks originated on the same resource have to exchange
information".

This module quantifies that claim for the flow-imitation algorithms.  Each
:class:`~repro.tasks.task.Task` optionally records its ``origin`` node; after
a run we can measure the graph distance between every task's origin and its
final location and summarise the displacement distribution.  The
``selection-policy`` entry of :mod:`repro.simulation.claims` compares the
displacement of Algorithm 1 under the different task-selection policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..exceptions import ExperimentError
from ..network.graph import Network
from ..tasks.assignment import TaskAssignment

__all__ = ["DisplacementSummary", "task_displacements", "summarize_displacements"]


@dataclass(frozen=True)
class DisplacementSummary:
    """Distribution of task displacements (graph distance origin -> final node)."""

    tasks_measured: int
    mean: float
    median: float
    maximum: int
    fraction_stationary: float
    fraction_within_one_hop: float

    def as_dict(self) -> Dict[str, float]:
        """Return the summary as a plain dictionary."""
        return {
            "tasks_measured": self.tasks_measured,
            "mean": self.mean,
            "median": self.median,
            "max": self.maximum,
            "fraction_stationary": self.fraction_stationary,
            "fraction_within_one_hop": self.fraction_within_one_hop,
        }


def task_displacements(assignment: TaskAssignment,
                       include_dummies: bool = False) -> List[int]:
    """Return the graph distance from origin to current node for every task.

    Tasks without a recorded origin are skipped; dummy tasks are skipped
    unless ``include_dummies`` is set.  Distances come from one breadth-first
    search per distinct origin (:meth:`Network.distances_from`), so memory
    stays ``O(n)`` plus the tasks.
    """
    network: Network = assignment.network
    network.require_connected()
    origins: List[int] = []
    nodes: List[int] = []
    for node in network.nodes:
        for task in assignment.tasks_at(node):
            if task.is_dummy and not include_dummies:
                continue
            if task.origin is None:
                continue
            origins.append(task.origin)
            nodes.append(node)
    # group the tasks by origin; each group reads one BFS, freed before the next
    origin_array = np.array(origins, dtype=np.int64)
    order = np.argsort(origin_array, kind="stable")
    distinct, starts = np.unique(origin_array[order], return_index=True)
    node_array = np.array(nodes, dtype=np.int64)
    displacements = np.empty(len(origins), dtype=np.int64)
    for origin, group in zip(distinct.tolist(), np.split(order, starts[1:])):
        displacements[group] = network.distances_from(origin)[node_array[group]]
    return displacements.tolist()


def summarize_displacements(assignment: TaskAssignment,
                            include_dummies: bool = False) -> DisplacementSummary:
    """Summarise the displacement distribution of an assignment's tasks."""
    displacements = task_displacements(assignment, include_dummies=include_dummies)
    if not displacements:
        raise ExperimentError(
            "no tasks with a recorded origin; create tasks with origin=... to "
            "use the locality analysis"
        )
    values = np.asarray(displacements, dtype=float)
    return DisplacementSummary(
        tasks_measured=int(values.size),
        mean=float(values.mean()),
        median=float(np.median(values)),
        maximum=int(values.max()),
        fraction_stationary=float(np.mean(values == 0)),
        fraction_within_one_hop=float(np.mean(values <= 1)),
    )
