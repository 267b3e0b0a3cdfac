"""Backend resolution: which load-state representation runs a workload.

A *backend* decides how the discrete workload of the flow-imitation
algorithms (Algorithms 1 and 2) is represented.  The literature baselines
keep an ``int64`` load vector by construction, so each has one
implementation that every backend runs (:mod:`repro.discrete.baselines`):

* ``"object"`` — one Python :class:`~repro.tasks.task.Task` per work item,
  held in a :class:`~repro.tasks.assignment.TaskAssignment`.  The original
  path, and the only one that supports non-integer task weights and
  task-identity analyses (locality, origin tracking).
* ``"array"`` — one columnar state for every integer workload:
  :class:`~repro.backend.weighted.WeightedRunState`, every node's task
  queue as a slice of flat ``int64`` run arrays (count, weight, dummy flag),
  stored only while weight classes mix or dummies exist and otherwise
  derived from the load vector.  Unit tokens are its ``weight = 1`` case,
  and one round
  (:mod:`repro.backend.flow`) runs Algorithms 1 and 2 on it.  O(m +
  transfers) per round instead of O(W), which is what makes million-token
  streams feasible.
* ``"auto"`` — the array backend whenever the workload allows it: integer
  token load vectors, :class:`~repro.tasks.weighted.WeightedLoads`, and
  ``TaskAssignment``s whose tasks all carry integer weights.  The object
  backend remains the fallback for non-integer weights and for assignments
  that already contain dummy tasks.  This is the default everywhere: the
  backends are bit-equivalent, so ``auto`` is purely a performance choice.

:func:`resolve_backend` reports not just the chosen backend but *why* — the
reason lands in ``RunResult.extra["backend_reason"]`` so silent fallbacks are
observable in benchmarks and CI (for a baseline the reason says that one
implementation serves every backend).  The simulation engine picks the
classes for the resolved backend and keeps ownership of substrate construction,
schedules and seeds, so a given ``(algorithm, substrate, seed)`` triple
produces the same coupled system — and therefore the same trajectory — on
every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..exceptions import ExperimentError
from ..tasks.assignment import TaskAssignment
from ..tasks.weighted import WeightedLoads, task_integer_weight

__all__ = ["BACKEND_KINDS", "BackendChoice", "resolve_backend"]

#: Valid values of every ``backend=`` parameter.
BACKEND_KINDS = ("auto", "object", "array")

#: The algorithms a backend selects classes for; every other is a baseline.
_FLOW_IMITATION = ("algorithm1", "algorithm2")


@dataclass(frozen=True)
class BackendChoice:
    """A resolved backend plus the reason it was selected (or fallen back to)."""

    name: str
    reason: str


def _assignment_fallback_reason(assignment: TaskAssignment) -> Optional[str]:
    """Why an assignment cannot take the columnar path (``None`` if it can)."""
    if assignment.total_dummy_weight() > 0:
        return "assignment already contains dummy tasks"
    for node in assignment.network.nodes:
        for task in assignment.tasks_at(node):
            if task_integer_weight(task) is None:
                return f"non-integer task weight {task.weight}"
    return None


def _baseline_choice(backend: str, algorithm: str) -> BackendChoice:
    """What a literature baseline runs on: its one integer-vector implementation."""
    reason = "literature baselines share one integer-vector implementation across backends"
    if algorithm in ("randomized-rounding", "excess-tokens"):
        reason += ", order-free counter rng"
    return BackendChoice("object" if backend == "object" else "array", reason)


def resolve_backend(
    backend: str,
    assignment: Optional[TaskAssignment] = None,
    weighted: Optional[WeightedLoads] = None,
    algorithm: Optional[str] = None,
) -> BackendChoice:
    """Resolve a requested backend to a concrete one, with the reason why.

    ``"auto"`` (and an explicit ``"array"``) takes the columnar path for
    integer token vectors, :class:`WeightedLoads` and integer-weight task
    assignments; it falls back to the object backend only when the workload
    genuinely needs task objects (non-integer weights, pre-existing dummy
    tasks).  For Algorithm 2 the reason also notes that the array path
    carries the edge-keyed counter draws.  A literature baseline
    (``algorithm`` other than ``"algorithm1"`` / ``"algorithm2"``) has one
    implementation for every backend, and its reason says so, whether it
    runs statically or as a stream.  The reason string makes the whole
    decision observable.
    """
    if backend not in BACKEND_KINDS:
        raise ExperimentError(
            f"unknown backend {backend!r}; valid backends: {BACKEND_KINDS}"
        )
    if algorithm is not None and algorithm not in _FLOW_IMITATION:
        return _baseline_choice(backend, algorithm)
    if backend == "object":
        return BackendChoice("object", "requested explicitly")
    if assignment is not None:
        fallback = _assignment_fallback_reason(assignment)
        if fallback is not None:
            return BackendChoice("object", fallback)
        if assignment.max_task_weight() > 1:
            choice = BackendChoice("array", "columnar weighted buckets (integer weights)")
        else:
            choice = BackendChoice("array", "unit-token counts (assignment of tokens)")
    elif weighted is not None:
        if weighted.max_weight() > 1:
            choice = BackendChoice("array", "columnar weighted buckets")
        else:
            choice = BackendChoice("array", "unit-token counts")
    else:
        choice = BackendChoice("array", "integer token counts")
    if choice.name == "array" and algorithm == "algorithm2":
        return BackendChoice(choice.name, f"{choice.reason}, edge-keyed counter rng")
    return choice
