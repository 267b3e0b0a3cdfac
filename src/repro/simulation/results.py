"""Result records produced by the simulation engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """The outcome of running one discrete balancing algorithm on one instance.

    Attributes
    ----------
    algorithm:
        Registry name of the algorithm (see :mod:`repro.simulation.engine`).
    continuous_kind:
        Which continuous substrate drove the run ("fos", "sos",
        "periodic-matching" or "random-matching").
    network_name / num_nodes / max_degree:
        The instance the algorithm ran on.
    rounds:
        Number of synchronous rounds executed (the continuous balancing time
        ``T`` in comparison runs).
    total_weight:
        Total weight of the original workload (excluding dummy tokens).
    max_task_weight:
        ``w_max`` of the workload.
    final_max_min / final_max_avg:
        Discrepancies of the final load vector.  For flow-imitation runs the
        loads *include* dummy tokens (the conservative view); the
        ``*_no_dummies`` fields report the same metrics after eliminating the
        dummy tokens, with the max-avg referenced to the original workload.
    dummy_tokens:
        Number of dummy tokens drawn from the infinite source (flow imitation
        only; 0 for baselines).
    used_infinite_source / went_negative:
        Failure-mode indicators: whether the infinite source was needed (flow
        imitation) or whether any node's load went negative (baselines that
        allow it).
    trace_max_min:
        Optional per-round trace of the max-min discrepancy (index 0 is the
        initial state).
    trace_total_weight:
        Optional per-round trace of the total *real* (non-dummy) load.  Only
        populated by dynamic runs, where arrivals and departures change the
        total over time; index 0 is the initial state.
    event_timeline:
        Optional chronological record of the workload/topology events of a
        dynamic run (:mod:`repro.dynamic`).  Each entry is the JSON-friendly
        dictionary of one applied (or rejected) event, with at least
        ``round``, ``kind``, ``node``, ``tokens`` and ``applied`` keys.  A
        stream stores a read-only
        :class:`~repro.dynamic.stream.EventTimeline` over its event log: it
        reads, compares and prints like that list of dicts (fresh dicts on
        every access) and :func:`~repro.store.runstore.result_payload`
        renders it as one, but ``len`` is O(1) and no dict is built until a
        row is read.
    extra:
        Free-form additional measurements (e.g. the spectral gap), plus the
        observability keys every engine run records: ``"backend"`` (the
        load-state backend ``auto`` actually resolved to) and
        ``"backend_reason"`` (why — in particular why it fell back to the
        object path, so silent fallbacks show up in benchmarks and CI).
    """

    algorithm: str
    continuous_kind: str
    network_name: str
    num_nodes: int
    max_degree: int
    rounds: int
    total_weight: float
    max_task_weight: float
    final_max_min: float
    final_max_avg: float
    final_max_min_no_dummies: Optional[float] = None
    final_max_avg_no_dummies: Optional[float] = None
    dummy_tokens: int = 0
    used_infinite_source: bool = False
    went_negative: bool = False
    trace_max_min: Optional[List[float]] = None
    trace_total_weight: Optional[List[float]] = None
    event_timeline: Optional[Sequence[Dict[str, object]]] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Return a flat dictionary view (suitable for CSV rows / dataframes).

        ``extra`` entries are merged in after the base columns; an ``extra``
        key that collides with a base column is added as ``extra_<key>``
        instead of silently overwriting the column it shadows.
        """
        row: Dict[str, object] = {
            "algorithm": self.algorithm,
            "continuous_kind": self.continuous_kind,
            "network": self.network_name,
            "n": self.num_nodes,
            "max_degree": self.max_degree,
            "rounds": self.rounds,
            "total_weight": self.total_weight,
            "w_max": self.max_task_weight,
            "max_min": self.final_max_min,
            "max_avg": self.final_max_avg,
            "max_min_no_dummies": self.final_max_min_no_dummies,
            "max_avg_no_dummies": self.final_max_avg_no_dummies,
            "dummy_tokens": self.dummy_tokens,
            "used_infinite_source": self.used_infinite_source,
            "went_negative": self.went_negative,
        }
        if self.event_timeline is not None:
            row["events"] = len(self.event_timeline)
        for key, value in self.extra.items():
            row[f"extra_{key}" if key in row else key] = value
        return row
