"""Metrics for dynamic (streaming) balancing runs.

Static runs are judged by their final discrepancy against the paper's
bounds.  Dynamic runs never "finish" — the interesting quantities are about
behaviour over time:

* **steady-state discrepancy**: the discrepancy level the system settles at
  under a sustained stream (trailing-window mean);
* **recovery time**: how many rounds after a burst the discrepancy needs to
  re-enter a target band — the natural band is the Theorem-3-style static
  guarantee ``2 d w_max + 2`` of the *current* configuration;
* **drain rate**: how fast the discrepancy backlog created by a burst is
  worked off (discrepancy units per round during recovery);
* **time in band**: the fraction of rounds the system spends within the band.

All functions operate on the ``trace_max_min`` / ``event_timeline`` fields of
a :class:`~repro.simulation.results.RunResult` produced by
:func:`repro.dynamic.stream.run_stream`, so they can also be applied to
traces loaded from disk (a plain list of event dicts works as a timeline).
Trace index ``t`` is the state *after* round ``t - 1`` (index 0 is the
initial state); an event applied at the start of round ``t`` therefore first
shows up at trace index ``t + 1``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import ExperimentError
from ..simulation.results import RunResult
from .stream import EventTimeline

__all__ = [
    "steady_state_discrepancy",
    "recovery_time",
    "burst_rounds",
    "recovery_report",
    "drain_rate",
    "time_in_band",
    "summarize_dynamic",
]


def steady_state_discrepancy(trace: Sequence[float], window: int = 50) -> float:
    """Mean discrepancy over the trailing ``window`` trace entries."""
    if not len(trace):
        raise ExperimentError("cannot summarise an empty trace")
    if window < 1:
        raise ExperimentError("window must be at least 1")
    tail = np.asarray(trace[-window:], dtype=float)
    return float(tail.mean())


def recovery_time(trace: Sequence[float], event_round: int, band: float) -> Optional[int]:
    """Rounds until the trace re-enters ``band`` after the given event round.

    ``event_round`` is the round at whose start the disturbance was applied;
    the search starts at trace index ``event_round + 1`` (the first state
    that can reflect it).  Returns the number of rounds from the event until
    the first in-band state, or ``None`` if the trace never recovers.
    """
    if event_round < 0:
        raise ExperimentError("event_round must be non-negative")
    for index in range(event_round + 1, len(trace)):
        if trace[index] <= band:
            return index - event_round
    return None


def burst_rounds(timeline: Sequence[Dict[str, object]],
                 tag: str = "burst") -> List[int]:
    """Rounds at which applied events with the given tag fired.

    A stream's :class:`~repro.dynamic.stream.EventTimeline` is scanned with
    one mask over its ``round``/``tag``/``applied`` columns; any other
    sequence of event dicts is read entry by entry.
    """
    if isinstance(timeline, EventTimeline):
        if tag not in timeline.tags:
            return []
        chosen = ((timeline.column("tag") == timeline.tags.index(tag))
                  & (timeline.column("applied") == 1))
        return timeline.column("round")[chosen].tolist()
    return [int(entry["round"]) for entry in timeline
            if entry.get("tag") == tag and entry.get("applied")]


def drain_rate(trace: Sequence[float], start: int, end: int) -> float:
    """Average discrepancy decrease per round between two trace indices."""
    if not 0 <= start < end < len(trace):
        raise ExperimentError(
            f"invalid trace window [{start}, {end}] for a trace of length {len(trace)}")
    return float((trace[start] - trace[end]) / (end - start))


def time_in_band(trace: Sequence[float], band: float, start: int = 0) -> float:
    """Fraction of trace entries (from ``start``) that lie within ``band``."""
    values = np.asarray(trace[start:], dtype=float)
    if values.size == 0:
        raise ExperimentError("cannot summarise an empty trace window")
    return float(np.mean(values <= band))


def recovery_report(result: RunResult, band: float,
                    tag: str = "burst") -> List[Dict[str, object]]:
    """Per-burst recovery summary for a dynamic run result.

    For every applied event tagged ``tag``, reports the peak discrepancy
    reached after the event, the recovery time back into ``band`` and the
    drain rate over the recovery window.  Recovery is measured against the
    next burst (or the end of the trace), so overlapping bursts do not blame
    each other.
    """
    if result.trace_max_min is None or result.event_timeline is None:
        raise ExperimentError(
            "recovery_report needs a dynamic result with traces and a timeline")
    trace = result.trace_max_min
    # Two burst events landing on the same round are one disturbance as far
    # as recovery is concerned; without the dedupe the duplicated round makes
    # ``horizon == event_round``, the peak window empty and the peak NaN.
    rounds = sorted(dict.fromkeys(burst_rounds(result.event_timeline, tag=tag)))
    reports: List[Dict[str, object]] = []
    for position, event_round in enumerate(rounds):
        horizon = rounds[position + 1] if position + 1 < len(rounds) else len(trace) - 1
        # The event fires at the start of round event_round, so the first
        # trace index that can reflect it is event_round + 1.
        window = trace[event_round + 1:min(horizon, len(trace) - 1) + 1]
        recovered = recovery_time(trace[:horizon + 1], event_round, band)
        entry: Dict[str, object] = {
            "round": event_round,
            "peak": float(max(window)) if len(window) else float("nan"),
            "recovery_time": recovered,
        }
        if recovered is not None and recovered > 1:
            # Drain from the first state that reflects the burst (index
            # event_round + 1) down to the first in-band state.
            entry["drain_rate"] = drain_rate(trace, event_round + 1,
                                             event_round + recovered)
        reports.append(entry)
    return reports


def summarize_dynamic(result: RunResult, band: float, window: int = 50,
                      tag: str = "burst", start: int = 0) -> Dict[str, object]:
    """One-row summary of a dynamic run (used by the CLI and the benchmarks).

    ``start`` discards the first ``start`` trace entries from the
    ``time_in_band`` fraction — the warm-up prefix of a stream (e.g. the
    initial point-load transient) is about the starting condition, not the
    steady-state behaviour, and counting it dilutes the fraction.
    """
    if result.trace_max_min is None:
        raise ExperimentError("summarize_dynamic needs a result with trace_max_min")
    if start < 0:
        raise ExperimentError("start (the warm-up prefix) must be non-negative")
    trace = result.trace_max_min
    reports = recovery_report(result, band, tag=tag) if result.event_timeline else []
    recoveries = [entry["recovery_time"] for entry in reports
                  if entry["recovery_time"] is not None]
    summary: Dict[str, object] = {
        "band": float(band),
        "steady_state": steady_state_discrepancy(trace, window=window),
        "time_in_band": time_in_band(trace, band, start=start),
        "final_max_min": result.final_max_min,
        "bursts": len(reports),
        "recovered_bursts": len(recoveries),
        "mean_recovery_time": float(np.mean(recoveries)) if recoveries else None,
    }
    return summary
