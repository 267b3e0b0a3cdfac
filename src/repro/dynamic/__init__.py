"""Dynamic-workload subsystem: streaming task churn and time-varying topologies.

This package drives any balancer of the registry (the paper's Algorithms 1
and 2 as well as every baseline) through *time-varying* scenarios:

* :mod:`repro.dynamic.events` — the event model: columnar per-round event
  batches, task arrival/departure streams (Poisson, bursty, adversarial
  hotspot) and node join/leave churn, plus the named profile registry
  (:data:`EVENT_PROFILES`);
* :mod:`repro.dynamic.stream` — the streaming engine that interleaves events
  with balancing rounds and re-couples the continuous substrate whenever the
  graph or the total load changes;
* :mod:`repro.dynamic.metrics` — steady-state discrepancy, post-burst
  recovery time, drain rate and time-in-band summaries.
"""

from .events import (
    ARRIVAL,
    DEPARTURE,
    EVENT_KINDS,
    EVENT_PROFILES,
    JOIN,
    LEAVE,
    AdversarialHotspot,
    BurstyArrivals,
    CompositeGenerator,
    DynamicEvent,
    EventBatch,
    EventGenerator,
    NodeChurn,
    PoissonArrivals,
    PoissonDepartures,
    ScheduledEvents,
    StreamView,
    make_event_generator,
)
from .metrics import (
    burst_rounds,
    drain_rate,
    recovery_report,
    recovery_time,
    steady_state_discrepancy,
    summarize_dynamic,
    time_in_band,
)
from .stream import EventTimeline, StreamingEngine, run_stream

__all__ = [
    "ARRIVAL",
    "DEPARTURE",
    "JOIN",
    "LEAVE",
    "EVENT_KINDS",
    "EVENT_PROFILES",
    "DynamicEvent",
    "EventBatch",
    "StreamView",
    "EventGenerator",
    "ScheduledEvents",
    "PoissonArrivals",
    "PoissonDepartures",
    "BurstyArrivals",
    "AdversarialHotspot",
    "NodeChurn",
    "CompositeGenerator",
    "make_event_generator",
    "StreamingEngine",
    "EventTimeline",
    "run_stream",
    "steady_state_discrepancy",
    "recovery_time",
    "recovery_report",
    "burst_rounds",
    "drain_rate",
    "time_in_band",
    "summarize_dynamic",
]
