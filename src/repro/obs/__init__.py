"""Observability: the telemetry bus and the per-round probes.

This package is the first of the three observability layers (bus → run store
→ regression reports; see ``README.md`` "Observability"):

* :class:`MetricsBus` — a synchronous in-process publish/subscribe hub for
  structured :class:`TelemetryEvent` records;
* :class:`RoundProbe` — attaches to any balancer and emits one ``"round"``
  event (discrepancy, kernel seconds, flow/dummy statistics) per executed
  round;
* :class:`EventLog` / :class:`ConsoleSubscriber` — ready-made subscribers for
  collecting and live-printing events;
* :class:`Tracer` (:mod:`repro.obs.trace`) — spans and counters out of the
  event stream, exported as Chrome trace-event JSON, with per-phase kernel
  timing from :mod:`repro.obs.kernels`;
* the cross-process relay (:mod:`repro.obs.relay`) — pool workers capture
  their private bus streams and the grid driver re-emits them attributed
  with ``(worker, cell, seed)``, so sharded grids are no longer
  telemetry-blind;
* :class:`GridProgress` (:mod:`repro.obs.progress`) — a live cells-done/ETA
  status line for long grids.

Every run entry point accepts an optional ``bus=`` keyword
(:func:`repro.simulation.engine.run_algorithm`,
:func:`repro.dynamic.stream.run_stream`,
:func:`repro.simulation.scenario.run_scenario`,
:func:`repro.simulation.parallel.run_cells`).  Instrumentation is strictly
read-only — trajectories are bit-identical with and without a subscriber —
and unobserved runs pay a single attribute check per round.
"""

from .bus import EventLog, MetricsBus, TelemetryEvent
from .console import ConsoleSubscriber
from .kernels import KernelClock, kernel_phase
from .probe import RoundProbe
from .progress import GridProgress
from .relay import (CapturedEvent, TelemetryRecorder, event_signature,
                    relay_outcome)
from .trace import Tracer, cell_trace_summary, validate_chrome_trace

__all__ = [
    "MetricsBus",
    "TelemetryEvent",
    "EventLog",
    "RoundProbe",
    "ConsoleSubscriber",
    "Tracer",
    "cell_trace_summary",
    "validate_chrome_trace",
    "KernelClock",
    "kernel_phase",
    "GridProgress",
    "CapturedEvent",
    "TelemetryRecorder",
    "relay_outcome",
    "event_signature",
]
