"""Exception hierarchy for the :mod:`repro` load balancing library.

All library-specific errors derive from :class:`ReproError` so that callers
can distinguish configuration or modelling errors raised by this package from
generic Python exceptions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` package."""


class NetworkError(ReproError):
    """Raised when a network (graph/speed) specification is invalid."""


class TopologyError(NetworkError):
    """Raised when a topology generator receives unsupported parameters."""


class TaskError(ReproError):
    """Raised when a task or a task assignment is invalid."""


class ProcessError(ReproError):
    """Raised when a balancing process is misconfigured or misused."""


class NegativeLoadError(ProcessError):
    """Raised when a continuous process would create negative load.

    The flow-imitation framework (Algorithms 1 and 2 of the paper) requires
    the underlying continuous process not to induce negative load on the
    initial load vector (Definition 1).  Processes raise this error when the
    condition is violated and the caller asked for strict checking.
    """


class ConvergenceError(ProcessError):
    """Raised when a process fails to converge within the allowed rounds."""


class ScheduleError(ProcessError):
    """Raised when a matching schedule is invalid (e.g. not a matching)."""


class ExperimentError(ReproError):
    """Raised when an experiment or benchmark configuration is invalid."""


class CheckpointError(ExperimentError):
    """Raised when a stream checkpoint cannot be written, read or restored.

    Covers truncated or corrupt checkpoint files, format-version mismatches,
    configuration-hash mismatches (the checkpoint describes a different run
    than the one being resumed) and post-restore integrity failures.
    """


class FaultInjected(ReproError):
    """Raised by the fault-injection harness (:mod:`repro.faults`).

    Tests inject this into grid cells to exercise the retry and
    graceful-degradation paths of the parallel driver; seeing it escape
    anywhere else means a fault plan leaked into a production run.
    """
