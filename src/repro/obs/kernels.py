"""Kernel-phase timing: a per-process clock the backend kernels report into.

The :class:`~repro.obs.probe.RoundProbe` already measures whole-round kernel
wall-clock; profiling a run further needs the *phases inside* a round — how
much of a round went into advancing the continuous substrate versus executing
the discrete rounding kernel.  Rather than threading a timer object through
every balancer constructor, the kernels wrap their hot sections in
:func:`kernel_phase` blocks that report into a single per-process
:class:`KernelClock` — active only while something (a
:class:`~repro.obs.trace.Tracer`, a capturing pool worker) has installed one.

When no clock is installed a :func:`kernel_phase` block costs one global read
per ``__enter__``/``__exit__`` — no timestamps are taken — so uninstrumented
runs keep the library's near-zero-overhead observability contract.  Phase
timing is strictly read-only: activating a clock can never change a
trajectory, only measure it.

The probe drains the clock once per round (:func:`drain_round_phases`), so
per-round ``"round"`` telemetry events carry a ``kernel_phases`` payload —
``{phase name: seconds}`` — whenever a clock is active.  Phase names follow a
``family/kernel`` convention so hot-kernel tables group naturally:
``"continuous/advance"`` (the substrate), ``"flow/object-round"`` (both
algorithms on the object backend), ``"flow/array-round"`` (both algorithms
on the array backend, unit or weighted), ``"baseline/excess-array"`` (the
batched counter-rng round of the excess-token baseline, on every backend), and
the dynamic stream's step outside the balancer: ``"stream/generate"``
(polling the event generator for a round's batch), ``"stream/apply"``
(applying the batch to the per-label state and logging it),
``"stream/recouple-fast"`` (the in-place load re-coupling),
``"stream/recouple-full"`` (the rebuild after a join or leave) and
``"stream/sync"`` (pulling the balanced loads back into the per-label
counts).  A stream's phases before the balancing round land in that
round's kernel phases; ``"stream/sync"``, which runs after it, lands in the
next round's (the last round's sync only in the clock's totals).  Checkpoints report
``"checkpoint/write"``, ``"checkpoint/read"`` and ``"checkpoint/replay"``
(restoring an engine: re-coupling at the boundary and replaying the rounds
since).
"""

from __future__ import annotations

import time
from typing import Dict, Optional

__all__ = [
    "KernelClock",
    "kernel_phase",
    "activate_kernel_clock",
    "deactivate_kernel_clock",
    "active_kernel_clock",
    "drain_round_phases",
]

#: The installed per-process clock (``None`` = phase timing off).
_ACTIVE: Optional["KernelClock"] = None


class KernelClock:
    """Accumulates per-phase kernel seconds between drains.

    ``pending`` holds the seconds accumulated since the last
    :meth:`drain` (one balancing round, in practice); ``totals`` and
    ``counts`` keep the run-level aggregate a profiler summary needs.
    """

    def __init__(self) -> None:
        self.pending: Dict[str, float] = {}
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def add(self, name: str, seconds: float) -> None:
        """Record one timed phase block."""
        self.pending[name] = self.pending.get(name, 0.0) + seconds
        self.totals[name] = self.totals.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + 1

    def drain(self) -> Dict[str, float]:
        """Return and clear the phases accumulated since the last drain."""
        pending = self.pending
        self.pending = {}
        return pending


class _PhaseBlock:
    """The reusable context manager behind :func:`kernel_phase`."""

    __slots__ = ("_name", "_start")

    def __init__(self, name: str) -> None:
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_PhaseBlock":
        if _ACTIVE is not None:
            self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        clock = _ACTIVE
        if clock is not None:
            clock.add(self._name, time.perf_counter() - self._start)
        return False


def kernel_phase(name: str) -> _PhaseBlock:
    """A ``with`` block that reports its wall-clock to the active clock.

    Near-free when no clock is installed; kernels wrap their hot sections in
    these unconditionally.
    """
    return _PhaseBlock(name)


def activate_kernel_clock(clock: Optional[KernelClock] = None) -> KernelClock:
    """Install ``clock`` (or a fresh one) as this process's phase collector."""
    global _ACTIVE
    _ACTIVE = clock if clock is not None else KernelClock()
    return _ACTIVE


def deactivate_kernel_clock() -> None:
    """Remove the installed clock (phase blocks become no-ops again)."""
    global _ACTIVE
    _ACTIVE = None


def active_kernel_clock() -> Optional[KernelClock]:
    """The currently installed clock, or ``None``."""
    return _ACTIVE


def drain_round_phases() -> Optional[Dict[str, float]]:
    """Drain the active clock's per-round phases (``None`` when off/empty)."""
    clock = _ACTIVE
    if clock is None or not clock.pending:
        return None
    return clock.drain()
