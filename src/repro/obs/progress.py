"""Live grid progress: a ``cell_done`` subscriber that renders a status line.

Long sharded grids (:mod:`repro.simulation.parallel`) otherwise run silent
until the pool drains.  :class:`GridProgress` subscribes to the driver bus's
``cell_done`` envelopes and keeps a single status line current::

    [grid] 17/64 cells · 26.6% · elapsed 12.4s · eta 34.3s · 4 workers busy 46.1s

On a TTY the line redraws in place (``\\r``); piped or captured output gets
one flushed line per update instead, so CI logs and ``tee`` stay readable.
:meth:`finish` prints a final utilization summary built from
:func:`repro.simulation.parallel.timing_summary`'s wall-clock fields.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, Optional, TextIO

from .bus import TelemetryEvent

__all__ = ["GridProgress"]


class GridProgress:
    """Render cells-done / ETA / per-worker busy seconds from ``cell_done``.

    Subscribe it to the driver bus (``bus.subscribe(progress)``) before
    running a grid, or pass it as ``progress=`` to
    :func:`repro.simulation.parallel.run_cells`, which invokes it directly in
    completion order.
    """

    def __init__(self, total: int, label: str = "grid",
                 stream: Optional[TextIO] = None,
                 clock=time.perf_counter) -> None:
        self.total = int(total)
        self.label = label
        self._stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._started = clock()
        self.done = 0
        self.retries = 0
        self.failed = 0
        self.busy_by_worker: Dict[int, float] = {}
        self._is_tty = bool(getattr(self._stream, "isatty", lambda: False)())
        self._line_open = False

    # ------------------------------------------------------------------ #

    def __call__(self, event: TelemetryEvent) -> None:
        if event.kind == "cell_retry":
            self.note_retry()
        elif event.kind == "cell_failed":
            self.note_failure()
        if event.kind != "cell_done":
            return
        self.update(worker_pid=event.payload.get("worker_pid"),
                    seconds=float(event.payload.get("seconds", 0.0)))

    def update(self, worker_pid: Optional[int] = None,
               seconds: float = 0.0) -> None:
        """Record one finished cell and redraw the status line.

        ``seconds`` is the cell's successful-attempt wall-clock only — the
        grid driver reports wasted retry attempts via
        :meth:`note_retry`, so busy-seconds never double-count a cell.
        """
        self.done += 1
        if worker_pid is not None:
            pid = int(worker_pid)
            self.busy_by_worker[pid] = self.busy_by_worker.get(pid, 0.0) + seconds
        self._render()

    def note_retry(self) -> None:
        """Record one failed-and-requeued attempt (drawn as ``N retries``)."""
        self.retries += 1
        self._render()

    def note_failure(self) -> None:
        """Record one permanently failed cell: it is done, but failed."""
        self.done += 1
        self.failed += 1
        self._render()

    # ------------------------------------------------------------------ #

    @property
    def elapsed(self) -> float:
        return self._clock() - self._started

    @property
    def eta_seconds(self) -> Optional[float]:
        """Projected seconds remaining, from the mean per-cell rate so far."""
        if not self.done or self.done >= self.total:
            return None
        return self.elapsed / self.done * (self.total - self.done)

    def status_line(self) -> str:
        parts = [f"[{self.label}] {self.done}/{self.total} cells"]
        if self.total:
            parts.append(f"{self.done / self.total * 100.0:.1f}%")
        parts.append(f"elapsed {self.elapsed:.1f}s")
        eta = self.eta_seconds
        if eta is not None:
            parts.append(f"eta {eta:.1f}s")
        if self.busy_by_worker:
            busy = sum(self.busy_by_worker.values())
            parts.append(f"{len(self.busy_by_worker)} workers busy {busy:.1f}s")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.failed:
            parts.append(f"{self.failed} failed")
        return " · ".join(parts)

    def _render(self) -> None:
        line = self.status_line()
        if self._is_tty:
            self._stream.write("\r\x1b[2K" + line)
            self._line_open = True
        else:
            self._stream.write(line + "\n")
        self._stream.flush()

    def finish(self) -> str:
        """Close the live line and print the utilization summary; returns it."""
        wall = self.elapsed
        busy = sum(self.busy_by_worker.values())
        workers = max(len(self.busy_by_worker), 1)
        utilization = busy / (wall * workers) if wall > 0 else 0.0
        summary = (f"[{self.label}] {self.done}/{self.total} cells in "
                   f"{wall:.1f}s wall · busy {busy:.1f}s across {workers} "
                   f"worker(s) · utilization {utilization * 100.0:.0f}%")
        if self.retries:
            summary += f" · {self.retries} retries"
        if self.failed:
            summary += f" · {self.failed} cells failed"
        if self._line_open:
            self._stream.write("\n")
            self._line_open = False
        self._stream.write(summary + "\n")
        self._stream.flush()
        return summary
