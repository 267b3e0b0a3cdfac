"""The grid driver: one scheduler for sweep and scenario grids.

Seed x configuration grids are embarrassingly parallel: every (cell, seed)
run is a pure function of a small, picklable spec — a
:class:`~repro.simulation.scenario.Scenario` (static, or a stream when its
``events`` is set), or a :class:`~repro.simulation.sweep.SweepConfiguration`
plus a seed, which stands for the scenario
:meth:`~repro.simulation.sweep.SweepConfiguration.scenario` returns.  This
module shards a grid of such cells across a
:class:`~concurrent.futures.ProcessPoolExecutor` and merges the per-run
:class:`~repro.simulation.results.RunResult`s back in grid order,
**bit-identically** to the serial path:

* every worker executes exactly the same per-cell call the serial loop
  makes, :func:`~repro.simulation.scenario.run_scenario` of the cell's
  scenario;
* per-purpose seed derivation (:mod:`repro.simulation.seeding`) makes each
  run a pure function of its spec — nothing depends on which worker runs it
  or in what order;
* the randomized algorithms key every draw on ``(seed, round,
  edge-or-node)`` (:mod:`repro.counter_rng`), so trajectories are exactly
  reproducible regardless of scheduling.

Results come back wrapped in :class:`CellOutcome` envelopes carrying
per-cell wall-clock timing and the worker pid, so drivers (and
perfbench's ``grid-paper`` workload) can report scaling and load-balance without
touching the :class:`RunResult` payloads being merged.

Telemetry crosses the process boundary by capture-and-relay
(:mod:`repro.obs.relay`): when the driver bus has a subscriber, each worker
runs its cell against a private bus with a recorder attached (plus an active
kernel-phase clock, :mod:`repro.obs.kernels`), and the captured stream rides
back inside the :class:`CellOutcome`.  The driver re-emits every event on
the main bus tagged with ``(worker, cell, cell_seed)`` — in **cell input
order**, buffering out-of-order completions — so the relayed stream is
identical (modulo attribution and wall-clock fields) at any worker count,
including ``workers=1``, which uses the same capture path.

:func:`run_cells` is the only scheduler and the only way to run a grid.
Cells are submitted one at a time with a bounded number in flight; at
``workers=1`` the same loop drives an in-process executor that runs each
cell inline, so retry, failure and relay handling exist once.  The loop is
**self-healing**: failed attempts (in-cell exceptions, timeouts, worker
crashes up to and including a broken pool, which is rebuilt) are retried
with exponential backoff when ``max_retries`` allows, and under
``strict=False`` a grid degrades to partial results plus a structured
:class:`CellFailure` report instead of losing everything.  Because cells
are pure functions of their specs, a fault-recovered grid is bit-identical
to a fault-free one.

The rest of the grid API builds and merges cells: :func:`sweep_cells`
flattens a configuration x seed grid, and :func:`merge_sweeps` groups the
outcomes back into one :class:`~repro.simulation.sweep.SweepResult` per
configuration.  Scenario grids are lists of ``GridCell(kind="scenario" |
"dynamic", spec=scenario, index=i)``; the ``kind`` is a label for records
and telemetry, and every cell runs through the same call.
"""

from __future__ import annotations

import heapq
import os
import random
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..exceptions import ExperimentError
from ..faults import FaultPlan
from ..obs.bus import MetricsBus
from ..obs.kernels import activate_kernel_clock, deactivate_kernel_clock
from ..obs.relay import CapturedEvent, TelemetryRecorder, relay_outcome
from .results import RunResult
from .scenario import Scenario, run_scenario
from .sweep import SweepConfiguration, SweepResult

__all__ = [
    "GridCell",
    "CellOutcome",
    "CellFailure",
    "default_workers",
    "run_cells",
    "sweep_cells",
    "merge_sweeps",
    "failed_cells",
    "timing_summary",
]

#: The labels a cell may carry (sweep configuration, static or event scenario).
_KINDS = ("sweep", "scenario", "dynamic")


@dataclass(frozen=True)
class GridCell:
    """One schedulable unit of a grid: a picklable spec plus its grid position.

    ``index`` is the cell's position in the caller's grid (used to merge
    results back in grid order).  A :class:`Scenario` spec runs as is; a
    :class:`SweepConfiguration` spec runs at ``seed`` with the remaining
    sweep options (see :meth:`scenario`).  ``kind`` labels the cell in
    records, telemetry and failure reports; it never selects the runner.
    """

    kind: str
    spec: Union[SweepConfiguration, Scenario]
    index: int
    seed: Optional[int] = None
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ExperimentError(
                f"unknown grid cell kind {self.kind!r}; valid kinds: {_KINDS}")

    def scenario(self) -> Scenario:
        """The scenario this cell runs."""
        if isinstance(self.spec, Scenario):
            return self.spec
        return self.spec.scenario(self.seed, record_trace=self.record_trace)


@dataclass(frozen=True)
class CellFailure:
    """Why one grid cell permanently failed (all retries exhausted).

    ``kind`` classifies the last failure: ``"error"`` (the cell raised),
    ``"timeout"`` (it exceeded the per-cell timeout), or ``"worker-crash"``
    (its pool worker died — the cell was in flight when the pool broke, so
    the crash is attributed to every in-flight cell, Spark-style).
    ``attempts`` counts every execution attempt including the first.
    """

    position: int
    index: int
    seed: Optional[int]
    label: str
    kind: str
    attempts: int
    error: str


@dataclass
class CellOutcome:
    """A finished cell: its result plus scheduling metadata.

    ``seconds`` is the in-worker wall-clock of the run itself (pickling and
    queueing excluded) and ``started`` the worker's monotonic clock at cell
    start; ``worker_pid`` identifies which pool process ran it.  When the
    cell ran with telemetry capture, ``events`` holds its complete in-worker
    event stream for the driver to relay.

    ``attempts`` counts executions (1 = first try succeeded) and
    ``retry_seconds`` the driver-side wall-clock burnt by failed attempts —
    kept separate from ``seconds`` so utilization never double-counts a
    retried cell.  A permanently failed cell (non-strict mode only) has
    ``result=None``, ``worker_pid=-1`` and its :class:`CellFailure` attached.
    """

    cell: GridCell
    result: Optional[RunResult]
    seconds: float
    worker_pid: int
    started: Optional[float] = None
    events: Optional[List[CapturedEvent]] = field(default=None, repr=False)
    attempts: int = 1
    retry_seconds: float = 0.0
    failure: Optional[CellFailure] = None


def failed_cells(outcomes: Sequence[CellOutcome]) -> List[CellFailure]:
    """The structured failure report of a non-strict grid (empty = all ran)."""
    return [outcome.failure for outcome in outcomes
            if outcome.failure is not None]


def _execute_cell(cell: GridCell, capture: bool = False,
                  faults: Optional[FaultPlan] = None, position: int = 0,
                  attempt: int = 1) -> CellOutcome:
    """Run one cell (in a pool worker or inline) — the only execution path.

    With ``capture=True`` the cell runs against a private bus with a
    :class:`~repro.obs.relay.TelemetryRecorder` subscribed and a kernel-phase
    clock active, and the recorded stream is returned on the outcome.  The
    probes are read-only, so the trajectory is bit-identical either way.

    ``faults`` hooks in the test-only injection harness
    (:mod:`repro.faults`): the plan fires before the run starts, keyed on the
    cell's grid ``position`` and the 1-based ``attempt`` number.
    """
    if faults is not None:
        faults.apply(position, attempt)
    bus: Optional[MetricsBus] = None
    recorder: Optional[TelemetryRecorder] = None
    if capture:
        bus = MetricsBus()
        recorder = TelemetryRecorder()
        bus.subscribe(recorder)
        activate_kernel_clock()
    try:
        start = time.perf_counter()  # repro: allow[R002] cell timing envelope
        result = run_scenario(cell.scenario(), bus=bus)
        # repro: allow[R002] cell timing envelope (CellOutcome.seconds)
        seconds = time.perf_counter() - start
    finally:
        if capture:
            deactivate_kernel_clock()
    return CellOutcome(cell=cell, result=result, seconds=seconds,
                       worker_pid=os.getpid(), started=start,
                       events=recorder.events if recorder is not None else None)


class _InlineExecutor:
    """The ``workers=1`` executor: ``submit`` runs the cell in this process.

    It hands back an already-settled future, so :func:`run_cells` drives a
    serial grid through the same loop as a pooled one.  There is no worker
    to police: ``cell_timeout`` is not enforced, and a kill fault would take
    the driver down (fault plans are test instruments — see
    :mod:`repro.faults`).
    """

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


def _executor(workers: int):
    return _InlineExecutor() if workers == 1 \
        else ProcessPoolExecutor(max_workers=workers)


def _available_cores() -> int:
    """Cores this process may actually use (affinity/cgroup aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_workers(num_cells: int) -> int:
    """The default pool size: one worker per usable core, never more than cells."""
    return max(1, min(num_cells, _available_cores()))


def _cell_label(cell: GridCell) -> str:
    if isinstance(cell.spec, SweepConfiguration):
        return f"{cell.spec.label()} seed={cell.seed}"
    return cell.spec.name


def _emit_cell_done(bus, outcome: CellOutcome, position: int) -> None:
    """Publish one finished cell's envelope on the driver-side telemetry bus."""
    if bus is None or not bus.active:
        return
    result = outcome.result
    payload = dict(cell_kind=outcome.cell.kind, index=outcome.cell.index,
                   seed=outcome.cell.seed, label=_cell_label(outcome.cell),
                   seconds=outcome.seconds, worker_pid=outcome.worker_pid,
                   rounds=result.rounds, max_min=result.final_max_min,
                   position=position)
    if outcome.started is not None:
        payload["started"] = outcome.started
    bus.emit("cell_done", "parallel", **payload)


def _deliver(bus, outcome: CellOutcome, position: int) -> None:
    """Relay one cell's captured stream, then its ``cell_done`` envelope.

    ``position`` is the cell's place in the grid's flat cell list — unique
    per cell, unlike ``GridCell.index`` which identifies the *merge group*
    (the configuration) and is shared by all its seeds — so trace viewers
    get one lane per cell.

    Permanently failed cells (``result=None``) deliver nothing here: their
    ``cell_failed`` envelope was emitted at failure time, and keeping them
    out of the relay is what makes the relayed stream invariant under
    retries and worker counts.
    """
    if outcome.result is None:
        return
    if outcome.events is not None:
        relay_outcome(bus, outcome.events, worker=outcome.worker_pid,
                      cell=position, cell_seed=outcome.cell.seed)
    _emit_cell_done(bus, outcome, position)


def run_cells(cells: Sequence[GridCell], workers: Optional[int] = None,
              bus=None, progress=None,
              cell_timeout: Optional[float] = None,
              max_retries: int = 0,
              strict: bool = True,
              faults: Optional[FaultPlan] = None,
              retry_backoff: float = 0.05) -> List[CellOutcome]:
    """Execute a list of grid cells, sharded across a process pool.

    Returns one :class:`CellOutcome` per cell **in input order** regardless
    of completion order (the contract that makes merges deterministic).
    ``workers=None`` uses one worker per available core; ``workers=1`` (also
    the fallback for single-cell grids) runs the cells inline in this
    process through the same scheduling loop.

    Cells are submitted individually, at most two per worker in flight so
    the pool never idles while the driver handles a result.  With
    ``cell_timeout`` set (and inline) the cap is one per worker, so a
    cell's clock starts when the cell starts running.

    ``bus`` receives the run's telemetry on the driver side.  When the bus
    has a subscriber, workers capture their in-cell event streams and the
    driver relays them — every round, kernel and recouple event, tagged
    with ``(worker, cell, cell_seed)`` — followed by one ``cell_done``
    envelope per cell.  Relay order is cell input order at any worker
    count: out-of-order completions are buffered until their predecessors
    have been delivered.

    ``progress`` is an optional callback with an ``update(worker_pid=...,
    seconds=...)`` method (see :class:`repro.obs.progress.GridProgress`),
    invoked in *completion* order so the status line moves in real time.

    Failure handling:

    * a failed attempt — an in-cell exception, a cell running past
      ``cell_timeout`` seconds, or a worker crash (``BrokenProcessPool``,
      after which the pool is rebuilt) — is retried up to ``max_retries``
      times with exponential backoff (base ``retry_backoff`` seconds) and
      deterministic jitter, emitting a ``cell_retry`` event per retry;
    * a cell whose retries are exhausted raises its original error under
      ``strict=True`` (the default) or, under ``strict=False``, yields a
      ``result=None`` outcome with a :class:`CellFailure` attached and a
      ``cell_failed`` event — the grid degrades to partial results (see
      :func:`failed_cells`) instead of losing everything;
    * ``faults`` injects deterministic faults (:mod:`repro.faults`).

    A pool breaks as a whole, so a crash charges an attempt to every
    in-flight cell, and a timeout kills the pool: the overdue cells are
    charged an attempt and the collateral in-flight cells are resubmitted
    without being charged.  Because every retry re-executes the same pure
    per-cell function, fault-recovered grids are bit-identical to
    fault-free ones.  Inline (``workers=1``) there is no pool to police:
    retries work but ``cell_timeout`` is not enforced.
    """
    cells = list(cells)
    if not cells:
        return []
    if workers is not None and workers < 1:
        raise ExperimentError("workers must be at least 1")
    if max_retries < 0:
        raise ExperimentError("max_retries must be non-negative")
    if cell_timeout is not None and cell_timeout <= 0:
        raise ExperimentError("cell_timeout must be positive")
    if workers is None:
        workers = default_workers(len(cells))
    workers = min(workers, len(cells))
    capture = bus is not None and bus.active
    limit = workers if cell_timeout is not None or workers == 1 \
        else 2 * workers
    state = _RetryState(cells, bus, progress, max_retries, strict,
                        retry_backoff)
    slots: List[Optional[CellOutcome]] = [None] * len(cells)
    next_delivery = 0
    # ready queue of (ready_at, position, attempt); ready_at in time.monotonic
    ready: List[Tuple[float, int, int]] = [
        (0.0, position, 1) for position in range(len(cells))]
    inflight: Dict[Future, Tuple[int, int, float]] = {}
    executor = _executor(workers)

    def settle(position: int, attempt: int, kind: str, message: str,
               elapsed: float, exc: Optional[BaseException] = None) -> None:
        """One attempt failed: schedule the retry or slot the failure."""
        retry, failed = state.note_failure(position, attempt, kind, message,
                                           elapsed, exc=exc)
        if retry:
            # repro: allow[R002] retry-backoff deadline (driver scheduling)
            heapq.heappush(ready, (time.monotonic()
                                   + state.delay(position, attempt),
                                   position, attempt + 1))
        else:
            slots[position] = failed

    try:
        while ready or inflight:
            now = time.monotonic()  # repro: allow[R002] dispatch deadline clock
            while ready and len(inflight) < limit and ready[0][0] <= now:
                _, position, attempt = heapq.heappop(ready)
                # before submit: the inline executor runs the cell in submit
                # repro: allow[R002] cell-timeout deadline bookkeeping
                started = time.monotonic()
                future = executor.submit(_execute_cell, cells[position],
                                         capture, faults, position, attempt)
                inflight[future] = (position, attempt, started)
            if not inflight:
                # everything runnable is waiting out its backoff
                # repro: allow[R002] retry-backoff wait (driver scheduling)
                time.sleep(max(0.0, ready[0][0] - time.monotonic()))
                continue
            timeout = None
            if cell_timeout is not None:
                deadline = min(started + cell_timeout
                               for _, _, started in inflight.values())
                # repro: allow[R002] cell-timeout deadline (driver scheduling)
                timeout = max(0.0, deadline - time.monotonic())
            if ready and len(inflight) < limit:
                # repro: allow[R002] retry-backoff deadline (driver scheduling)
                until_ready = max(0.0, ready[0][0] - time.monotonic())
                timeout = until_ready if timeout is None \
                    else min(timeout, until_ready)
            done, _ = wait(set(inflight), timeout=timeout,
                           return_when=FIRST_COMPLETED)
            broken = False
            for future in done:
                position, attempt, started = inflight.pop(future)
                # repro: allow[R002] attempt timing envelope
                elapsed = time.monotonic() - started
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    broken = True
                    settle(position, attempt, "worker-crash",
                           "worker process died", elapsed)
                except Exception as exc:
                    settle(position, attempt, "error",
                           f"{type(exc).__name__}: {exc}", elapsed, exc=exc)
                else:
                    state.finish(outcome, attempt, position)
                    slots[position] = outcome
                    if progress is not None:
                        progress.update(worker_pid=outcome.worker_pid,
                                        seconds=outcome.seconds)
            if broken:
                # the pool is unusable; every other in-flight cell died too
                for position, attempt, started in inflight.values():
                    settle(position, attempt, "worker-crash",
                           "worker process died",
                           # repro: allow[R002] attempt timing envelope
                           time.monotonic() - started)
                inflight.clear()
                _abandon_pool(executor)
                executor = _executor(workers)
            elif cell_timeout is not None and inflight:
                # repro: allow[R002] cell-timeout overdue scan
                now = time.monotonic()
                overdue = [(future, meta) for future, meta in inflight.items()
                           if now - meta[2] > cell_timeout]
                if overdue:
                    for future, (position, attempt, started) in overdue:
                        del inflight[future]
                        settle(position, attempt, "timeout",
                               f"cell exceeded cell_timeout={cell_timeout}s",
                               now - started)
                    # collateral damage: resubmit without charging an attempt
                    for position, attempt, _ in inflight.values():
                        heapq.heappush(ready, (0.0, position, attempt))
                    inflight.clear()
                    _abandon_pool(executor)
                    executor = _executor(workers)
            while next_delivery < len(slots) \
                    and slots[next_delivery] is not None:
                _deliver(bus, slots[next_delivery], next_delivery)
                next_delivery += 1
    except BaseException:
        # strict failure or ^C: don't block behind still-running cells —
        # they are pure functions, killing them loses nothing
        _abandon_pool(executor)
        raise
    executor.shutdown(wait=True)
    return list(slots)


# ---------------------------------------------------------------------- #
# retries, timeouts and pool teardown
# ---------------------------------------------------------------------- #


def _abandon_pool(executor: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting for its cells: kill the workers.

    Used on KeyboardInterrupt (don't block the user's ^C behind running
    cells) and when a cell must be timed out — a running future cannot be
    cancelled, so the only enforcement mechanism a process pool offers is
    terminating the worker processes themselves.

    With the workers dead the pool's manager thread exits promptly, and it
    must be joined before the next pool forks: a child forked while that
    thread holds the old pool's lock inherits the lock held, and deadlocks
    when its garbage collector frees the old executor, whose weakref
    callback takes that lock.
    """
    for process in list(getattr(executor, "_processes", {}).values()):
        process.terminate()
    executor.shutdown(wait=True, cancel_futures=True)


def _backoff_delay(retry_backoff: float, position: int, attempt: int) -> float:
    """Exponential backoff with deterministic jitter for one retry.

    Jitter is keyed on ``(position, attempt)`` so reruns of the same faulty
    grid back off identically — scheduling stays reproducible even on the
    failure path.
    """
    if retry_backoff <= 0:
        return 0.0
    jitter = random.Random(position * 1000003 + attempt).random()
    return retry_backoff * (2.0 ** (attempt - 1)) * (1.0 + jitter)


class _RetryState:
    """Driver-side bookkeeping of failed attempts for :func:`run_cells`.

    Tracks wasted seconds per cell, emits ``cell_retry``/``cell_failed``
    telemetry, notifies the progress renderer, and decides retry vs
    permanent failure.
    """

    def __init__(self, cells: Sequence[GridCell], bus, progress,
                 max_retries: int, strict: bool, retry_backoff: float) -> None:
        self.cells = cells
        self.bus = bus
        self.progress = progress
        self.max_retries = max_retries
        self.strict = strict
        self.retry_backoff = retry_backoff
        self.wasted: Dict[int, float] = {}
        self.retries = 0

    def _emit(self, kind: str, position: int, attempt: int, failure_kind: str,
              message: str, **extra) -> None:
        if self.bus is None or not self.bus.active:
            return
        cell = self.cells[position]
        self.bus.emit(kind, "parallel", position=position, index=cell.index,
                      seed=cell.seed, label=_cell_label(cell),
                      attempts=attempt, failure_kind=failure_kind,
                      error=message, **extra)

    def note_failure(self, position: int, attempt: int, kind: str,
                     message: str, elapsed: float,
                     exc: Optional[BaseException] = None
                     ) -> Tuple[bool, Optional[CellOutcome]]:
        """Record one failed attempt.

        Returns ``(retry, outcome)``: ``retry=True`` means the cell should
        be resubmitted (after :meth:`delay`); otherwise the failure is
        permanent — under ``strict`` the original error is re-raised,
        otherwise ``outcome`` is the ``result=None`` envelope to slot in.
        """
        self.wasted[position] = self.wasted.get(position, 0.0) + elapsed
        if attempt <= self.max_retries:
            self.retries += 1
            self._emit("cell_retry", position, attempt, kind, message,
                       next_attempt=attempt + 1)
            if hasattr(self.progress, "note_retry"):
                self.progress.note_retry()
            return True, None
        cell = self.cells[position]
        failure = CellFailure(position=position, index=cell.index,
                              seed=cell.seed, label=_cell_label(cell),
                              kind=kind, attempts=attempt, error=message)
        if self.strict:
            if exc is not None:
                raise exc
            raise ExperimentError(
                f"grid cell {position} ({failure.label}) failed permanently "
                f"after {attempt} attempt(s): [{kind}] {message}")
        self._emit("cell_failed", position, attempt, kind, message)
        if hasattr(self.progress, "note_failure"):
            self.progress.note_failure()
        return False, CellOutcome(
            cell=cell, result=None, seconds=0.0, worker_pid=-1,
            attempts=attempt, retry_seconds=self.wasted.pop(position, 0.0),
            failure=failure)

    def finish(self, outcome: CellOutcome, attempt: int,
               position: int) -> None:
        """Stamp retry accounting onto a successful outcome."""
        outcome.attempts = attempt
        outcome.retry_seconds = self.wasted.pop(position, 0.0)

    def delay(self, position: int, attempt: int) -> float:
        return _backoff_delay(self.retry_backoff, position, attempt)


def timing_summary(outcomes: Sequence[CellOutcome],
                   wall_seconds: Optional[float] = None) -> Dict[str, object]:
    """Aggregate per-cell timings: totals, extremes and per-worker load.

    Pass the driver-side ``wall_seconds`` (time around the ``run_cells``
    call) to additionally report ``wall_seconds`` and ``utilization`` —
    busy seconds divided by ``wall * workers_used``, the fraction of the
    pool's capacity the grid actually kept busy.

    Retried and failed cells never inflate utilization: ``busy_seconds``
    (and the per-cell extremes) count only each cell's *successful* attempt,
    while wasted attempts are reported separately as ``retries`` /
    ``retry_seconds`` and permanent failures as ``failed_cells`` — keys that
    appear only when the grid actually retried or failed something.
    """
    if not outcomes:
        summary: Dict[str, object] = {"cells": 0, "busy_seconds": 0.0,
                                      "workers_used": 0}
        if wall_seconds is not None:
            summary["wall_seconds"] = round(wall_seconds, 4)
        return summary
    succeeded = [outcome for outcome in outcomes
                 if outcome.result is not None]
    failed = len(outcomes) - len(succeeded)
    seconds = [outcome.seconds for outcome in succeeded]
    by_worker: Dict[int, float] = {}
    for outcome in succeeded:
        by_worker[outcome.worker_pid] = by_worker.get(outcome.worker_pid, 0.0) \
            + outcome.seconds
    retries = sum(outcome.attempts - (1 if outcome.result is not None else 0)
                  for outcome in outcomes)
    retry_seconds = sum(outcome.retry_seconds for outcome in outcomes)
    summary = {
        "cells": len(outcomes),
        "busy_seconds": round(sum(seconds), 4),
        "workers_used": len(by_worker),
    }
    if seconds:
        summary["max_cell_seconds"] = round(max(seconds), 4)
        summary["min_cell_seconds"] = round(min(seconds), 4)
        summary["per_worker_busy_seconds"] = [
            round(value, 4) for value in sorted(by_worker.values())]
    if retries:
        summary["retries"] = retries
        summary["retry_seconds"] = round(retry_seconds, 4)
    if failed:
        summary["failed_cells"] = failed
    if wall_seconds is not None:
        summary["wall_seconds"] = round(wall_seconds, 4)
        capacity = wall_seconds * len(by_worker)
        summary["utilization"] = round(sum(seconds) / capacity, 4) \
            if capacity > 0 else 0.0
    return summary


# ---------------------------------------------------------------------- #
# sweep grids
# ---------------------------------------------------------------------- #


def sweep_cells(configurations: Sequence[SweepConfiguration],
                seeds: Sequence[int], record_trace: bool = False) -> List[GridCell]:
    """Flatten a configuration x seed grid into schedulable cells."""
    if not seeds:
        raise ExperimentError("at least one seed is required")
    return [
        GridCell(kind="sweep", spec=configuration, index=index, seed=seed,
                 record_trace=record_trace)
        for index, configuration in enumerate(configurations)
        for seed in seeds
    ]


def merge_sweeps(configurations: Sequence[SweepConfiguration],
                 outcomes: Sequence[CellOutcome]) -> List[SweepResult]:
    """Group run results back into one SweepResult per configuration.

    ``run_cells`` returns outcomes in cell order (configuration-major, seed
    order within a configuration), so appending in sequence reproduces the
    exact run order of the serial :func:`~repro.simulation.sweep.run_sweep`
    loop at any worker count.  Permanently failed cells (``strict=False``)
    are left out.
    """
    results = [SweepResult(configuration=configuration)
               for configuration in configurations]
    for outcome in outcomes:
        if outcome.result is not None:
            results[outcome.cell.index].runs.append(outcome.result)
    return results
