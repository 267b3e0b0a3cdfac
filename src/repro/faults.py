"""Deterministic fault injection for the fault-tolerance test harness.

The self-healing grid driver (:mod:`repro.simulation.parallel`) and the
checkpoint/resume machinery (:mod:`repro.checkpoint`) only earn trust when
their recovery paths are exercised on demand.  This module provides the
faults: a picklable, **seed-keyed** :class:`FaultPlan` that a pool worker
consults at cell start and that deterministically

* raises :class:`~repro.exceptions.FaultInjected` inside a cell (an
  in-cell software error),
* kills the worker process outright with ``os._exit`` (a hard crash, which
  surfaces driver-side as ``BrokenProcessPool``), or
* delays a cell long enough to trip the driver's per-cell timeout,

each for the first *N* attempts of a given cell position, so a cell fails
exactly ``N`` times and then succeeds — the shape every retry test needs.
Because the plan keys on ``(cell position, attempt number)`` and nothing
else, an injected run is reproducible at any worker count.

:func:`random_fault_plan` draws a plan from a seed (for randomized fault
campaigns); :func:`truncate_checkpoint` damages a
checkpoint file in place to exercise the corrupt-checkpoint path.

Fault plans are test instruments.  Never attach one to a
production run: a kill fault in a ``workers=1`` (in-process) grid takes the
driver down with it.
"""

from __future__ import annotations

import os
import pathlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, Sequence, Union

from .exceptions import FaultInjected

__all__ = ["FaultPlan", "random_fault_plan", "truncate_checkpoint"]


@dataclass(frozen=True)
class FaultPlan:
    """Which grid cells fail, how, and for how many attempts.

    Each mapping goes ``cell position -> attempt count``: the fault fires on
    that cell's first ``count`` attempts and never again, so with enough
    retries the cell eventually succeeds.  ``delay_at`` holds seconds instead
    of a count and fires on the **first** attempt only (enough to trip a
    timeout once).  Positions are indices into the flat cell list handed to
    :func:`repro.simulation.parallel.run_cells` — the same numbering the
    relay uses for trace lanes.
    """

    raise_at: Dict[int, int] = field(default_factory=dict)
    kill_at: Dict[int, int] = field(default_factory=dict)
    delay_at: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("raise_at", "kill_at"):
            for position, count in getattr(self, name).items():
                if count < 1:
                    raise ValueError(
                        f"{name}[{position}] must be >= 1, got {count}")
        for position, seconds in self.delay_at.items():
            if seconds <= 0:
                raise ValueError(
                    f"delay_at[{position}] must be positive, got {seconds}")

    @property
    def empty(self) -> bool:
        return not (self.raise_at or self.kill_at or self.delay_at)

    def positions(self) -> Sequence[int]:
        """All cell positions this plan touches, sorted."""
        return sorted(set(self.raise_at) | set(self.kill_at)
                      | set(self.delay_at))

    def apply(self, position: int, attempt: int) -> None:
        """Fire this plan's faults for one ``(cell, attempt)`` execution.

        Called by the worker at cell start.  ``attempt`` counts from 1.
        Order: delay first (a delayed cell may then also crash), then kill,
        then raise.
        """
        delay = self.delay_at.get(position, 0.0)
        if delay and attempt == 1:
            time.sleep(delay)
        if attempt <= self.kill_at.get(position, 0):
            # A hard crash: no exception, no cleanup, no exit handlers —
            # exactly what a OOM-killed or segfaulted worker looks like.
            os._exit(17)
        if attempt <= self.raise_at.get(position, 0):
            raise FaultInjected(
                f"injected failure in cell {position} (attempt {attempt})")


def random_fault_plan(num_cells: int, seed: int,
                      raise_fraction: float = 0.2,
                      kill_fraction: float = 0.0,
                      attempts: int = 1) -> FaultPlan:
    """Draw a deterministic fault plan over ``num_cells`` cell positions.

    Each position independently becomes a raise fault with probability
    ``raise_fraction`` and (otherwise) a kill fault with probability
    ``kill_fraction``; affected cells fail their first ``attempts`` attempts.
    The draw is a pure function of ``seed``, so fault campaigns are
    reproducible.
    """
    if num_cells < 0:
        raise ValueError("num_cells must be non-negative")
    rng = random.Random(seed)
    raise_at: Dict[int, int] = {}
    kill_at: Dict[int, int] = {}
    for position in range(num_cells):
        draw = rng.random()
        if draw < raise_fraction:
            raise_at[position] = attempts
        elif draw < raise_fraction + kill_fraction:
            kill_at[position] = attempts
    return FaultPlan(raise_at=raise_at, kill_at=kill_at)


def truncate_checkpoint(path: Union[str, pathlib.Path],
                        keep_fraction: float = 0.5) -> pathlib.Path:
    """Damage a checkpoint file in place by cutting off its tail.

    Keeps the first ``keep_fraction`` of the file's bytes — simulating a
    crash mid-write on a filesystem without atomic rename — so tests can
    assert :func:`repro.checkpoint.read_checkpoint` rejects it with
    :class:`~repro.exceptions.CheckpointError` instead of resuming from
    garbage.
    """
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError("keep_fraction must be in [0, 1)")
    path = pathlib.Path(path)
    size = path.stat().st_size
    with open(path, "rb+") as handle:
        handle.truncate(int(size * keep_fraction))
    return path
