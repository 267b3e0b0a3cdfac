"""Shared pieces of the repo benchmark: operation ledger, spans, statistics.

Nothing here imports numpy or the library at module level, so :mod:`run` can
pin the BLAS / OpenMP thread counts before either is loaded.
"""

from __future__ import annotations

import os
import pathlib
import resource
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

#: Environment variables that cap native thread pools; set before numpy loads
#: and inherited by pool workers.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    """Pin every native thread pool to one thread (this process and children)."""
    for name in THREAD_VARS:
        os.environ[name] = "1"


def nproc() -> int:
    """Cores this process may use (affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def git_rev(root: pathlib.Path) -> str:
    """The checkout's git revision, or ``unknown`` outside a git repository."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Ledger:
    """Counts attempted and failed operations, keeping each failure's reason.

    An operation is a run, a step, a cell, a checkpoint write, a resume or an
    invariant check.  ``failed / attempted`` is the benchmark's
    ``failed_ratio``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        """Count one operation; remember ``what`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def check(self, condition: bool, what: str) -> bool:
        """An invariant check is an operation too."""
        return self.record(bool(condition), what)

    def exact(self, name: str, values: Sequence[object]) -> None:
        """Exact counts must repeat across repetitions; a mismatch is nondeterminism."""
        if len(values) > 1:
            self.check(all(value == values[0] for value in values),
                       f"nondeterminism: {name} differs across repetitions: {list(values)}")

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Spans:
    """Seconds spent inside library calls during the traced run.

    Spans are taken in the benchmark's own code, around each call into a
    library layer; they do not nest.  ``unattributed`` is the traced wall
    time no span covers.
    """

    def __init__(self) -> None:
        self.covered = 0.0
        self.opened = time.perf_counter()

    @contextmanager
    def span(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.covered += time.perf_counter() - start

    def unattributed(self) -> float:
        return max(0.0, time.perf_counter() - self.opened - self.covered)


@contextmanager
def maybe_span(spans: Optional[Spans]) -> Iterator[None]:
    """A span when tracing, nothing otherwise (end-to-end runs stay untraced)."""
    if spans is None:
        yield
    else:
        with spans.span():
            yield


def fastest_units(repetitions: Sequence[Sequence[float]]) -> List[float]:
    """Each unit's fastest time over the repetitions of a run.

    A unit (a round, a step, a cell) is the same work in every repetition,
    since every repetition replays the same seeded input.  Other tenants of a
    shared host slow single units down for a few milliseconds at a time; the
    fastest of a unit's repetitions is its cost without that interference.
    """
    length = min(len(rep) for rep in repetitions)
    return [min(rep[unit] for rep in repetitions) for unit in range(length)]


def unit_metrics(units: Sequence[float]) -> Dict[str, float]:
    """``solve_s``, ``rounds_per_s`` and ``round_ms_p50`` of per-unit times."""
    import numpy as np

    total = float(sum(units))
    return {
        "solve_s": total,
        "rounds_per_s": len(units) / total,
        "round_ms_p50": 1e3 * float(np.quantile(units, 0.5)),
    }


def tail_ms(units: Sequence[float], samples: str):
    """The printed, unbounded ``round_ms_p99`` entry of per-unit seconds.

    The slowest rounds of static-large (late Algorithm 2 rounds) slow down far
    more than the median under host contention, so p99 is reported with its
    sample count but carries no bound.
    """
    import numpy as np

    return 1e3 * float(np.quantile(units, 0.99)), "ms", samples


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MB: of this process, or of its largest reaped child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Budget:
    """Repeat a unit of work while it still fits in the run's measuring time."""

    seconds: float
    minimum: int = 1
    started: float = field(default_factory=time.perf_counter)
    durations: List[float] = field(default_factory=list)

    def more(self) -> bool:
        done = len(self.durations)
        if done < self.minimum:
            return True
        elapsed = time.perf_counter() - self.started
        return elapsed + statistics.median(self.durations) <= self.seconds

    def add(self, seconds: float) -> None:
        self.durations.append(seconds)
