"""Append-only JSONL experiment store: every run becomes a diffable record.

A :class:`RunStore` is a single JSON-Lines file; each line is one
:class:`RunRecord`: the run's configuration and its canonical hash, the seeds
used, an environment fingerprint, the git revision, the full
:class:`~repro.simulation.results.RunResult` (including trajectories) and a
timing envelope.  Append-only and newline-delimited means records from
different commits, machines and CI runs concatenate trivially, and the
``repro report`` subcommand (:mod:`repro.store.report`) can diff any two of
them — or gate CI on the drift between a stored baseline and a fresh run.

Identity model
--------------
``config_hash`` is the SHA-256 of the *canonical JSON* of the configuration
(sorted keys, no whitespace), so two runs are comparable iff their hashes
match — regardless of dict ordering, process, machine or commit.  The seeds
are part of the configuration: every randomized draw is keyed on
``(seed, round, edge-or-node)``, so a (config, seeds) pair pins the entire
trajectory bit-for-bit (see ``tests/store/test_determinism.py``), which is
what turns stored trajectories into exact regression oracles rather than
noisy statistics.

The environment fingerprint and timestamps are deliberately *excluded* from
the hash: they describe where a run happened, not what it computed.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import subprocess
import time
import warnings
from collections import abc
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..exceptions import ExperimentError
from ..simulation.results import RunResult
from ..simulation.scenario import Scenario

__all__ = [
    "RunRecord",
    "RunStore",
    "config_hash",
    "canonical_json",
    "env_fingerprint",
    "git_revision",
    "result_payload",
    "record_run",
    "record_sweep_outcomes",
]

PathLike = Union[str, pathlib.Path]


#: Exact types ``_jsonify`` returns unchanged (numpy scalar subclasses are converted).
_PLAIN_TYPES = frozenset({str, int, float, bool, type(None)})


def _jsonify(value):
    """Recursively convert numpy scalars/arrays and sequence views to plain JSON values."""
    if type(value) in _PLAIN_TYPES:
        return value
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(item) for item in value.tolist()]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, abc.Sequence) and not isinstance(value, (str, bytes)):
        # e.g. a stream's EventTimeline view: rendered as its list of dicts
        return [_jsonify(item) for item in value]
    return value


def canonical_json(value) -> str:
    """Canonical JSON text: sorted keys, compact separators, numpy-safe."""
    return json.dumps(_jsonify(value), sort_keys=True, separators=(",", ":"))


def config_hash(config: Dict[str, object]) -> str:
    """SHA-256 of the canonical JSON of ``config`` (order-insensitive)."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def env_fingerprint() -> Dict[str, object]:
    """Where a run executed: interpreter, numpy, platform (not hashed)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def git_revision(root: Optional[PathLike] = None) -> Optional[str]:
    """The current git commit hash, or ``None`` outside a repository."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=None if root is None else str(root),
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else None


def result_payload(result: RunResult) -> Dict[str, object]:
    """The full JSON-friendly view of a result (traces and timeline included).

    Unlike :meth:`RunResult.as_dict` — a *flat* table row — this keeps the
    structure: trajectories stay lists, ``extra`` stays nested, nothing is
    dropped.  The store needs the whole thing to diff trajectories later.
    """
    return _jsonify(asdict(result))


@dataclass
class RunRecord:
    """One stored run: configuration identity plus everything it produced.

    Attributes
    ----------
    label:
        Free-form name chosen by whoever recorded the run (e.g.
        ``"ci-gate"``); the handle ``repro report`` selects by.
    kind:
        What produced it: ``"engine"``, ``"sweep"``, ``"dynamic"`` — or
        anything else a caller finds descriptive.
    config:
        The JSON-friendly configuration (algorithm, topology, sizes, rng
        mode, **seeds** — everything that determines the trajectory).
    config_hash:
        :func:`config_hash` of ``config``; filled in automatically.
    seeds:
        The seeds used (also inside ``config``; surfaced for tables).
    env / git_rev / created:
        Provenance: environment fingerprint, commit hash, ISO-8601 UTC
        timestamp.  Excluded from ``config_hash``.
    result:
        :func:`result_payload` of the run's :class:`RunResult` (``None``
        for a grid cell that failed).
    timing:
        The timing envelope: at least ``seconds`` (in-worker wall-clock)
        when known.
    """

    label: str
    kind: str
    config: Dict[str, object]
    config_hash: str = ""
    seeds: List[int] = field(default_factory=list)
    env: Dict[str, object] = field(default_factory=env_fingerprint)
    git_rev: Optional[str] = None
    created: str = ""
    result: Optional[Dict[str, object]] = None
    timing: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.config_hash:
            self.config_hash = config_hash(self.config)
        if not self.created:
            self.created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    def as_line(self) -> str:
        """Serialise to one JSONL line."""
        return canonical_json(asdict(self))

    @classmethod
    def from_line(cls, line: str) -> "RunRecord":
        data = json.loads(line)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ExperimentError(
                f"unknown run-record fields {sorted(unknown)} — "
                f"written by a newer version?")
        return cls(**data)

    def trace(self) -> Optional[List[float]]:
        """The stored max-min trajectory, if the run recorded one."""
        if not self.result:
            return None
        trace = self.result.get("trace_max_min")
        return None if trace is None else list(trace)

    def metric(self, name: str, default=None):
        """A top-level metric of the stored result (e.g. ``"final_max_min"``)."""
        if not self.result:
            return default
        return self.result.get(name, default)


class RunStore:
    """An append-only JSONL file of :class:`RunRecord` lines.

    The file is created lazily on the first append; reads of a missing store
    raise (a regression gate pointed at a non-existent baseline should fail
    loudly, not pass vacuously).
    """

    def __init__(self, path: PathLike) -> None:
        self._path = pathlib.Path(path)

    @property
    def path(self) -> pathlib.Path:
        """Location of the store file."""
        return self._path

    def exists(self) -> bool:
        """Whether the store file exists on disk."""
        return self._path.exists()

    def append(self, record: RunRecord) -> RunRecord:
        """Append one record (creating parent directories) and return it.

        The line is flushed and ``fsync``'d before the file closes, so a
        crash immediately after :meth:`append` returns cannot lose the
        record, and a crash *during* the append can at worst leave one
        truncated trailing line — which :meth:`records` tolerates.
        """
        self._path.parent.mkdir(parents=True, exist_ok=True)
        with self._path.open("a") as handle:
            handle.write(record.as_line() + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        return record

    def records(self) -> List[RunRecord]:
        """All records, in append order.

        A *truncated* final line — unparseable JSON with no trailing
        newline, the signature of an append cut off mid-write by a crash —
        is skipped with a :class:`UserWarning`; the completed records before
        it stay readable.  Any other corruption (a garbage line that *was*
        newline-terminated, or damage mid-file) still raises: that means
        something worse than a torn write, and a regression gate must not
        silently run against it.
        """
        if not self._path.exists():
            raise ExperimentError(f"no such run store: {self._path}")
        text = self._path.read_text()
        truncated_tail = bool(text) and not text.endswith("\n")
        records = []
        numbered = [(number, line.strip())
                    for number, line in enumerate(text.splitlines(), start=1)
                    if line.strip()]
        for position, (number, line) in enumerate(numbered):
            try:
                records.append(RunRecord.from_line(line))
            except (json.JSONDecodeError, TypeError) as exc:
                if truncated_tail and position == len(numbered) - 1 \
                        and isinstance(exc, json.JSONDecodeError):
                    warnings.warn(
                        f"{self._path}:{number}: skipping truncated trailing "
                        f"record (interrupted append?)", stacklevel=2)
                    break
                raise ExperimentError(
                    f"{self._path}:{number}: corrupt run-store line ({exc})"
                ) from exc
        return records

    def select(self, selector: Optional[str] = None,
               records: Optional[Sequence[RunRecord]] = None) -> RunRecord:
        """Pick one record: by label (latest match), ``#index``, or hash prefix.

        ``None`` / ``"latest"`` returns the newest record.  ``"#3"`` is the
        fourth appended record.  Any other string matches first as an exact
        label (latest wins — a re-recorded label supersedes its past), then
        as a ``config_hash`` prefix.
        """
        pool = list(records) if records is not None else self.records()
        if not pool:
            raise ExperimentError(f"run store {self._path} is empty")
        if selector is None or selector == "latest":
            return pool[-1]
        if selector.startswith("#"):
            try:
                return pool[int(selector[1:])]
            except (ValueError, IndexError) as exc:
                raise ExperimentError(
                    f"bad record index {selector!r} (store has {len(pool)} records)"
                ) from exc
        labelled = [record for record in pool if record.label == selector]
        if labelled:
            return labelled[-1]
        hashed = [record for record in pool
                  if record.config_hash.startswith(selector)]
        if len(hashed) == 1:
            return hashed[0]
        if len(hashed) > 1:
            raise ExperimentError(
                f"hash prefix {selector!r} is ambiguous ({len(hashed)} matches)")
        raise ExperimentError(
            f"no record with label or hash prefix {selector!r} in {self._path}")


def record_run(store: RunStore, label: str, kind: str,
               config: Dict[str, object], seeds: Iterable[int],
               result: Optional[RunResult] = None,
               timing: Optional[Dict[str, object]] = None,
               git_root: Optional[PathLike] = None) -> RunRecord:
    """Build and append one record for a finished run (the common case)."""
    record = RunRecord(
        label=label, kind=kind, config=_jsonify(config),
        seeds=[int(seed) for seed in seeds],
        git_rev=git_revision(git_root),
        result=None if result is None else result_payload(result),
        timing=_jsonify(timing or {}),
    )
    return store.append(record)


def record_sweep_outcomes(store: RunStore, label: str, outcomes,
                          git_root: Optional[PathLike] = None) -> List[RunRecord]:
    """Append one record per finished sweep cell (``CellOutcome`` envelopes).

    The configuration stored for each cell is its spec plus the seed — the
    pure-function inputs of the cell's
    :func:`~repro.simulation.scenario.run_scenario` call — so identical
    cells from any process or commit hash identically.

    An outcome that carries a captured telemetry stream (a traced grid; see
    :mod:`repro.obs.relay`) additionally stores its span summary — rounds,
    kernel seconds, per-phase totals, flow counters — under
    ``timing["trace"]``, which is what the ``trace`` CLI subcommand reads
    back for hot-kernel tables and stored-trace conversion.
    """
    records = []
    for outcome in outcomes:
        cell = outcome.cell
        # to_dict plus seeding is the dict (and config hash) scenario cells
        # were stored with before ``events`` became a Scenario field
        spec = ({**cell.spec.to_dict(), "seeding": cell.spec.seeding}
                if isinstance(cell.spec, Scenario) else asdict(cell.spec))
        # sweep cells always seed per purpose; the constant key keeps the
        # config hashes of earlier stores matching
        config = {**spec, "seed": cell.seed, "legacy_seeding": False, "kind": cell.kind}
        timing = {"seconds": outcome.seconds, "worker_pid": outcome.worker_pid}
        if getattr(outcome, "attempts", 1) > 1:
            timing["attempts"] = outcome.attempts
            timing["retry_seconds"] = outcome.retry_seconds
        failure = getattr(outcome, "failure", None)
        if failure is not None:
            timing["failure"] = asdict(failure)
        if getattr(outcome, "events", None):
            from ..obs.trace import cell_trace_summary

            timing["trace"] = cell_trace_summary(outcome.events)
        records.append(record_run(
            store, label, cell.kind, config,
            seeds=[] if cell.seed is None else [cell.seed],
            result=outcome.result,
            timing=timing,
            git_root=git_root,
        ))
    return records
