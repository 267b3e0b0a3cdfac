"""Checkpoint/resume for dynamic streams: crash-tolerant, bit-identical.

A long dynamic run (:func:`repro.dynamic.stream.run_stream`) historically
lost everything on a crash.  This module snapshots a
:class:`~repro.dynamic.stream.StreamingEngine` to a single JSON file and
restores it such that the resumed trajectory is **bit-identical** to the
uninterrupted run: every randomized draw is a pure function of
``(seed, round, edge-or-node)``, and restoration replays the post-boundary
rounds instead of serialising RNG internals.  A checkpoint whose
configuration names another rng mode than ``"counter"`` is rejected with
:class:`~repro.exceptions.CheckpointError`.

What a checkpoint holds
-----------------------
* the engine's immutable **configuration** (algorithm, substrate, seed,
  selection policy, backend, rng mode) and its SHA-256 ``config_hash``
  computed through the run store's canonical-JSON machinery — a checkpoint
  can only be restored onto the configuration that produced it;
* the full mutable **state**: stable-label graph/speeds/loads, run-level
  counters, the event timeline, the event generators' bit-generator states
  (the event-stream position), and the last coupling *boundary* plus the
  number of event-free rounds advanced since it;
* the run's **traces so far** and total horizon, so the resumed
  :class:`~repro.simulation.results.RunResult` covers the whole run from
  round 0;
* a ``version`` and free-form ``meta``
  (:func:`~repro.simulation.scenario.run_scenario` stores the originating
  event :class:`~repro.simulation.scenario.Scenario` so ``repro resume``
  can rebuild the event generator by itself).

Restoration re-couples the balancer at the boundary with the original
per-coupling seed and replays the rounds since — the continuous substrate,
matching schedule and balancer RNG all land in exactly the state the
uninterrupted run had, with no balancer internals in the file.  A
post-replay integrity check compares the replayed loads against the
snapshotted ones, so a corrupt (e.g. truncated) checkpoint fails loudly
with :class:`~repro.exceptions.CheckpointError` rather than silently
diverging.  Writes are atomic (temp file + ``fsync`` + rename): a crash
*during* checkpointing leaves the previous snapshot intact.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Union

from .dynamic.events import EventGenerator
from .dynamic.stream import StreamingEngine, _drive_stream
from .exceptions import CheckpointError, ExperimentError
from .simulation.results import RunResult
from .store.runstore import canonical_json, config_hash

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "StreamCheckpoint",
    "checkpoint_engine",
    "write_checkpoint",
    "read_checkpoint",
    "restore_engine",
    "resume_stream",
]

PathLike = Union[str, pathlib.Path]

#: Magic string identifying a stream checkpoint file.
CHECKPOINT_FORMAT = "repro-stream-checkpoint"

#: Bump on any incompatible change to the snapshot layout; readers reject
#: checkpoints from other versions instead of misinterpreting them.
CHECKPOINT_VERSION = 1


@dataclass
class StreamCheckpoint:
    """One engine snapshot plus everything needed to finish the run.

    ``config``/``state`` are :meth:`StreamingEngine.config_dict` /
    :meth:`StreamingEngine.state_dict`; ``config_hash`` is filled in (and
    verified on read) automatically.  ``trace_max_min`` /
    ``trace_total_weight`` are the run's traces up to and including the
    checkpointed round; ``total_rounds`` is the run's horizon so resume
    knows how far to continue.  ``meta`` travels verbatim (scenario
    provenance for the CLI).
    """

    config: Dict[str, object]
    state: Dict[str, object]
    total_rounds: Optional[int] = None
    trace_max_min: List[float] = field(default_factory=list)
    trace_total_weight: List[float] = field(default_factory=list)
    meta: Optional[Dict[str, object]] = None
    format: str = CHECKPOINT_FORMAT
    version: int = CHECKPOINT_VERSION
    config_hash: str = ""
    created: str = ""

    def __post_init__(self) -> None:
        if not self.config_hash:
            self.config_hash = config_hash(self.config)
        if not self.created:
            # repro: allow[R002] provenance timestamp, never read back into logic
            self.created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    @property
    def round_index(self) -> int:
        """The round the snapshot was taken at (rounds already executed)."""
        return int(self.state["round"])


def checkpoint_engine(engine: StreamingEngine,
                      total_rounds: Optional[int] = None,
                      trace: Optional[List[float]] = None,
                      totals: Optional[List[float]] = None,
                      meta: Optional[Dict[str, object]] = None) -> StreamCheckpoint:
    """Snapshot a live engine (plus the driver's traces) into a checkpoint."""
    return StreamCheckpoint(
        config=engine.config_dict(),
        state=engine.state_dict(),
        total_rounds=total_rounds,
        trace_max_min=list(trace) if trace is not None else [],
        trace_total_weight=list(totals) if totals is not None else [],
        meta=dict(meta) if meta is not None else None,
    )


def write_checkpoint(checkpoint: StreamCheckpoint, path: PathLike) -> pathlib.Path:
    """Atomically serialise a checkpoint to ``path`` (canonical JSON).

    The snapshot is written to a temporary file in the same directory,
    fsync'd, and renamed over ``path`` — a crash mid-write can never corrupt
    an existing checkpoint, so the latest *complete* snapshot always
    survives.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a shallow field dict, not dataclasses.asdict: the timeline in `state`
    # grows with the run, and asdict's per-leaf deepcopy recursion makes
    # each snapshot O(history) slower than serialising it directly
    data = {f.name: getattr(checkpoint, f.name) for f in fields(checkpoint)}
    payload = canonical_json(data) + "\n"
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=path.name + ".", suffix=".tmp",
        delete=False)
    try:
        with handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return path


def read_checkpoint(path: PathLike) -> StreamCheckpoint:
    """Load and validate a checkpoint file.

    Raises :class:`~repro.exceptions.CheckpointError` when the file is
    missing, truncated or otherwise not valid JSON, was written by a
    different format version, or when its ``config_hash`` does not match its
    ``config`` (tampering / partial write).
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise CheckpointError(f"no such checkpoint: {path}")
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {path} is corrupt or truncated ({exc})") from exc
    if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path} is not a {CHECKPOINT_FORMAT} file")
    version = data.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}, "
            f"this library reads version {CHECKPOINT_VERSION}")
    unknown = set(data) - set(StreamCheckpoint.__dataclass_fields__)
    if unknown:
        raise CheckpointError(
            f"checkpoint {path} carries unknown fields {sorted(unknown)}")
    try:
        checkpoint = StreamCheckpoint(**data)
    except TypeError as exc:
        raise CheckpointError(f"checkpoint {path} is malformed ({exc})") from exc
    expected = config_hash(checkpoint.config)
    if checkpoint.config_hash != expected:
        raise CheckpointError(
            f"checkpoint {path} config hash mismatch: stored "
            f"{checkpoint.config_hash[:12]}…, recomputed {expected[:12]}… — "
            f"the configuration was modified after the snapshot was taken")
    return checkpoint


def _generator_from_meta(checkpoint: StreamCheckpoint) -> EventGenerator:
    """Rebuild the event generator from the checkpoint's scenario metadata."""
    meta = checkpoint.meta or {}
    scenario_data = meta.get("scenario")
    if not scenario_data:
        raise CheckpointError(
            "this checkpoint carries no scenario metadata; pass a freshly "
            "constructed event generator of the original shape to resume it")
    from .dynamic.events import make_event_generator
    from .simulation.scenario import Scenario

    try:
        scenario = Scenario.from_dict(dict(scenario_data))
    except ExperimentError as exc:
        raise CheckpointError(f"invalid checkpoint scenario metadata: {exc}") from None
    network = scenario.build_network()
    seeds = scenario._purpose_seeds()
    return make_event_generator(scenario.events, network,
                                scenario.tokens_per_node, seed=seeds.events)


def restore_engine(checkpoint: StreamCheckpoint,
                   generator: Optional[EventGenerator] = None,
                   bus=None) -> StreamingEngine:
    """Rebuild a live :class:`StreamingEngine` from a checkpoint.

    ``generator`` must be a freshly constructed event generator of the same
    shape as the checkpointed run's (its randomness position is restored
    from the snapshot); when omitted, it is rebuilt from the checkpoint's
    scenario metadata if present.
    """
    if generator is None:
        generator = _generator_from_meta(checkpoint)
    return StreamingEngine.restore(checkpoint.config, checkpoint.state,
                                   generator, bus=bus)


def resume_stream(source: Union[PathLike, StreamCheckpoint],
                  generator: Optional[EventGenerator] = None,
                  rounds: Optional[int] = None,
                  bus=None,
                  checkpoint_every: Optional[int] = None,
                  checkpoint_path: Optional[PathLike] = None) -> RunResult:
    """Resume an interrupted dynamic run from its latest checkpoint.

    Restores the engine, then continues stepping until the stored horizon
    (override with ``rounds``), optionally re-checkpointing every
    ``checkpoint_every`` rounds (default target: the source path when
    ``source`` is a path).  Returns the **whole run's**
    :class:`~repro.simulation.results.RunResult` — traces start at round 0
    and are bit-identical to the uninterrupted run's.
    """
    if isinstance(source, StreamCheckpoint):
        checkpoint = source
    else:
        checkpoint = read_checkpoint(source)
        if checkpoint_every is not None and checkpoint_path is None:
            checkpoint_path = source
    if checkpoint_every is not None and checkpoint_path is None:
        raise CheckpointError("checkpoint_every requires a checkpoint_path")
    target = rounds if rounds is not None else checkpoint.total_rounds
    if target is None:
        raise CheckpointError(
            "the checkpoint stores no horizon; pass rounds= to resume")
    if target < checkpoint.round_index:
        raise CheckpointError(
            f"cannot resume to round {target}: the checkpoint is already at "
            f"round {checkpoint.round_index}")
    engine = restore_engine(checkpoint, generator=generator, bus=bus)
    trace = list(checkpoint.trace_max_min)
    if len(trace) != checkpoint.round_index + 1:
        raise CheckpointError(
            f"checkpoint trace length {len(trace)} does not match round "
            f"{checkpoint.round_index} (expected {checkpoint.round_index + 1})")
    return _drive_stream(engine, target, trace, list(checkpoint.trace_total_weight),
                         checkpoint_every, checkpoint_path, checkpoint.meta)
