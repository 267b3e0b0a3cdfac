"""Checkpoint/resume for dynamic streams: crash-tolerant, bit-identical.

A long dynamic run (:func:`repro.dynamic.stream.run_stream`) historically
lost everything on a crash.  This module snapshots a
:class:`~repro.dynamic.stream.StreamingEngine` to disk and restores it such
that the resumed trajectory is **bit-identical** to the uninterrupted run:
every randomized draw is a pure function of ``(seed, round, edge-or-node)``,
and restoration replays the post-boundary rounds instead of serialising RNG
internals.  A checkpoint whose configuration names another rng mode than
``"counter"`` is rejected with :class:`~repro.exceptions.CheckpointError`.

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

File layout (version 2)
-----------------------
A checkpoint is two files.  ``path`` is canonical JSON with the
configuration, the O(n·K) state and a ``history`` record; the history —
the event log's columns (rows, new tags, join attachments) and both traces
— lives in an append-only binary **sidecar** next to it,
``<path name>.<token>.history``.  The sidecar is a magic header followed by
blocks, each a fixed header (row/tag/attachment/trace counts and a CRC-32 of
the payload) plus little-endian int64/float64 payload; the ``history``
record names the sidecar, the *lineage* of the event log that wrote it
(:class:`~repro.dynamic.stream.EventTimeline`), the byte offset the
checkpoint ends at and the row counts up to it.

A write appends only what the previous checkpoint at ``path`` does not
already hold: when that checkpoint's history has the same lineage and no
more rows than the new one, the sidecar is cut back to the recorded offset
(dropping what a crashed write left behind) and one block is appended, so a
write costs O(state + new events).  Otherwise — another run's checkpoint, an
older snapshot, a missing or short sidecar, a version 1 file — the history
goes to a fresh sidecar, and the old one is removed once the new JSON is in
place.  The sidecar is fsync'd before the JSON is renamed over ``path``
(temp file + ``fsync`` + rename), so a crash at any point leaves the
previous checkpoint readable.  Readers ignore sidecar bytes past the
recorded offset; a sidecar shorter than it, or a damaged block, raises
:class:`~repro.exceptions.CheckpointError`.  Copy a checkpoint together
with its sidecar.

Version 1 checkpoints — a single canonical-JSON file with the timeline as a
list of dicts and the traces inline — are still read.

Restoration re-couples the balancer at the boundary with the original
per-coupling seed and replays the rounds since — the continuous substrate,
matching schedule and balancer RNG all land in exactly the state the
uninterrupted run had, with no balancer internals in the file.  A
post-replay integrity check compares the replayed loads against the
snapshotted ones, so a corrupt (e.g. truncated) checkpoint fails loudly
with :class:`~repro.exceptions.CheckpointError` rather than silently
diverging.  Writing, reading and the restore's replay run under the
``checkpoint/write``, ``checkpoint/read`` and ``checkpoint/replay`` kernel
phases (:mod:`repro.obs.kernels`).
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import secrets
import struct
import tempfile
import time
import zlib
from dataclasses import dataclass, field, fields
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dynamic.events import EventGenerator
from .dynamic.stream import EventTimeline, StreamingEngine, _drive_stream, _EventLog
from .exceptions import CheckpointError, ExperimentError
from .obs.kernels import kernel_phase
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
CHECKPOINT_VERSION = 2

#: Versions :func:`read_checkpoint` understands.
_READABLE_VERSIONS = (1, 2)

#: The first bytes of every sidecar.
_SIDECAR_MAGIC = b"RPROHIS2"

#: A sidecar block header: magic, CRC-32 of the payload, then the number of
#: event rows, tag-table bytes, attachment int64s, trace and totals entries.
_BLOCK = struct.Struct("<4sI5q")
_BLOCK_MAGIC = b"HBLK"

#: The row counts a ``history`` record keeps, in block-header order.
_COUNTS = ("events", "tags", "attach", "trace", "totals")

#: Checkpoint fields a version 2 file keeps in the sidecar, not the JSON.
_SIDECAR_FIELDS = ("trace_max_min", "trace_total_weight")


@dataclass
class StreamCheckpoint:
    """One engine snapshot plus everything needed to finish the run.

    ``config``/``state`` are :meth:`StreamingEngine.config_dict` /
    :meth:`StreamingEngine.state_dict`; ``config_hash`` is filled in (and
    verified on read) automatically.  ``state["timeline"]`` is an
    :class:`~repro.dynamic.stream.EventTimeline` (or, in a checkpoint built
    by hand or read back through plain JSON, a list of event dicts).
    ``trace_max_min`` / ``trace_total_weight`` are the run's traces up to
    and including the checkpointed round; ``total_rounds`` is the run's
    horizon so resume knows how far to continue.  ``meta`` travels verbatim
    (scenario provenance for the CLI).  ``version`` is the layout the
    checkpoint was read from; :func:`write_checkpoint` always writes
    :data:`CHECKPOINT_VERSION`.
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
    """Write a checkpoint to ``path`` plus its history sidecar, crash-safely.

    Appends to the sidecar of the previous checkpoint at ``path`` when it
    holds an earlier part of the same history, and starts a fresh sidecar
    otherwise (see the module docstring).  The sidecar is fsync'd before
    the JSON is written to a temporary file, fsync'd and renamed over
    ``path``, so the latest *complete* snapshot always survives a crash.
    """
    path = pathlib.Path(path)
    with kernel_phase("checkpoint/write"):
        path.parent.mkdir(parents=True, exist_ok=True)
        state = dict(checkpoint.state)
        timeline = state.pop("timeline")
        if not isinstance(timeline, EventTimeline):
            timeline = _EventLog.from_timeline(timeline).view()
        previous = _previous_history(path)
        history = _write_history(path, previous, timeline, checkpoint.trace_max_min,
                                 checkpoint.trace_total_weight)
        data = {spec.name: getattr(checkpoint, spec.name) for spec in fields(checkpoint)
                if spec.name not in _SIDECAR_FIELDS}
        data.update(state=state, history=history, version=CHECKPOINT_VERSION)
        try:
            _replace_atomically(path, canonical_json(data) + "\n")
        except BaseException:
            if previous is None or history["file"] != previous["file"]:
                (path.parent / history["file"]).unlink(missing_ok=True)
            raise
        if previous is not None and previous["file"] != history["file"]:
            _remove_sidecar(path, previous["file"])
    return path


def _replace_atomically(path: pathlib.Path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, fsync it and rename it over ``path``."""
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=path.name + ".", suffix=".tmp",
        delete=False)
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def _previous_history(path: pathlib.Path) -> Optional[Dict[str, Any]]:
    """The ``history`` record of the version 2 checkpoint at ``path``, if any."""
    try:
        data = json.loads(path.read_text())
        if data.get("version") != CHECKPOINT_VERSION:
            return None
        return _checked_history(data["history"])
    except (OSError, ValueError, TypeError, KeyError, AttributeError, CheckpointError):
        return None


def _checked_history(history: Any) -> Dict[str, Any]:
    """Validate a ``history`` record read from JSON."""
    if not isinstance(history, dict) or set(history) != {"file", "lineage", "bytes", *_COUNTS}:
        raise CheckpointError(f"malformed history record {history!r}")
    name = history["file"]
    if (not isinstance(name, str) or pathlib.Path(name).name != name
            or name.startswith(".") or not isinstance(history["lineage"], str)):
        raise CheckpointError(f"malformed history record {history!r}")
    for key in ("bytes", *_COUNTS):
        value = history[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise CheckpointError(f"malformed history record {history!r}")
    if history["bytes"] < len(_SIDECAR_MAGIC):
        raise CheckpointError(f"malformed history record {history!r}")
    return history


def _write_history(path: pathlib.Path, previous: Optional[Dict[str, Any]],
                   timeline: EventTimeline, trace: Sequence[float],
                   totals: Sequence[float]) -> Dict[str, Any]:
    """Append the history past ``previous`` to its sidecar, or write a fresh one.

    Returns the new ``history`` record; the sidecar is fsync'd.
    """
    attachments = timeline.attachments()
    counts = {"events": len(timeline), "tags": len(timeline.tags),
              "attach": len(attachments), "trace": len(trace), "totals": len(totals)}
    start: Dict[str, Any]
    if previous is not None and _extends(path, previous, timeline.lineage, counts):
        start, sidecar = previous, path.parent / previous["file"]
    else:
        start = {"bytes": 0, **dict.fromkeys(_COUNTS, 0)}
        sidecar = path.parent / f"{path.name}.{secrets.token_hex(4)}.history"
    with open(sidecar, "r+b" if start["bytes"] else "xb") as handle:
        if start["bytes"]:
            # drop whatever a crashed write left past the recorded offset
            handle.truncate(start["bytes"])
            handle.seek(start["bytes"])
        else:
            handle.write(_SIDECAR_MAGIC)
        if any(counts[key] > start[key] for key in _COUNTS):
            _write_block(handle, timeline.rows(start["events"]),
                         timeline.tags[start["tags"]:], attachments[start["attach"]:],
                         trace[start["trace"]:], totals[start["totals"]:])
        handle.flush()
        os.fsync(handle.fileno())
        size = handle.tell()
    return {"file": sidecar.name, "lineage": timeline.lineage, "bytes": size, **counts}


def _extends(path: pathlib.Path, previous: Dict[str, Any], lineage: str,
             counts: Dict[str, int]) -> bool:
    """Whether ``previous`` holds an earlier part of this history in an intact-length sidecar."""
    sidecar = path.parent / previous["file"]
    return (previous["lineage"] == lineage
            and all(previous[key] <= counts[key] for key in _COUNTS)
            and sidecar.is_file() and sidecar.stat().st_size >= previous["bytes"])


def _write_block(handle: IO[bytes], rows: np.ndarray, tags: Sequence[str],
                 attachments: Sequence[Tuple[int, Tuple[int, ...]]],
                 trace: Sequence[float], totals: Sequence[float]) -> None:
    """Write one sidecar block: header, then the rows, tags, attachments and traces."""
    tag_bytes = json.dumps(list(tags)).encode("utf-8") if len(tags) else b""
    attach = [value for row, targets in attachments for value in (row, len(targets), *targets)]
    # byte views of the columns, so the rows are not copied on the way out
    pieces = [np.ascontiguousarray(column, dtype=dtype).reshape(-1).view(np.uint8)
              for column, dtype in ((rows, "<i8"), (attach, "<i8"), (trace, "<f8"),
                                    (totals, "<f8"))]
    pieces.insert(1, tag_bytes)
    crc = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
    handle.write(_BLOCK.pack(_BLOCK_MAGIC, crc, len(rows), len(tag_bytes), len(attach),
                             len(trace), len(totals)))
    for piece in pieces:
        handle.write(piece)


def _remove_sidecar(path: pathlib.Path, name: str) -> None:
    """Delete a superseded sidecar of ``path`` (only files named like one)."""
    if name.startswith(path.name + ".") and name.endswith(".history"):
        try:
            (path.parent / name).unlink(missing_ok=True)
        except OSError:
            pass


def _read_history(path: pathlib.Path, history: Dict[str, Any]
                  ) -> Tuple[EventTimeline, List[float], List[float]]:
    """The timeline and traces a ``history`` record points at in its sidecar."""
    sidecar = path.parent / history["file"]
    where = f"checkpoint {path}: sidecar {sidecar.name}"
    try:
        with open(sidecar, "rb") as handle:
            rows, tags, attachments, trace, totals = _read_blocks(
                handle, history["bytes"], where)
    except OSError as exc:
        raise CheckpointError(f"{where} cannot be read ({exc})") from exc
    found = dict(zip(_COUNTS, (len(rows), len(tags), len(attachments), len(trace),
                               len(totals))))
    if any(found[key] != history[key] for key in _COUNTS):
        raise CheckpointError(
            f"{where} holds {found}, the checkpoint records "
            f"{({key: history[key] for key in _COUNTS})}")
    log = _EventLog.from_columns(rows, tags, attachments, lineage=history["lineage"],
                                 buffer=rows.base)
    # the log is discarded: the engine restored from the view grows its buffer
    return log.view(handoff=True), trace, totals


def _piece_sizes(header: Tuple) -> Tuple[int, ...]:
    """Byte sizes of a block's rows, tags, attachments, trace and totals."""
    _, _, rows, tag_bytes, attach, trace, totals = header
    return 48 * rows, tag_bytes, 8 * attach, 8 * trace, 8 * totals


def _read_blocks(handle: io.BufferedReader, end: int, where: str) -> Tuple[
        np.ndarray, List[str], List[Tuple[int, Tuple[int, ...]]], List[float], List[float]]:
    """Decode the blocks in the sidecar's first ``end`` bytes.

    Walks the block headers first, then reads every block's rows straight
    into the first rows of one :meth:`_EventLog.buffer`, which has room for
    as many again; ``rows`` is that prefix (``rows.base`` the buffer), so
    the event log is never held twice, not even once a restored engine
    appends to it.
    """
    size = os.fstat(handle.fileno()).st_size
    if size < end:
        raise CheckpointError(
            f"{where} holds {size} bytes, the checkpoint ends at byte {end}")
    if handle.read(len(_SIDECAR_MAGIC)) != _SIDECAR_MAGIC:
        raise CheckpointError(f"{where} is not a history sidecar")
    headers: List[Tuple[int, Tuple]] = []
    offset = len(_SIDECAR_MAGIC)
    while offset < end:
        header = (_BLOCK.unpack(handle.read(_BLOCK.size))
                  if offset + _BLOCK.size <= end else None)
        if header is None or header[0] != _BLOCK_MAGIC or min(header[2:]) < 0 or \
                offset + _BLOCK.size + sum(_piece_sizes(header)) > end:
            raise CheckpointError(f"{where} has a damaged block at byte {offset}")
        headers.append((offset, header))
        offset += _BLOCK.size + sum(_piece_sizes(header))
        handle.seek(offset)
    total = sum(header[2] for _, header in headers)
    rows = _EventLog.buffer(total, dtype="<i8")[:total]
    tags: List[str] = []
    attachments: List[Tuple[int, Tuple[int, ...]]] = []
    trace: List[float] = []
    totals: List[float] = []
    filled = 0
    for offset, header in headers:
        handle.seek(offset + _BLOCK.size)
        block_rows = rows[filled:filled + header[2]].reshape(-1).view(np.uint8)
        filled += header[2]
        sizes = _piece_sizes(header)
        handle.readinto(block_rows)
        rest = handle.read(sum(sizes[1:]))
        if zlib.crc32(rest, zlib.crc32(block_rows)) != header[1]:
            raise CheckpointError(f"{where} has a damaged block at byte {offset}")
        tag_end, attach_end, trace_end = np.cumsum(sizes[1:4]).tolist()
        try:
            block_tags = json.loads(rest[:tag_end]) if tag_end else []
            if not isinstance(block_tags, list):
                raise ValueError("the tag table is not a list")
            tags.extend(block_tags)
            attachments.extend(_attachments(
                np.frombuffer(rest[tag_end:attach_end], dtype="<i8").tolist()))
        except ValueError:
            raise CheckpointError(f"{where} has a damaged block at byte {offset}") from None
        trace.extend(np.frombuffer(rest[attach_end:trace_end], dtype="<f8").tolist())
        totals.extend(np.frombuffer(rest[trace_end:], dtype="<f8").tolist())
    return rows, tags, attachments, trace, totals


def _attachments(flat: List[int]) -> List[Tuple[int, Tuple[int, ...]]]:
    """Decode ``row, count, label * count`` runs into ``(row, labels)`` pairs."""
    pairs = []
    position = 0
    while position < len(flat):
        count = flat[position + 1] if position + 1 < len(flat) else -1
        if count < 0 or position + 2 + count > len(flat):
            raise ValueError("a truncated attachment run")
        pairs.append((flat[position], tuple(flat[position + 2:position + 2 + count])))
        position += 2 + count
    return pairs


def read_checkpoint(path: PathLike) -> StreamCheckpoint:
    """Load and validate a checkpoint (version 2 with its sidecar, or version 1).

    Raises :class:`~repro.exceptions.CheckpointError` when the file is
    missing, truncated or otherwise not valid JSON, was written by an
    unknown format version, when its ``config_hash`` does not match its
    ``config`` (tampering / partial write), or when its sidecar is missing,
    shorter than the recorded offset or damaged.
    """
    path = pathlib.Path(path)
    with kernel_phase("checkpoint/read"):
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
        if version not in _READABLE_VERSIONS:
            raise CheckpointError(
                f"checkpoint {path} has format version {version}, "
                f"this library reads versions {_READABLE_VERSIONS}")
        known = set(StreamCheckpoint.__dataclass_fields__)
        if version == CHECKPOINT_VERSION:
            known = (known - set(_SIDECAR_FIELDS)) | {"history"}
        unknown = set(data) - known
        if unknown:
            raise CheckpointError(
                f"checkpoint {path} carries unknown fields {sorted(unknown)}")
        history = (_checked_history(data.pop("history", None))
                   if version == CHECKPOINT_VERSION else None)
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
        if history is not None:
            if not isinstance(checkpoint.state, dict):
                raise CheckpointError(f"checkpoint {path} is malformed (state)")
            (checkpoint.state["timeline"], checkpoint.trace_max_min,
             checkpoint.trace_total_weight) = _read_history(path, history)
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
    with kernel_phase("checkpoint/replay"):
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
