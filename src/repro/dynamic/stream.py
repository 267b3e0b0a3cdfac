"""Streaming engine: drive any balancer through a time-varying scenario.

The engine interleaves event streams with synchronous balancing rounds.
Each round it

1. polls the event generator with a read-only :class:`StreamView` and gets
   back one :class:`~repro.dynamic.events.EventBatch` of int64 columns;
2. applies the batch to its own mutable system state: per-label arrays over
   the sorted *stable labels* that survive node churn (speeds and an
   ``(n, K)`` matrix of task counts per weight class) and the topology as an
   ``(m, 2)`` int64 array of edges between those labels, in sorted canonical
   ``u < v`` order.  Joins and leaves split the batch and are applied one by
   one; each run of arrivals and departures between them is applied at once
   (see :meth:`StreamingEngine._apply_tokens`), with exactly the result of
   applying its rows in order;
3. **re-couples** the balancer whenever an event changed the workload or the
   topology — the continuous substrate of the paper's framework is only
   meaningful for a fixed graph and total load, so the discrete balancer is
   rebuilt from the current loads through the same registry
   (:func:`repro.simulation.engine.make_balancer`) used by static runs;
4. advances the balancer one round and records the discrepancy, the total
   real load and the quadratic potential.

Re-coupling is the dynamic analogue of restarting the paper's Algorithm 1/2
on the current configuration: between events the coupling (and therefore the
Theorem 3/8 guarantees relative to the *current* configuration) is exactly
the static one.  Dummy tokens created by a flow-imitation balancer are
eliminated at each re-coupling boundary (the paper's final clean-up step), so
the tracked workload always equals ``initial + arrivals - departures``.

Node leaves that would disconnect the network (or shrink it below three
nodes) are rejected and recorded as such — the engine unconditionally
preserves connectivity, which every balancing process in this library
requires.  Events on labels that are not in the system are rejected too.

The timeline of every event seen is kept as int64 columns (round, kind,
label, realised tokens, applied, tag), appended once per round.  The
``timeline`` property, ``result().event_timeline`` and
``state_dict()["timeline"]`` are O(1) :class:`EventTimeline` views that read
like the list of event dicts and render a row only when it is read; the
checkpoint writer and the burst scan read their columns directly.

**Weighted streams.**  The initial workload may be a weighted
:class:`~repro.tasks.assignment.TaskAssignment` or columnar
:class:`~repro.tasks.weighted.WeightedLoads` (integer weights, algorithm1
only).  Unit and weighted streams share one state: the count matrix has one
column per weight class in ascending order with weight 1 always first, so a
unit stream is the one-column case.  Arrivals and departures act on column 0
(the streamed work is unit tokens; heavy tasks travel only through balancing
and node leaves), and a leave hands each column out round-robin in
ascending weight.  Re-coupling hands the balancer the matrix's non-zero
entries as ``WeightedLoads`` in canonical (ascending-weight) order, so the
object and columnar backends stay trajectory-identical on weighted streams
too — and the columnar fast path keeps re-coupling O(n + buckets) with no
per-task objects.
"""

from __future__ import annotations

import secrets
from bisect import bisect_left
from collections.abc import Sequence
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..backend import resolve_backend
from ..core.flow_imitation import FlowCoupledBalancer, TaskSelectionPolicy
from ..counter_rng import require_counter_rng
from ..exceptions import CheckpointError, ExperimentError, NetworkError
from ..obs.bus import MetricsBus
from ..obs.kernels import kernel_phase
from ..obs.probe import RoundProbe
from ..network.graph import Network, node_id_array
from ..simulation.engine import make_balancer, make_schedule, summarize_balancer
from ..simulation.results import RunResult
from ..tasks.assignment import TaskAssignment
from ..tasks.load import as_token_counts, max_min_discrepancy, quadratic_potential
from ..tasks.weighted import WeightedLoads
from .events import (
    DEPARTURE,
    EVENT_KINDS,
    JOIN,
    KIND_CODES,
    NO_LABEL,
    EventBatch,
    EventGenerator,
    StreamView,
)

__all__ = ["run_stream", "StreamingEngine", "EventTimeline"]

_DEPARTURE, _JOIN = KIND_CODES[DEPARTURE], KIND_CODES[JOIN]


#: The event log's columns, in row order.
_COLUMNS = ("round", "kind", "node", "tokens", "applied", "tag")
_ROUND, _KIND, _LABEL, _TOKENS, _APPLIED, _TAG = range(len(_COLUMNS))


class EventTimeline(Sequence):
    """Read-only view of an event log's first ``len(self)`` rows.

    Behaves like the list of JSON-friendly event dicts it stands for -- O(1)
    ``len``, a fresh dict per item, negative indices and slices, ``==``
    against lists and other timelines and the list's ``repr`` -- without
    building them: rows are rendered only when read.  The log only ever
    appends past the rows a view covers, so a view is a stable snapshot.
    Columnar readers (checkpoints, :func:`repro.dynamic.metrics.burst_rounds`)
    use :meth:`column`, :meth:`rows`, :attr:`tags` and :meth:`attachments`
    instead.
    ``lineage`` names the live log the rows came from; a checkpoint appends
    to an existing sidecar only for the same lineage.  A view read from a
    checkpoint may carry ``buffer``: a writable array whose first rows are
    this view's, with room to grow, handed once to the log that continues
    the timeline (see :meth:`_EventLog.from_timeline`).
    """

    __slots__ = ("_rows", "_tags", "_attach_rows", "_attach_to", "_attached", "lineage",
                 "_buffer")

    def __init__(self, rows: np.ndarray, tags: Tuple[str, ...], attach_rows: List[int],
                 attach_to: List[Tuple[int, ...]], attached: int, lineage: str,
                 buffer: Optional[np.ndarray] = None) -> None:
        self._rows = rows[:]
        self._rows.flags.writeable = False
        self._tags = tags
        self._attach_rows, self._attach_to, self._attached = attach_rows, attach_to, attached
        self.lineage = lineage
        self._buffer = buffer

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1:
                return self._records(start, max(start, stop))
            return [self._records(row, row + 1)[0] for row in range(start, stop, step)]
        row = range(len(self))[index]
        return self._records(row, row + 1)[0]

    def __iter__(self):
        return iter(self._records(0, len(self)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (EventTimeline, list)):
            return len(other) == len(self) and self._records(0, len(self)) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self._records(0, len(self)))

    def __deepcopy__(self, memo) -> "EventTimeline":
        return self  # immutable: ``dataclasses.asdict`` of a result need not copy it

    def __reduce__(self):
        # the rows and attachments this view covers, never the spare buffer
        return (EventTimeline, (self._rows, self._tags, self._attach_rows[:self._attached],
                                self._attach_to[:self._attached], self._attached,
                                self.lineage))

    @property
    def tags(self) -> Tuple[str, ...]:
        """The tag table the ``tag`` column indexes."""
        return self._tags

    def column(self, name: str) -> np.ndarray:
        """One int64 column (read-only): round, kind, node, tokens, applied or tag.

        ``node`` holds :data:`~repro.dynamic.events.NO_LABEL` for a rejected
        join; ``applied`` is 0/1; ``tag`` indexes :attr:`tags`.
        """
        return self._rows[:, _COLUMNS.index(name)]

    def rows(self, start: int = 0) -> np.ndarray:
        """The rows from ``start`` on, as a read-only ``(R, 6)`` int64 array in column order."""
        return self._rows[start:]

    def attachments(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """``(row, attachment labels)`` of every row with a non-empty ``attach_to``."""
        return list(zip(self._attach_rows[:self._attached],
                        self._attach_to[:self._attached]))

    def _records(self, start: int, stop: int) -> List[Dict[str, object]]:
        """Rows ``start:stop`` as fresh JSON-friendly dicts."""
        tags = self._tags
        records = [{"kind": EVENT_KINDS[kind],
                    "node": None if kind == _JOIN and label == NO_LABEL else label,
                    "tokens": tokens, "attach_to": [], "tag": tags[tag],
                    "round": round_index, "applied": applied == 1}
                   for round_index, kind, label, tokens, applied, tag
                   in zip(*self._rows[start:stop].T.tolist())]
        rows = self._attach_rows
        for position in range(bisect_left(rows, start, 0, self._attached),
                              bisect_left(rows, stop, 0, self._attached)):
            records[rows[position] - start]["attach_to"] = list(self._attach_to[position])
        return records


class _EventLog:
    """The event timeline as int64 columns, appended once per round.

    One row per event: round, kind code, label, realised tokens, applied
    (0/1) and an index into ``tags``; ``attach`` lists, in row order, the
    rows with attachment labels.  Capacity doubles as rows arrive.  Rows are
    never rewritten, so :meth:`view` is an O(1) snapshot.  ``lineage``
    names this log (see :class:`EventTimeline`).
    """

    def __init__(self, lineage: Optional[str] = None) -> None:
        self._rows = np.empty((64, len(_COLUMNS)), dtype=np.int64)
        self._size = 0
        self._tags: List[str] = []
        self._tag_codes: Dict[str, int] = {}
        # the log's code of each tag in a batch's tag table, per table
        self._tag_maps: Dict[Tuple[str, ...], np.ndarray] = {}
        self._attach_rows: List[int] = []
        self._attach_to: List[Tuple[int, ...]] = []
        self.lineage = lineage if lineage is not None else secrets.token_hex(8)

    def append(self, rounds, kinds, labels, tokens, applied, tags: Tuple[str, ...],
               tag_column, attach: Dict[int, Tuple[int, ...]]) -> None:
        """Append one block of rows; ``tag_column`` indexes the block's ``tags``."""
        size = len(kinds)
        if not size:
            return
        end = self._size + size
        self._reserve(end)
        block = self._rows[self._size:end]
        block[:, _ROUND], block[:, _KIND], block[:, _LABEL] = rounds, kinds, labels
        block[:, _TOKENS], block[:, _APPLIED] = tokens, applied
        codes = self._tag_maps.get(tags)
        if codes is None:
            codes = self._tag_maps[tags] = np.array([self._tag_code(tag) for tag in tags],
                                                    dtype=np.int64)
        block[:, _TAG] = codes[tag_column]
        for row in sorted(attach):
            if attach[row]:
                self._attach_rows.append(self._size + row)
                self._attach_to.append(tuple(attach[row]))
        self._size = end

    def _reserve(self, rows: int) -> None:
        if rows > len(self._rows):
            grown = np.empty((max(rows, 2 * len(self._rows), 64), len(_COLUMNS)),
                             dtype=np.int64)
            grown[:self._size] = self._rows[:self._size]
            self._rows = grown

    def _tag_code(self, tag: str) -> int:
        code = self._tag_codes.get(tag)
        if code is None:
            code = self._tag_codes[tag] = len(self._tags)
            self._tags.append(tag)
        return code

    def view(self, handoff: bool = False) -> EventTimeline:
        """The timeline of every row appended so far.

        With ``handoff`` the view also carries this log's row buffer to the
        first log that continues it; only a log that appends no more rows
        (one read from a checkpoint) may hand it off.
        """
        return EventTimeline(self._rows[:self._size], tuple(self._tags), self._attach_rows,
                             self._attach_to, len(self._attach_rows), self.lineage,
                             self._rows if handoff else None)

    @staticmethod
    def buffer(rows: int, dtype=np.int64) -> np.ndarray:
        """An uninitialised row buffer with room for ``rows`` rows and as many again."""
        return np.empty((max(2 * rows, 64), len(_COLUMNS)), dtype=dtype)

    @classmethod
    def from_columns(cls, rows: np.ndarray, tags: Sequence[str],
                     attachments: Sequence[Tuple[int, Tuple[int, ...]]],
                     lineage: Optional[str] = None,
                     buffer: Optional[np.ndarray] = None) -> "_EventLog":
        """The log of ``rows`` (an ``(R, 6)`` int64 array), its tag table and attachments.

        The log adopts ``rows`` without copying it.  Given a writable
        ``buffer`` whose first ``R`` rows are ``rows`` (``rows`` is its
        prefix view), the log appends in place past them until the buffer is
        full; otherwise the first append moves the rows to a new array and
        never writes to ``rows``.
        """
        log = cls(lineage)
        rows = np.ascontiguousarray(rows, dtype=np.int64).reshape(-1, len(_COLUMNS))
        log._rows = rows if buffer is None else buffer
        log._size = len(rows)
        for tag in tags:
            log._tag_code(str(tag))
        for row, targets in attachments:
            if targets:
                log._attach_rows.append(int(row))
                log._attach_to.append(tuple(int(label) for label in targets))
        return log

    @classmethod
    def from_timeline(cls, timeline: Sequence[Dict[str, Any]]) -> "_EventLog":
        """A fresh log (new lineage) of a timeline view (sharing its rows) or of event dicts.

        A view's spare buffer, if it carries one, goes to the first log made
        from it, which then grows in place; later logs copy on their first
        append.
        """
        if isinstance(timeline, EventTimeline):
            buffer, timeline._buffer = timeline._buffer, None
            return cls.from_columns(timeline._rows, timeline.tags, timeline.attachments(),
                                    buffer=buffer)
        tags = list(dict.fromkeys(str(record["tag"]) for record in timeline))
        code = {tag: index for index, tag in enumerate(tags)}
        rows = np.array([[int(record["round"]), KIND_CODES[str(record["kind"])],
                          NO_LABEL if record["node"] is None else int(record["node"]),
                          int(record["tokens"]), bool(record["applied"]),
                          code[str(record["tag"])]] for record in timeline],
                        dtype=np.int64).reshape(-1, len(_COLUMNS))
        return cls.from_columns(rows, tags, [(row, record["attach_to"]) for row, record
                                             in enumerate(timeline) if record["attach_to"]])


class StreamingEngine:
    """Mutable system state plus the event/round loop of a dynamic run.

    Most callers should use :func:`run_stream`; the class is public so tests
    and long-running drivers can step the system round by round and inspect
    intermediate state.
    """

    def __init__(
        self,
        algorithm: str,
        network: Network,
        initial_load: Union[Sequence[float], TaskAssignment, WeightedLoads],
        generator: EventGenerator,
        continuous_kind: str = "fos",
        seed: Optional[int] = None,
        selection_policy: str = TaskSelectionPolicy.FIFO,
        backend: str = "auto",
        rng_mode: str = "counter",
        bus: Optional[MetricsBus] = None,
    ) -> None:
        require_counter_rng(rng_mode, error=ExperimentError)
        network.require_connected()

        if isinstance(initial_load, TaskAssignment):
            initial_load = WeightedLoads.from_assignment(initial_load)
        weighted: Optional[WeightedLoads] = None
        if isinstance(initial_load, WeightedLoads):
            if initial_load.num_nodes != network.num_nodes:
                raise ExperimentError(
                    f"initial load must cover {network.num_nodes} nodes, "
                    f"got {initial_load.num_nodes}")
            if initial_load.max_weight() > 1:
                weighted = initial_load
            buckets = initial_load.buckets()
        else:
            counts = as_token_counts(list(initial_load), network, error=ExperimentError)
            buckets = [{1: count} for count in counts.tolist()]

        # "auto" resolves unit-token and weighted streams alike to the array
        # backend's one columnar state; either backend gives the same
        # trajectory.
        choice = resolve_backend(backend, weighted=weighted, algorithm=algorithm)
        self._config: Dict[str, Any] = {
            "algorithm": algorithm, "continuous_kind": continuous_kind,
            "seed": seed, "selection_policy": selection_policy,
            "rng_mode": rng_mode, "backend": backend,
            "resolved_backend": choice.name, "weighted": weighted is not None,
            "base_name": network.name,
        }
        self._generator = generator
        self._backend_reason = choice.reason

        # Stable-label state: the edge array and per-label arrays the events
        # act on.  ``network`` already uses contiguous labels 0..n-1, which
        # become the initial stable labels; joins get fresh labels beyond the
        # maximum.
        self._edges = np.column_stack(network.edge_endpoints)
        self._load_rows(range(network.num_nodes), network.speeds, buckets)
        self._next_label = network.num_nodes

        self._round = 0
        self._recouplings = 0
        self._fast_recouplings = 0
        self._arrived = 0
        self._departed = 0
        self._rejected_events = 0
        self._clamped_tokens = 0
        # Failure-mode counters accumulated across re-couplings (each
        # coupling discards the previous balancer together with its own
        # counters, so the run-level totals live here).
        self._dummy_tokens = 0
        self._used_infinite_source = False
        self._went_negative = False
        self._log = _EventLog()

        self._network: Network = None  # type: ignore[assignment]
        self._balancer = None
        # (edges, network) of the last accepted leave, for the next _couple
        self._left: Optional[Tuple[np.ndarray, Network]] = None
        self._attach_bus(bus)
        self._couple()

    # ------------------------------------------------------------------ #
    # read-only state
    # ------------------------------------------------------------------ #

    @property
    def round_index(self) -> int:
        """The index of the next round to be executed."""
        return self._round

    @property
    def network(self) -> Network:
        """The currently coupled network."""
        return self._network

    @property
    def balancer(self):
        """The currently coupled discrete balancer."""
        return self._balancer

    @property
    def recouplings(self) -> int:
        """How many times events forced the balancer to be re-coupled."""
        return self._recouplings

    @property
    def fast_recouplings(self) -> int:
        """How many re-couplings took the O(n) in-place path (topology fixed)."""
        return self._fast_recouplings

    @property
    def backend(self) -> str:
        """The resolved load-state backend driving this stream."""
        return self._config["resolved_backend"]

    @property
    def timeline(self) -> EventTimeline:
        """Chronological record of all events seen so far (a read-only view)."""
        return self._log.view()

    @property
    def labels(self) -> Tuple[int, ...]:
        """Sorted stable labels of the nodes currently in the system."""
        return self._labels

    @property
    def weighted(self) -> bool:
        """Whether this stream tracks weighted tasks (weight buckets)."""
        return bool(self._config["weighted"])

    def tokens_by_label(self) -> Dict[int, int]:
        """Current real (non-dummy) load per stable label (copy).

        On weighted streams the value is the node's total real task weight.
        """
        return self._tokens_of(self._counts)

    def buckets_by_label(self) -> Dict[int, Dict[int, int]]:
        """Current real ``{weight: count}`` buckets per label (weighted streams)."""
        return self._buckets_of(self._counts) if self.weighted else {}

    def total_real_load(self) -> int:
        """Total real load (token count, or total weight on weighted streams)."""
        return int(self._counts.sum(axis=0) @ self._weights)

    def view(self) -> StreamView:
        """The read-only snapshot handed to the event generator this round."""
        return StreamView(round_index=self._round, labels=self._label_array,
                          loads=self._counts @ self._weights, network=self._network)

    # ------------------------------------------------------------------ #
    # the per-label arrays
    # ------------------------------------------------------------------ #

    def _load_rows(self, labels, speeds, buckets) -> None:
        """Set the per-label arrays from one ``{weight: count}`` mapping per label.

        The weight classes are the workload's plus weight 1 (column 0, where
        streamed unit tokens arrive and depart); no event creates a new class.
        """
        self._weights = np.array(sorted({1}.union(*buckets)), dtype=np.int64)
        self._set_rows(tuple(labels), np.asarray(speeds, dtype=float),
                       self._bucket_matrix(buckets))

    def _set_rows(self, labels: Tuple[int, ...], speeds: np.ndarray,
                  counts: np.ndarray) -> None:
        """Install new rows (only on JOIN/LEAVE) and rebuild the label array."""
        self._labels, self._speeds, self._counts = labels, speeds, counts
        self._label_array = np.array(labels, dtype=np.int64)
        self._label_array.flags.writeable = False

    def _find_rows(self, labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The row of every label in ``labels`` and whether it is in the system.

        An unknown label gets the row it would sort into (clipped to the
        last row) and ``False``.
        """
        rows = np.searchsorted(self._label_array, labels)
        np.minimum(rows, len(self._labels) - 1, out=rows)
        return rows, self._label_array[rows] == labels

    def _bucket_matrix(self, buckets: Sequence[Dict[int, int]]) -> np.ndarray:
        """The ``(n, K)`` count matrix of one ``{weight: count}`` mapping per row."""
        column = {weight: k for k, weight in enumerate(self._weights.tolist())}
        counts = np.zeros((len(buckets), len(column)), dtype=np.int64)
        for row, bucket in enumerate(buckets):
            for weight, count in bucket.items():
                counts[row, column[weight]] = count
        return counts

    def _tokens_of(self, counts: np.ndarray) -> Dict[int, int]:
        """Total real weight per label of a count matrix over the current rows."""
        return dict(zip(self._labels, (counts @ self._weights).tolist()))

    def _buckets_of(self, counts: np.ndarray) -> Dict[int, Dict[int, int]]:
        """Non-empty ``{weight: count}`` buckets per label of a count matrix."""
        weights = self._weights.tolist()
        return {label: {weight: count for weight, count in zip(weights, row) if count}
                for label, row in zip(self._labels, counts.tolist())}

    # ------------------------------------------------------------------ #
    # metrics of the current state
    # ------------------------------------------------------------------ #

    def current_discrepancy(self) -> float:
        """Max-min discrepancy of the physical loads (dummies included)."""
        return max_min_discrepancy(self._balancer.loads(), self._network)

    def current_potential(self) -> float:
        """Quadratic potential of the physical loads (dummies included)."""
        return quadratic_potential(self._balancer.loads(), self._network)

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #

    def config_dict(self) -> Dict[str, object]:
        """The immutable run configuration a checkpoint must match to resume.

        Hashed into the checkpoint's ``config_hash`` (via the run store's
        canonical-JSON machinery) so a checkpoint can only be restored onto
        the configuration that produced it.
        """
        return dict(self._config)

    def state_dict(self) -> Dict[str, object]:
        """Snapshot of the full mutable stream state, O(n·K) plus the timeline view.

        Every value is JSON-friendly except ``timeline``, an
        :class:`EventTimeline` (the run store's canonical JSON renders it as
        its list of dicts).  The snapshot holds the stable-label system (sorted ``nodes``, the
        sorted canonical ``[u, v]`` label pairs of ``edges``, speeds, tokens),
        every run-level counter, the event generator's randomness position
        and the last coupling **boundary** (workload + rounds advanced since).
        :meth:`restore` re-couples at the boundary and deterministically
        replays the post-boundary rounds, so the pair round-trips the engine
        bit-identically at *any* round — no balancer internals need to be
        serialised.
        """
        return {
            "round": self._round,
            "recouplings": self._recouplings,
            "fast_recouplings": self._fast_recouplings,
            "arrived": self._arrived,
            "departed": self._departed,
            "rejected_events": self._rejected_events,
            "clamped_tokens": self._clamped_tokens,
            "dummy_tokens": self._dummy_tokens,
            "used_infinite_source": self._used_infinite_source,
            "went_negative": self._went_negative,
            "next_label": self._next_label,
            "backend_reason": self._backend_reason,
            "nodes": list(self._labels),
            "edges": self._edges.tolist(),
            "speeds": dict(zip(self._labels, self._speeds.tolist())),
            "tokens": self._tokens_of(self._counts),
            "buckets": self._buckets_of(self._counts) if self.weighted else None,
            "boundary": {"tokens": self._tokens_of(self._boundary_counts),
                         "buckets": (self._buckets_of(self._boundary_counts)
                                     if self.weighted else None),
                         "clamped_tokens": self._boundary_clamped,
                         "rounds_since": self._rounds_since_boundary},
            "timeline": self._log.view(),
            "generator": self._generator.state_dict(),
        }

    @staticmethod
    def _int_keys(mapping, cast=int) -> Dict[int, object]:
        """Undo JSON's string-keying of an integer-keyed mapping."""
        return {int(key): cast(value) for key, value in mapping.items()}

    @classmethod
    def restore(cls, config: Dict[str, object], state: Dict[str, object],
                generator: EventGenerator,
                bus: Optional[MetricsBus] = None) -> "StreamingEngine":
        """Rebuild an engine from :meth:`config_dict` + :meth:`state_dict`.

        ``generator`` must be a *freshly constructed* event generator of the
        same shape as the checkpointed run's (its randomness position is
        restored from the snapshot).  The engine re-couples the balancer at
        the checkpoint's last coupling boundary and replays the event-free
        rounds since, which reproduces the balancer, schedule and substrate
        state bit-identically — the restored engine continues exactly as the
        uninterrupted run would have.  A post-replay integrity check
        verifies the replayed loads match the snapshotted ones and raises
        :class:`~repro.exceptions.CheckpointError` otherwise; so does a
        malformed topology (a label listed twice, a self loop, an edge or a
        node missing from the other tables).  ``state["timeline"]`` may be an
        :class:`EventTimeline` or a list of event dicts; the engine continues
        it under a new lineage, appending in place to the spare buffer a
        view read from a checkpoint carries (see :meth:`_EventLog.from_timeline`).
        """
        require_counter_rng(config.get("rng_mode"), error=CheckpointError)
        engine = cls.__new__(cls)
        engine._config = dict(config)
        engine._generator = generator
        engine._backend_reason = state.get(
            "backend_reason", "restored from checkpoint")

        boundary = state["boundary"]
        labels, engine._edges = cls._checked_topology(state)
        speeds = cls._int_keys(state["speeds"], float)
        tokens = cls._int_keys(boundary["tokens"])
        # unit streams store no buckets: each label's tokens are its weight-1 count
        buckets = (cls._int_keys(boundary["buckets"], cls._int_keys) if boundary["buckets"]
                   else {label: {1: count} for label, count in tokens.items()})
        for table, mapping in (("speeds", speeds), ("boundary tokens", tokens),
                               ("boundary buckets", buckets)):
            missing = [label for label in labels if label not in mapping]
            if missing:
                raise CheckpointError(
                    f"malformed checkpoint: nodes {missing} have no {table}")
        engine._load_rows(labels, [speeds[label] for label in labels],
                          [buckets[label] for label in labels])
        engine._next_label = int(state["next_label"])

        engine._round = int(state["round"])
        engine._recouplings = int(state["recouplings"])
        engine._fast_recouplings = int(state["fast_recouplings"])
        engine._arrived = int(state["arrived"])
        engine._departed = int(state["departed"])
        engine._rejected_events = int(state["rejected_events"])
        engine._clamped_tokens = int(boundary["clamped_tokens"])
        engine._dummy_tokens = int(state["dummy_tokens"])
        engine._used_infinite_source = bool(state["used_infinite_source"])
        engine._went_negative = bool(state["went_negative"])
        engine._log = _EventLog.from_timeline(state["timeline"])

        engine._balancer = None
        engine._left = None
        engine._attach_bus(None)
        engine._couple()
        for _ in range(int(boundary["rounds_since"])):
            engine._balancer.advance()
            engine._sync_tokens_from_balancer()
            engine._rounds_since_boundary += 1

        if engine.tokens_by_label() != cls._int_keys(state["tokens"]):
            raise CheckpointError(
                "checkpoint integrity failure: replaying "
                f"{boundary['rounds_since']} round(s) from the coupling "
                "boundary did not reproduce the snapshotted loads")
        if engine._clamped_tokens != int(state["clamped_tokens"]):
            raise CheckpointError(
                "checkpoint integrity failure: replayed clamped-token "
                f"count {engine._clamped_tokens} != snapshotted "
                f"{state['clamped_tokens']}")
        generator.load_state_dict(state["generator"])
        engine._attach_bus(bus)
        return engine

    @staticmethod
    def _checked_topology(state: Dict[str, object]) -> Tuple[List[int], np.ndarray]:
        """The sorted labels and sorted canonical edge array of a snapshot."""
        try:
            labels = sorted(node_id_array(state["nodes"]).tolist())
            edges = node_id_array(state["edges"])
        except NetworkError as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}") from None
        if len(set(labels)) != len(labels):
            raise CheckpointError("malformed checkpoint: a node label is listed twice")
        if edges.size and edges.shape[1:] != (2,):
            raise CheckpointError("malformed checkpoint: edges must be [u, v] label pairs")
        edges = edges.reshape(-1, 2)
        if np.any(edges[:, 0] == edges[:, 1]):
            raise CheckpointError("malformed checkpoint: the topology has a self loop")
        if not np.isin(edges, labels).all():
            raise CheckpointError(
                "malformed checkpoint: an edge names a label that is not a node")
        return labels, np.unique(np.sort(edges, axis=1), axis=0)

    def _attach_bus(self, bus: Optional[MetricsBus]) -> None:
        """Send telemetry to ``bus`` (None: nowhere), probing the current balancer."""
        config = self._config
        self._bus = bus
        self._probe = None if bus is None else RoundProbe(
            bus, source="stream", context={
                "algorithm": config["algorithm"], "backend": config["resolved_backend"],
                "rng_mode": config["rng_mode"]})
        if self._probe is not None and self._balancer is not None:
            self._balancer.attach_probe(self._probe)

    # ------------------------------------------------------------------ #
    # coupling
    # ------------------------------------------------------------------ #

    def _couple_seed(self) -> Optional[int]:
        seed = self._config["seed"]
        return None if seed is None else seed + 7919 * self._recouplings

    def _current_workload(self) -> Union[np.ndarray, WeightedLoads]:
        """The per-label counts as the balancer workload (canonical order).

        ``np.nonzero`` walks the matrix row by row and each row in ascending
        weight, which is exactly the ``WeightedLoads`` bucket order.
        """
        if not self.weighted:
            return self._counts[:, 0].copy()
        rows, columns = np.nonzero(self._counts)
        offsets = np.zeros(len(self._labels) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(self._labels)), out=offsets[1:])
        return WeightedLoads(self._weights[columns], self._counts[rows, columns], offsets)

    def _ranked_network(self, labels: np.ndarray, edges: np.ndarray,
                        speeds: np.ndarray) -> Network:
        """The network on the sorted ``labels`` and their ``edges``, nodes numbered by rank."""
        ranks = np.searchsorted(labels, edges)
        return Network.from_edges(labels.size, ranks[:, 0], ranks[:, 1], speeds=speeds,
                                  name=f"{self._config['base_name']}+dynamic")

    def _couple(self) -> None:
        """(Re)build the network and balancer from the stable-label state."""
        self._harvest_balancer_counters()
        config = self._config
        # The network's indices 0..n-1 are the ranks of the sorted stable
        # labels (sorted edges keep ``Network.graph``'s adjacency order), and
        # ``node_labels`` maps them back -- the index -> stable-label mapping
        # the StreamView contract promises to generators.  A leave that left
        # these very edges has built and checked this network already.
        left, self._left = self._left, None
        if left is not None and left[0] is self._edges:
            network = left[1]
        else:
            network = self._ranked_network(self._label_array, self._edges, self._speeds)
        network.node_labels = list(self._labels)
        workload = self._current_workload()

        couple_seed = self._couple_seed()
        schedule = make_schedule(config["continuous_kind"], network, seed=couple_seed)
        self._network = network
        self._balancer = make_balancer(
            config["algorithm"], network,
            initial_load=None if self.weighted else workload,
            weighted_load=workload if self.weighted else None,
            continuous_kind=config["continuous_kind"], schedule=schedule,
            seed=couple_seed, selection_policy=config["selection_policy"],
            backend=config["resolved_backend"],
        )
        if self._probe is not None:
            self._balancer.attach_probe(self._probe)
        self._mark_boundary()

    def _mark_boundary(self) -> None:
        """Snapshot the per-label counts at a coupling boundary.

        Between boundaries the system evolves by plain ``advance()`` rounds —
        a deterministic function of the boundary workload, the network and
        the per-coupling seed — so a checkpoint only needs the boundary
        state plus the round count since it; restoration re-couples at the
        boundary and replays (:meth:`restore`).  ``clamped_tokens`` is
        snapshotted too because the replayed syncs re-accumulate any
        post-boundary clamping.  Every JOIN/LEAVE re-couples, so the rows
        never change between boundaries.
        """
        self._boundary_counts = self._counts.copy()
        self._boundary_clamped = self._clamped_tokens
        self._rounds_since_boundary = 0

    def _recouple_loads(self) -> None:
        """O(n) re-coupling: only loads changed, so rewind the balancer in place.

        The network, the matching schedule object and the substrate's cached
        spectral data (diffusion weights, transfer rates, the SOS ``beta``)
        are all reused; with the same per-coupling seed the resulting system
        is bit-identical to a full :meth:`_couple` rebuild, which keeps
        dynamic trajectories independent of how a re-coupling was performed.
        On the array backend this removes every O(W) term from the event
        path — the unlock for million-token streams; weighted streams hand
        the balancer columnar weight buckets, so the fast path stays
        O(n + buckets) there too.
        """
        self._harvest_balancer_counters()
        self._balancer.recouple(self._current_workload(), seed=self._couple_seed())
        self._fast_recouplings += 1
        self._mark_boundary()

    def _harvest_balancer_counters(self) -> None:
        """Fold the outgoing balancer's failure-mode counters into the run totals."""
        if self._balancer is None:
            return
        if isinstance(self._balancer, FlowCoupledBalancer):
            self._dummy_tokens += self._balancer.dummy_tokens_created
            self._used_infinite_source |= self._balancer.used_infinite_source
        else:
            self._went_negative |= bool(getattr(self._balancer, "went_negative", False))

    def _sync_tokens_from_balancer(self) -> None:
        """Pull the post-round loads back into the per-label counts.

        Flow-imitation balancers report their *real* tasks (dummy tokens are
        dropped at the next re-coupling boundary, mirroring the paper's final
        dummy-elimination step).  Baselines that can drive a node negative
        are clamped at zero here; the clamped amount is recorded so the run
        result can report the conservation violation instead of hiding it.
        Weighted streams pull back the whole per-node weight multiset.
        """
        if self.weighted:
            self._counts = self._bucket_matrix(self._balancer.real_weight_buckets())
            return
        if isinstance(self._balancer, FlowCoupledBalancer):
            loads = self._balancer.loads(include_dummies=False)
        else:
            loads = self._balancer.loads()
        counts = np.rint(np.asarray(loads, dtype=float)).astype(np.int64)
        if counts.min() < 0:
            self._clamped_tokens -= int(counts[counts < 0].sum())
            np.maximum(counts, 0, out=counts)
        self._counts[:, 0] = counts

    # ------------------------------------------------------------------ #
    # events
    # ------------------------------------------------------------------ #

    def _apply(self, batch: EventBatch) -> Tuple[bool, bool, int]:
        """Apply one round's batch and log it; return (changed, topology changed, applied).

        Joins and leaves split the batch and are applied one by one; each
        run of arrivals and departures between them is applied at once.
        """
        size = len(batch)
        labels = batch.label.copy()
        tokens = batch.tokens.copy()
        applied = np.ones(size, dtype=bool)
        attach = dict(batch.attach)
        changed = topology_changed = False
        start = 0
        # joins and leaves have the two largest kind codes
        for row in (batch.kind >= _JOIN).nonzero()[0].tolist() + [size]:
            if row > start:
                changed |= self._apply_tokens(batch, start, row, tokens, applied)
            if row < size and self._apply_membership(batch, row, labels, tokens,
                                                     applied, attach):
                changed = topology_changed = True
            start = row + 1
        self._log.append(self._round, batch.kind, labels, tokens, applied,
                         batch.tags, batch.tag, attach)
        accepted = int(applied.sum())
        self._rejected_events += size - accepted
        return changed, topology_changed, accepted

    def _apply_tokens(self, batch: EventBatch, start: int, stop: int,
                      tokens: np.ndarray, applied: np.ndarray) -> bool:
        """Apply rows ``start:stop`` (arrivals and departures) at once.

        The result equals applying the rows in order, each departure taking
        at most what its node holds at that moment.  A row on a label not in
        the system is rejected.  Writes the rows' realised tokens and
        applied flags; returns whether any count changed, row by row: an
        arrival and an equal departure on one label still change it twice.

        Which of two ways applies the rows is decided by the input alone.
        When every label is known and no label's departures in the rows add
        up to more than its count before them (:meth:`_cannot_clamp`), no
        departure can be cut short whatever the order, so one scatter of the
        signed tokens applies them and every departure realises what it
        asked (:meth:`_scatter_tokens`).  Any other run takes the
        order-aware reflection pass (:meth:`_reflect_tokens`).
        """
        rows, known = self._find_rows(batch.label[start:stop])
        applied[start:stop] = known
        requested = batch.tokens[start:stop]
        departures = batch.kind[start:stop] == _DEPARTURE
        asked = requested[departures]
        if self._cannot_clamp(known, rows[departures], asked):
            return self._scatter_tokens(rows, requested, departures, asked)
        return self._reflect_tokens(rows, known, requested, departures, tokens[start:stop])

    def _cannot_clamp(self, known: np.ndarray, drained: np.ndarray, asked: np.ndarray) -> bool:
        """Whether every label is known and no label's departures exceed its count.

        ``drained`` holds the row and ``asked`` the request of every
        departure.  A label's departures add up to at most ``k`` times the
        largest of the ``k`` requests; when that product could leave int64
        the sums are not formed, the answer is ``False`` and the reflection
        pass, which caps requests, applies the rows.
        """
        if not known.all():
            return False
        if not asked.size:
            return True
        if asked.size * int(asked.max()) >= 2 ** 63:
            return False
        demand = np.zeros(len(self._labels), dtype=np.int64)
        np.add.at(demand, drained, asked)
        return bool((demand <= self._counts[:, 0]).all())

    def _scatter_tokens(self, rows: np.ndarray, requested: np.ndarray,
                        departures: np.ndarray, asked: np.ndarray) -> bool:
        """Add the signed tokens to their rows' counts; every row realises its request."""
        signed = np.where(departures, -requested, requested)
        np.add.at(self._counts[:, 0], rows, signed)
        departed = int(asked.sum())
        self._departed += departed
        self._arrived += int(signed.sum()) + departed
        return bool(requested.any())

    def _reflect_tokens(self, rows: np.ndarray, known: np.ndarray, requested: np.ndarray,
                        departures: np.ndarray, tokens: np.ndarray) -> bool:
        """Apply the rows in order with departures clamped at zero; write realised ``tokens``.

        Per label, in batch order, the unclamped running count is ``S``
        (start count + arrivals - requests); the clamped count is
        ``S - min(0, cummin S)`` (the Skorokhod reflection at zero) and a
        departure realises the drop in the clamped count.  A stable sort by
        row groups the labels, and one ``np.minimum.accumulate`` over
        ``min(S, 0) - group * B``, with ``B`` above the range of
        ``min(S, 0)``, takes every group's running minimum at once.  A
        rejected row (unknown label) changes nothing, so it may share the
        group of the row its label would sort into.  A request above every
        count plus every arrival of the rows realises what that bound would,
        so requests are capped at it, which keeps all the sums in int64.
        """
        bound = int(self._counts[:, 0].max()) + int(requested[~departures].sum())
        delta = np.where(departures, -np.minimum(requested, bound), requested)
        delta *= known

        order = np.argsort(rows, kind="stable")
        row_of, delta = rows[order], delta[order]
        first = np.empty(row_of.size, dtype=bool)
        first[0] = True
        np.not_equal(row_of[1:], row_of[:-1], out=first[1:])
        group = np.cumsum(first)
        initial = self._counts[row_of[first], 0]
        running = np.cumsum(delta)
        running += (initial - (running - delta)[first])[group - 1]
        floor = np.minimum(running, 0)
        spread = 1 - int(floor.min())
        if int(group[-1]) * spread >= 2 ** 62:
            raise ExperimentError("event batch too large to apply in int64")
        floor -= group * spread
        np.minimum.accumulate(floor, out=floor)
        floor += group * spread
        count = running - floor

        change = np.empty_like(count)
        np.subtract(count[1:], count[:-1], out=change[1:])
        change[first] = count[first] - initial
        last = np.empty_like(first)
        last[-1] = True
        last[:-1] = first[1:]
        self._counts[row_of[last], 0] = count[last]
        in_order = np.empty_like(change)
        in_order[order] = change
        taken = -in_order[departures]
        tokens[departures] = taken
        departed = int(taken.sum())
        self._departed += departed
        self._arrived += int(change.sum()) + departed
        return bool(change.any())

    def _apply_membership(self, batch: EventBatch, row: int, labels: np.ndarray,
                          tokens: np.ndarray, applied: np.ndarray,
                          attach: Dict[int, Tuple[int, ...]]) -> bool:
        """Apply the join or leave in ``row``; return whether it was accepted.

        Writes the row's logged label (a join's new label), tokens (a
        leave's handed-out weight), applied flag and attachment list.
        """
        if batch.kind[row] == _JOIN:
            attach_to = np.array(batch.attach[row], dtype=np.int64)
            targets = attach_to[self._find_rows(attach_to)[1]]
            if not targets.size:
                applied[row] = False
                return False
            label = self._next_label
            self._next_label += 1
            # One edge per distinct target.  The new label is the largest, so
            # edge (target, label) goes right after the edges starting at target.
            distinct = np.unique(targets)
            self._edges = np.insert(
                self._edges, np.searchsorted(self._edges[:, 0], distinct, side="right"),
                np.column_stack((distinct, np.full_like(distinct, label))), axis=0)
            joined = np.zeros((1, self._weights.size), dtype=np.int64)
            joined[0, 0] = tokens[row]
            self._set_rows(self._labels + (label,), np.append(self._speeds, 1.0),
                           np.vstack((self._counts, joined)))
            self._arrived += int(tokens[row])
            labels[row] = label
            attach[row] = tuple(targets.tolist())
            return True

        # LEAVE: reject anything that would disconnect the network or shrink
        # it below three nodes.  The tasks go round-robin to the d sorted
        # neighbours, class by class in ascending weight with the position
        # carried across classes: neighbour j gets ``count // d`` plus one if
        # its offset from the class's start is below ``count % d``.
        node = int(batch.label[row])
        (index,), (known,) = self._find_rows(batch.label[row:row + 1])
        incident = np.any(self._edges == node, axis=1)
        remaining = self._edges[~incident]
        network = None if not known or len(self._labels) <= 3 else self._ranked_network(
            np.delete(self._label_array, index), remaining, np.delete(self._speeds, index))
        if network is None or not network.is_connected():
            applied[row] = False
            return False
        self._left = (remaining, network)
        ends = self._edges[incident]
        neighbors = np.sort(ends[ends != node])
        self._edges = remaining
        orphans = self._counts[index]
        degree = neighbors.size
        starts = np.cumsum(orphans) - orphans
        offsets = (np.arange(degree) - starts[:, None]) % degree
        shares = orphans[:, None] // degree + (offsets < orphans[:, None] % degree)
        self._counts[self._find_rows(neighbors)[0]] += shares.T
        tokens[row] = int(orphans @ self._weights)
        self._set_rows(self._labels[:index] + self._labels[index + 1:],
                       np.delete(self._speeds, index), np.delete(self._counts, index, axis=0))
        return True

    # ------------------------------------------------------------------ #
    # the round loop
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """Apply this round's events (re-coupling if needed) and advance."""
        with kernel_phase("stream/generate"):
            batch = self._generator.events(self.view())
        with kernel_phase("stream/apply"):
            changed, topology_changed, applied_events = self._apply(batch)
        rejected_events = len(batch) - applied_events
        recouple_mode = None
        if changed:
            self._recouplings += 1
            if topology_changed:
                recouple_mode = "full"
                with kernel_phase("stream/recouple-full"):
                    self._couple()
            else:
                recouple_mode = "fast"
                with kernel_phase("stream/recouple-fast"):
                    self._recouple_loads()
        bus = self._bus
        if bus is not None and bus.active and recouple_mode is not None:
            bus.emit("recouple", "stream", round_index=self._round,
                     mode=recouple_mode, n=self._network.num_nodes,
                     total_load=self.total_real_load())
        self._balancer.advance()
        with kernel_phase("stream/sync"):
            self._sync_tokens_from_balancer()
        if bus is not None and bus.active:
            bus.emit("stream_round", "stream", round_index=self._round,
                     max_min=self.current_discrepancy(),
                     total_load=self.total_real_load(),
                     events_applied=applied_events,
                     events_rejected=rejected_events,
                     recoupled=recouple_mode,
                     recouplings=self._recouplings)
        self._round += 1
        self._rounds_since_boundary += 1

    def result(self,
               trace_max_min: Optional[List[float]] = None,
               trace_total_weight: Optional[List[float]] = None) -> RunResult:
        """Summarise the run so far as a :class:`RunResult`.

        :func:`~repro.simulation.engine.summarize_balancer` reads the current
        balancer; the failure-mode totals of earlier couplings are added here.
        """
        result = summarize_balancer(
            self._balancer, self._config["algorithm"], self._config["continuous_kind"],
            self._round, float(self.total_real_load()), trace_max_min=trace_max_min,
            trace_total_weight=trace_total_weight, event_timeline=self.timeline)
        result.dummy_tokens += self._dummy_tokens
        result.used_infinite_source |= self._used_infinite_source
        result.went_negative |= self._went_negative
        result.extra.update({
            "arrivals": float(self._arrived),
            "departures": float(self._departed),
            "recouplings": float(self._recouplings),
            "fast_recouplings": float(self._fast_recouplings),
            "rejected_events": float(self._rejected_events),
            "clamped_tokens": float(self._clamped_tokens),
            "backend": self.backend,
            "backend_reason": self._backend_reason,
        })
        if self._probe is not None:
            result.extra["kernel_seconds"] = self._probe.kernel_seconds
        return result


def run_stream(
    algorithm: str,
    network: Network,
    initial_load: Union[Sequence[float], TaskAssignment, WeightedLoads],
    generator: EventGenerator,
    rounds: int,
    continuous_kind: str = "fos",
    seed: Optional[int] = None,
    selection_policy: str = TaskSelectionPolicy.FIFO,
    backend: str = "auto",
    bus: Optional[MetricsBus] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path=None,
    checkpoint_meta: Optional[Dict[str, object]] = None,
) -> RunResult:
    """Run ``algorithm`` for ``rounds`` rounds under a stream of events.

    ``initial_load`` is an integer token vector, or — for weighted streams
    (``algorithm1`` only) — a :class:`TaskAssignment` or columnar
    :class:`~repro.tasks.weighted.WeightedLoads` with integer task weights.
    Returns a :class:`~repro.simulation.results.RunResult` whose
    ``trace_max_min`` / ``trace_total_weight`` traces (index 0 is the initial
    state) and ``event_timeline`` describe the whole dynamic run; the
    ``extra`` dictionary carries the arrival/departure/re-coupling counters
    and the resolved load-state backend.  Apply :mod:`repro.dynamic.metrics`
    to the result to obtain steady-state discrepancy, per-burst recovery
    times and drain rates.

    With ``checkpoint_every=N`` the engine state (plus the traces so far) is
    snapshotted to ``checkpoint_path`` every ``N`` rounds and after the final
    round, atomically; :func:`repro.checkpoint.resume_stream` continues an
    interrupted run from the latest snapshot **bit-identically** to the
    uninterrupted run.  ``checkpoint_meta`` is stored verbatim in each
    snapshot (:func:`~repro.simulation.scenario.run_scenario` puts the
    originating event :class:`~repro.simulation.scenario.Scenario` there so
    ``repro resume`` can rebuild the event generator without extra
    arguments).
    """
    if rounds < 0:
        raise ExperimentError("rounds must be non-negative")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ExperimentError("checkpoint_every must be at least 1")
    if checkpoint_every is not None and checkpoint_path is None:
        raise ExperimentError("checkpoint_every requires a checkpoint_path")
    engine = StreamingEngine(algorithm, network, initial_load, generator,
                             continuous_kind=continuous_kind, seed=seed,
                             selection_policy=selection_policy, backend=backend,
                             bus=bus)
    return _drive_stream(engine, rounds, [engine.current_discrepancy()],
                         [float(engine.total_real_load())],
                         checkpoint_every, checkpoint_path, checkpoint_meta)


def _drive_stream(engine: StreamingEngine, target: int, trace: List[float],
                  totals: List[float], checkpoint_every: Optional[int],
                  checkpoint_path, meta: Optional[Dict[str, object]]) -> RunResult:
    """Step ``engine`` to round ``target``, extending the traces in place.

    The round loop of :func:`run_stream` and
    :func:`repro.checkpoint.resume_stream`; with ``checkpoint_every=N`` it
    snapshots to ``checkpoint_path`` every ``N`` rounds and after ``target``.
    """
    while engine.round_index < target:
        engine.step()
        trace.append(engine.current_discrepancy())
        totals.append(float(engine.total_real_load()))
        if checkpoint_every is not None and (
                engine.round_index % checkpoint_every == 0
                or engine.round_index == target):
            from ..checkpoint import checkpoint_engine, write_checkpoint

            write_checkpoint(
                checkpoint_engine(engine, total_rounds=target, trace=trace,
                                  totals=totals, meta=meta),
                checkpoint_path)
    return engine.result(trace_max_min=trace, trace_total_weight=totals)
