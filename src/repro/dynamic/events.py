"""Event model for dynamic (time-varying) workloads.

The static experiments of the paper fix a task multiset and a network and run
a balancer until the continuous substrate balances.  Real load balancers face
*streams*: tasks arrive and depart while balancing is underway, and nodes join
or leave the network.  This module provides the vocabulary for such runs:

* :class:`EventBatch` — one round's events as int64 columns (kind, label,
  tokens, tag code), in application order: task **arrivals**, task
  **departures**, node **joins** and node **leaves**;
* :class:`DynamicEvent` — one such event as a validated row: the input of
  :class:`ScheduledEvents` and what iterating a batch yields;
* :class:`EventGenerator` — a deterministic (seeded) source of events, polled
  once per round by the streaming engine with a read-only
  :class:`StreamView` of the current system state and returning one
  :class:`EventBatch`;
* concrete generators covering the classic dynamic regimes: Poisson streams,
  periodic bursts, an adversarial hotspot that always targets the most loaded
  node, and node churn;
* a registry of named **event profiles** (:data:`EVENT_PROFILES`) so the CLI,
  scenarios and benchmarks can request "burst" or "churn" by name.

Nodes are identified by *stable labels*: the label a node got when it entered
the system, which never changes even when other nodes leave.  The streaming
engine (:mod:`repro.dynamic.stream`) owns the mapping between stable labels
and the contiguous ``0..n-1`` indices of the currently coupled
:class:`~repro.network.graph.Network`.
"""

from __future__ import annotations

import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ExperimentError
from ..network.graph import Network

__all__ = [
    "ARRIVAL",
    "DEPARTURE",
    "JOIN",
    "LEAVE",
    "EVENT_KINDS",
    "KIND_CODES",
    "NO_LABEL",
    "NO_EVENTS",
    "DynamicEvent",
    "EventBatch",
    "StreamView",
    "EventGenerator",
    "ScheduledEvents",
    "PoissonArrivals",
    "PoissonDepartures",
    "BurstyArrivals",
    "AdversarialHotspot",
    "NodeChurn",
    "CompositeGenerator",
    "EVENT_PROFILES",
    "make_event_generator",
]

ARRIVAL = "arrival"
DEPARTURE = "departure"
JOIN = "join"
LEAVE = "leave"

EVENT_KINDS = (ARRIVAL, DEPARTURE, JOIN, LEAVE)

#: The ``kind`` column code of each event kind: its index in :data:`EVENT_KINDS`.
KIND_CODES: Dict[str, int] = {kind: code for code, kind in enumerate(EVENT_KINDS)}


@dataclass(frozen=True)
class DynamicEvent:
    """One atomic change to the system, applied at the start of a round.

    Attributes
    ----------
    kind:
        One of :data:`EVENT_KINDS`.
    node:
        The stable label of the affected node.  Required for arrivals,
        departures and leaves; ignored for joins (the engine assigns the
        label of the new node).
    tokens:
        Number of unit tokens added (arrival / join) or requested to be
        removed (departure), a non-negative integer.  Departures remove at
        most the tokens actually present; the engine records the realised
        amount in the timeline.
    attach_to:
        For joins: the stable labels of the existing nodes the new node
        connects to (at least one, so the network stays connected).
    tag:
        Free-form marker set by the generator ("burst", "hotspot", ...) so
        metrics can locate specific events in the timeline.
    """

    kind: str
    node: Optional[int] = None
    tokens: int = 0
    attach_to: Tuple[int, ...] = ()
    tag: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ExperimentError(
                f"unknown event kind {self.kind!r}; valid kinds: {EVENT_KINDS}")
        if not isinstance(self.tokens, numbers.Integral):
            raise ExperimentError(
                f"event token counts must be integers, got {self.tokens!r}")
        if self.tokens < 0:
            raise ExperimentError("event token counts must be non-negative")
        if self.kind in (ARRIVAL, DEPARTURE, LEAVE) and self.node is None:
            raise ExperimentError(f"{self.kind} events require a node label")
        if self.kind == JOIN and not self.attach_to:
            raise ExperimentError("join events require at least one attachment target")
        object.__setattr__(self, "tokens", int(self.tokens))


#: The ``label`` column value of a join whose :class:`DynamicEvent` has no node.
NO_LABEL = -1


def _integers(name: str, values) -> np.ndarray:
    """``values`` as a flat int64 column; any non-integer dtype is an error."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ExperimentError(
            f"event batch column {name!r} must hold integers, got {values.dtype}")
    return values.astype(np.int64, copy=False).reshape(-1)


def _check_tokens(tokens: np.ndarray) -> np.ndarray:
    if tokens.size and tokens.min() < 0:
        raise ExperimentError("event token counts must be non-negative")
    return tokens


class EventBatch:
    """One round's events as int64 columns, in application order.

    ``kind`` holds :data:`KIND_CODES`, ``label`` the stable label
    (:data:`NO_LABEL` for a join without one: the engine assigns it),
    ``tokens`` the unit tokens and ``tag`` an index into the ``tags`` table.
    The rare attachment lists of joins sit in the side table ``attach``
    (``{row: labels}``).  Iterating a batch yields its rows as
    :class:`DynamicEvent` values.
    """

    __slots__ = ("kind", "label", "tokens", "tag", "tags", "attach")

    def __init__(self, kind, label, tokens, tag=None, tags: Sequence[str] = ("",),
                 attach: Optional[Mapping[int, Sequence[int]]] = None) -> None:
        kind, label, tokens = (_integers(name, values) for name, values in
                               (("kind", kind), ("label", label), ("tokens", tokens)))
        tag = np.zeros(kind.size, dtype=np.int64) if tag is None else _integers("tag", tag)
        size = kind.size
        if not label.size == tokens.size == tag.size == size:
            raise ExperimentError("event batch columns must have equal lengths")
        if size and (kind.min() < 0 or kind.max() >= len(EVENT_KINDS)):
            raise ExperimentError(f"event batch kind codes must lie in 0..{len(EVENT_KINDS) - 1}")
        _check_tokens(tokens)
        if size and (tag.min() < 0 or tag.max() >= len(tags)):
            raise ExperimentError("event batch tag codes must index the tag table")
        rows = {int(row): tuple(int(target) for target in targets)
                for row, targets in (attach or {}).items() if len(targets)}
        if any(not 0 <= row < size for row in rows):
            raise ExperimentError("event batch attachments must name rows of the batch")
        if any(row not in rows for row in np.flatnonzero(kind == KIND_CODES[JOIN]).tolist()):
            raise ExperimentError("join events require at least one attachment target")
        self._assign(kind, label, tokens, tag, tuple(tags), rows)

    def _assign(self, kind: np.ndarray, label: np.ndarray, tokens: np.ndarray,
                tag: np.ndarray, tags: Tuple[str, ...],
                attach: Dict[int, Tuple[int, ...]]) -> "EventBatch":
        self.kind, self.label, self.tokens, self.tag = kind, label, tokens, tag
        self.tags, self.attach = tags, attach
        return self

    @classmethod
    def of(cls, kind: str, labels, tokens, tag: str = "") -> "EventBatch":
        """A batch of ``kind`` events (not joins), one per label, sharing one tag."""
        if kind not in (ARRIVAL, DEPARTURE, LEAVE):
            raise ExperimentError(
                f"EventBatch.of builds arrival, departure or leave rows, not {kind!r}")
        labels, tokens = _integers("label", labels), _check_tokens(_integers("tokens", tokens))
        if labels.size != tokens.size:
            raise ExperimentError("event batch columns must have equal lengths")
        return cls.__new__(cls)._assign(
            np.full(labels.size, KIND_CODES[kind], dtype=np.int64), labels, tokens,
            np.zeros(labels.size, dtype=np.int64), (tag,), {})

    @classmethod
    def from_events(cls, events: Iterable[DynamicEvent]) -> "EventBatch":
        """The batch of a sequence of :class:`DynamicEvent` rows (same order)."""
        events = list(events)
        tags = list(dict.fromkeys(event.tag for event in events)) or [""]
        code = {tag: index for index, tag in enumerate(tags)}
        return cls([KIND_CODES[event.kind] for event in events],
                   [NO_LABEL if event.node is None else event.node for event in events],
                   np.array([event.tokens for event in events], dtype=np.int64),
                   [code[event.tag] for event in events], tags,
                   {row: event.attach_to for row, event in enumerate(events)})

    @classmethod
    def concat(cls, batches: Sequence["EventBatch"]) -> "EventBatch":
        """The rows of ``batches`` one after another, tag tables merged.

        The merged table lists every tag in order of first appearance, so a
        batch whose table is a prefix of it keeps its tag codes.
        """
        batches = [batch for batch in batches if batch.kind.size]
        if len(batches) <= 1:
            return batches[0] if batches else NO_EVENTS
        tags = tuple(dict.fromkeys(tag for batch in batches for tag in batch.tags))
        attach: Dict[int, Tuple[int, ...]] = {}
        tag_columns = []
        offset = 0
        for batch in batches:
            if batch.attach:
                attach.update((offset + row, labels) for row, labels in batch.attach.items())
            offset += batch.kind.size
            if batch.tags == tags[:len(batch.tags)]:
                tag_columns.append(batch.tag)
            else:
                tag_columns.append(np.array([tags.index(tag) for tag in batch.tags],
                                            dtype=np.int64)[batch.tag])
        return cls.__new__(cls)._assign(
            np.concatenate([batch.kind for batch in batches]),
            np.concatenate([batch.label for batch in batches]),
            np.concatenate([batch.tokens for batch in batches]),
            np.concatenate(tag_columns), tags, attach)

    def __len__(self) -> int:
        return int(self.kind.size)

    def __iter__(self) -> Iterator[DynamicEvent]:
        columns = zip(self.kind.tolist(), self.label.tolist(),
                      self.tokens.tolist(), self.tag.tolist())
        for row, (kind, label, tokens, tag) in enumerate(columns):
            yield DynamicEvent(
                EVENT_KINDS[kind],
                node=None if kind == KIND_CODES[JOIN] and label == NO_LABEL else label,
                tokens=tokens, attach_to=self.attach.get(row, ()), tag=self.tags[tag])

    def __repr__(self) -> str:
        return f"EventBatch({list(self)!r})"


#: The batch of a round without events.
NO_EVENTS = EventBatch.of(ARRIVAL, [], [])


@dataclass(frozen=True, eq=False)
class StreamView:
    """Read-only snapshot of the streaming system handed to generators.

    Attributes
    ----------
    round_index:
        The round about to be executed.
    labels:
        Sorted stable labels of the nodes currently in the system (int64).
    loads:
        Current integer load per label, aligned with ``labels`` (int64; real
        tasks, excluding any dummy tokens of the flow-imitation algorithms).
    network:
        The currently coupled network (contiguous ``0..n-1`` indices;
        ``network.node_labels`` maps an index back to its stable label).
    """

    round_index: int
    labels: np.ndarray
    loads: np.ndarray
    network: Network

    @property
    def total_load(self) -> int:
        """Total number of real tokens currently in the system."""
        return int(self.loads.sum())

    def max_load_label(self) -> int:
        """Stable label of the most loaded node (smallest label on ties)."""
        # labels are sorted and argmax returns the first maximum
        return int(self.labels[int(np.argmax(self.loads))])


class EventGenerator(ABC):
    """Deterministic source of events, polled once per round.

    Generators own their randomness: a generator constructed with the same
    seed yields the same event sequence when shown the same sequence of
    views, which is what makes dynamic runs reproducible end-to-end.

    Generators are also **checkpointable**: :meth:`state_dict` captures the
    internal randomness position (the numpy bit-generator state) as a
    JSON-friendly dictionary, and :meth:`load_state_dict` restores it onto a
    freshly constructed generator of the same shape, after which the two
    yield identical event streams.  The default implementation handles the
    single-``_rng`` generators above; containers override both methods.
    """

    @abstractmethod
    def events(self, view: StreamView) -> EventBatch:
        """Return the events to apply at the start of round ``view.round_index``."""

    def state_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot of this generator's mutable state."""
        state: Dict[str, object] = {"type": type(self).__name__}
        rng = getattr(self, "_rng", None)
        if isinstance(rng, np.random.Generator):
            state["rng"] = rng.bit_generator.state
        return state

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot onto this generator."""
        expected = type(self).__name__
        found = state.get("type", expected)
        if found != expected:
            raise ExperimentError(
                f"checkpointed generator state is for {found!r}, "
                f"cannot restore onto {expected!r}")
        rng_state = state.get("rng")
        if rng_state is not None:
            rng = getattr(self, "_rng", None)
            if not isinstance(rng, np.random.Generator):
                raise ExperimentError(
                    f"checkpointed state carries rng state but {expected!r} "
                    f"has no generator to restore it onto")
            rng.bit_generator.state = rng_state


class ScheduledEvents(EventGenerator):
    """A fixed, explicit schedule: ``{round_index: [events, ...]}``.

    Each round's events become one :class:`EventBatch` at construction.
    """

    def __init__(self, schedule: Mapping[int, Sequence[DynamicEvent]]) -> None:
        for round_index in schedule:
            if round_index < 0:
                raise ExperimentError("event rounds must be non-negative")
        self._schedule = {int(r): EventBatch.from_events(evs) for r, evs in schedule.items()}

    def events(self, view: StreamView) -> EventBatch:
        return self._schedule.get(view.round_index, NO_EVENTS)


class PoissonArrivals(EventGenerator):
    """Each round, ``Poisson(rate)`` unit tokens arrive on uniform random nodes."""

    def __init__(self, rate: float, seed: Optional[int] = None, tag: str = "") -> None:
        if rate < 0:
            raise ExperimentError("arrival rate must be non-negative")
        self._rate = float(rate)
        self._rng = np.random.default_rng(seed)
        self._tag = tag

    def events(self, view: StreamView) -> EventBatch:
        count = int(self._rng.poisson(self._rate))
        if count == 0:
            return NO_EVENTS
        picks = self._rng.choice(len(view.labels), size=count)
        per_label = np.bincount(picks, minlength=len(view.labels))
        hit = per_label.nonzero()[0]
        return EventBatch.of(ARRIVAL, view.labels[hit], per_label[hit], tag=self._tag)


class PoissonDepartures(EventGenerator):
    """Each round, ``Poisson(rate)`` tokens finish and leave the system.

    Departing tokens are sampled proportionally to the current loads (each
    in-system token is equally likely to finish), which keeps the stream
    load-neutral when paired with :class:`PoissonArrivals` of the same rate.
    """

    def __init__(self, rate: float, seed: Optional[int] = None, tag: str = "") -> None:
        if rate < 0:
            raise ExperimentError("departure rate must be non-negative")
        self._rate = float(rate)
        self._rng = np.random.default_rng(seed)
        self._tag = tag

    def events(self, view: StreamView) -> EventBatch:
        total = view.total_load
        count = min(int(self._rng.poisson(self._rate)), total)
        if count <= 0:
            return NO_EVENTS
        loads = view.loads.astype(float)
        picks = self._rng.choice(len(view.labels), size=count, p=loads / loads.sum())
        # Never request more tokens than the node actually holds.
        per_label = np.minimum(np.bincount(picks, minlength=len(view.labels)), view.loads)
        hit = per_label.nonzero()[0]
        return EventBatch.of(DEPARTURE, view.labels[hit], per_label[hit], tag=self._tag)


class BurstyArrivals(EventGenerator):
    """Periodic bursts: every ``period`` rounds, dump ``burst_size`` tokens on one node.

    The target node is fixed (``node``) or drawn uniformly per burst.  Bursts
    are tagged ``"burst"`` so :func:`repro.dynamic.metrics.burst_rounds` can
    locate them in the timeline.
    """

    def __init__(self, burst_size: int, period: int, first_round: int = 0,
                 node: Optional[int] = None, seed: Optional[int] = None) -> None:
        if burst_size < 0:
            raise ExperimentError("burst_size must be non-negative")
        if period < 1:
            raise ExperimentError("burst period must be at least 1")
        if first_round < 0:
            raise ExperimentError("first_round must be non-negative")
        self._burst_size = int(burst_size)
        self._period = int(period)
        self._first = int(first_round)
        self._node = node
        self._rng = np.random.default_rng(seed)

    def events(self, view: StreamView) -> EventBatch:
        t = view.round_index
        if t < self._first or (t - self._first) % self._period or not self._burst_size:
            return NO_EVENTS
        if self._node is not None and self._node in view.labels:
            target = self._node
        else:
            target = view.labels[int(self._rng.integers(len(view.labels)))]
        return EventBatch.of(ARRIVAL, [target], [self._burst_size], tag="burst")


class AdversarialHotspot(EventGenerator):
    """Arrivals that always target the currently most loaded node.

    This is the adversary that keeps the discrepancy as high as the stream
    rate allows: new work lands exactly where balancing has not caught up yet.
    """

    def __init__(self, tokens_per_round: int, seed: Optional[int] = None) -> None:
        if tokens_per_round < 0:
            raise ExperimentError("tokens_per_round must be non-negative")
        self._tokens = int(tokens_per_round)
        self._rng = np.random.default_rng(seed)

    def events(self, view: StreamView) -> EventBatch:
        if not self._tokens:
            return NO_EVENTS
        return EventBatch.of(ARRIVAL, [view.max_load_label()], [self._tokens], tag="hotspot")


class NodeChurn(EventGenerator):
    """Bernoulli node churn: joins and leaves with per-round probabilities.

    A joining node attaches to ``attach_degree`` uniformly chosen existing
    nodes (so it is immediately connected).  A leave targets a uniformly
    chosen node; the streaming engine *rejects* the leave when removing the
    node would disconnect the network or shrink it below three nodes, which
    is how connectivity is preserved unconditionally.
    """

    def __init__(self, join_probability: float = 0.05, leave_probability: float = 0.05,
                 attach_degree: int = 2, seed: Optional[int] = None) -> None:
        for name, p in (("join_probability", join_probability),
                        ("leave_probability", leave_probability)):
            if not 0.0 <= p <= 1.0:
                raise ExperimentError(f"{name} must be a probability, got {p}")
        if attach_degree < 1:
            raise ExperimentError("attach_degree must be at least 1")
        self._join_p = float(join_probability)
        self._leave_p = float(leave_probability)
        self._attach = int(attach_degree)
        self._rng = np.random.default_rng(seed)

    def events(self, view: StreamView) -> EventBatch:
        events: List[DynamicEvent] = []
        if self._rng.random() < self._join_p:
            k = min(self._attach, len(view.labels))
            picks = self._rng.choice(len(view.labels), size=k, replace=False)
            attach = tuple(view.labels[np.sort(picks)].tolist())
            events.append(DynamicEvent(JOIN, attach_to=attach, tag="churn"))
        if self._rng.random() < self._leave_p:
            victim = int(view.labels[int(self._rng.integers(len(view.labels)))])
            events.append(DynamicEvent(LEAVE, node=victim, tag="churn"))
        return EventBatch.from_events(events) if events else NO_EVENTS


class CompositeGenerator(EventGenerator):
    """Merge the event streams of several generators (polled in order).

    Nested composites are flattened: their children's batches join this
    one's list, so one :meth:`EventBatch.concat` merges a round's events
    however deeply the generators nest.
    """

    def __init__(self, generators: Sequence[EventGenerator]) -> None:
        self._generators = list(generators)

    def events(self, view: StreamView) -> EventBatch:
        return EventBatch.concat(self._batches(view))

    def _batches(self, view: StreamView) -> List[EventBatch]:
        """Every leaf generator's batch for ``view``, in polling order."""
        batches: List[EventBatch] = []
        for generator in self._generators:
            if isinstance(generator, CompositeGenerator):
                batches.extend(generator._batches(view))
            else:
                batches.append(generator.events(view))
        return batches

    def state_dict(self) -> Dict[str, object]:
        return {"type": type(self).__name__,
                "children": [child.state_dict() for child in self._generators]}

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        children = state.get("children")
        if not isinstance(children, list) or len(children) != len(self._generators):
            raise ExperimentError(
                f"checkpointed composite state has "
                f"{len(children) if isinstance(children, list) else 'no'} "
                f"children, this generator has {len(self._generators)}")
        for child, child_state in zip(self._generators, children):
            child.load_state_dict(child_state)


# ---------------------------------------------------------------------- #
# named profiles
# ---------------------------------------------------------------------- #


def _poisson_profile(network: Network, tokens_per_node: int,
                     seed: Optional[int]) -> EventGenerator:
    rate = max(1.0, network.num_nodes / 4)
    return CompositeGenerator([
        PoissonArrivals(rate, seed=_derive(seed, 1)),
        PoissonDepartures(rate, seed=_derive(seed, 2)),
    ])


def _burst_profile(network: Network, tokens_per_node: int,
                   seed: Optional[int]) -> EventGenerator:
    burst = max(network.num_nodes, tokens_per_node * network.num_nodes // 2)
    return BurstyArrivals(burst, period=120, first_round=30, seed=_derive(seed, 1))


def _hotspot_profile(network: Network, tokens_per_node: int,
                     seed: Optional[int]) -> EventGenerator:
    rate = max(1, network.num_nodes // 8)
    return CompositeGenerator([
        AdversarialHotspot(rate, seed=_derive(seed, 1)),
        PoissonDepartures(float(rate), seed=_derive(seed, 2)),
    ])


def _churn_profile(network: Network, tokens_per_node: int,
                   seed: Optional[int]) -> EventGenerator:
    rate = max(1.0, network.num_nodes / 8)
    return CompositeGenerator([
        PoissonArrivals(rate, seed=_derive(seed, 1)),
        PoissonDepartures(rate, seed=_derive(seed, 2)),
        NodeChurn(join_probability=0.05, leave_probability=0.05,
                  attach_degree=min(2, network.num_nodes - 1), seed=_derive(seed, 3)),
    ])


def _mixed_profile(network: Network, tokens_per_node: int,
                   seed: Optional[int]) -> EventGenerator:
    return CompositeGenerator([
        _poisson_profile(network, tokens_per_node, _derive(seed, 10)),
        _burst_profile(network, tokens_per_node, _derive(seed, 11)),
        NodeChurn(join_probability=0.02, leave_probability=0.02,
                  attach_degree=min(2, network.num_nodes - 1), seed=_derive(seed, 12)),
    ])


#: Named event profiles usable from the CLI, scenarios and benchmarks.  Each
#: entry maps a name to ``factory(network, tokens_per_node, seed)``.
EVENT_PROFILES: Dict[str, Callable[[Network, int, Optional[int]], EventGenerator]] = {
    "poisson": _poisson_profile,
    "burst": _burst_profile,
    "hotspot": _hotspot_profile,
    "churn": _churn_profile,
    "mixed": _mixed_profile,
}


def make_event_generator(profile: str, network: Network, tokens_per_node: int,
                         seed: Optional[int] = None) -> EventGenerator:
    """Build the named event profile scaled to ``network``."""
    if profile not in EVENT_PROFILES:
        raise ExperimentError(
            f"unknown event profile {profile!r}; valid profiles: {sorted(EVENT_PROFILES)}")
    return EVENT_PROFILES[profile](network, tokens_per_node, seed)


def _derive(seed: Optional[int], salt: int) -> Optional[int]:
    """Derive a deterministic child seed (``None`` stays ``None``)."""
    return None if seed is None else seed * 1_000_003 + salt
