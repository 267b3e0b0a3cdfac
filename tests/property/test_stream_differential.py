"""Differential tests for dynamic streams on generated event schedules.

**Object vs array backends.**
Hypothesis draws a small topology (a 5-cycle, where leaves soon disconnect
the path or shrink it below three nodes, or a 3x3 torus), a unit or weighted
(w <= 3) workload and a ``ScheduledEvents`` schedule of arrivals,
over-asking departures, joins and leaves.  Event labels range over the
initial labels, the labels joins will get, labels that have already left and
labels that never existed, so the schedules also hit the engine's rejection
paths.  Two engines, one per backend, run the schedule side by side; after
every step they must agree on the per-label state and the balancer loads,
and the total real load must equal ``initial + arrivals - departures``.  At
a drawn round the array engine is checkpointed through canonical JSON and
restored, and the restored engine must continue exactly as the
uninterrupted one.

**Batched vs sequential event application.**  The engine applies each
run of arrivals and departures in a batch at once.  A plain-Python reference
applies the same events one at a time with per-event semantics: an
arrival adds to a known label, a departure takes at most what its label
holds at that moment, a join attaches to the known labels among its targets,
a leave is refused if it would disconnect the network or leave fewer than
three nodes, and anything on an unknown label is rejected.  After every step
the engine's post-event state (its coupling boundary and its sorted edge
array), its counters and its timeline must match the reference's, whose
topology is a networkx graph.  The engine applies a run by one scatter when
nothing in it can clamp and by a reflection pass otherwise; the explicit
cases are checked to reach both.

**Fast vs full re-coupling.**  A load-only change (arrivals and departures)
re-couples in place: the balancer rewinds onto the new workload and keeps
its network, schedule and substrate data.  An engine whose every
re-coupling is the full rebuild instead must run exactly the same stream on
every substrate, for unit and weighted workloads and both algorithms: the
same traces, timeline, per-label state and snapshot, apart from the count
of fast re-couplings.

The example count comes from the active hypothesis profile (see
``tests/conftest.py``): bounded for the tier-1 run, larger under
``--hypothesis-profile=deep``.
"""

from __future__ import annotations

import json
from collections import Counter

import networkx as nx
import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.dynamic.events import (
    ARRIVAL,
    DEPARTURE,
    JOIN,
    LEAVE,
    DynamicEvent,
    ScheduledEvents,
)
from repro.dynamic.stream import StreamingEngine
from repro.network import topologies
from repro.store.runstore import canonical_json
from repro.tasks.generators import uniform_random_load
from repro.tasks.weighted import weighted_loads_from_task_counts

TOPOLOGIES = {
    "cycle": lambda: topologies.cycle(5),
    "torus": lambda: topologies.torus(3, dims=2),
}

labels = st.integers(0, 13)
events = st.one_of(
    st.builds(lambda node, tokens: DynamicEvent(ARRIVAL, node=node, tokens=tokens),
              labels, st.integers(0, 6)),
    st.builds(lambda node, tokens: DynamicEvent(DEPARTURE, node=node, tokens=tokens),
              labels, st.integers(0, 20)),
    st.builds(lambda attach, tokens: DynamicEvent(JOIN, attach_to=tuple(attach),
                                                  tokens=tokens),
              st.lists(labels, min_size=1, max_size=3, unique=True), st.integers(0, 5)),
    st.builds(lambda node: DynamicEvent(LEAVE, node=node), labels),
)
schedules = st.lists(st.lists(events, max_size=3), min_size=1, max_size=12)


def build_engine(backend, topology, weighted, tasks_per_node, schedule, seed,
                 algorithm=None, continuous_kind="fos", cls=StreamingEngine):
    network = TOPOLOGIES[topology]()
    counts = uniform_random_load(network, tasks_per_node * network.num_nodes, seed=seed)
    load = (weighted_loads_from_task_counts(counts, max_weight=3, seed=seed)
            if weighted else counts)
    generator = ScheduledEvents(dict(enumerate(schedule)))
    if algorithm is None:
        algorithm = "algorithm1" if weighted else "algorithm2"
    return cls(algorithm, network, load, generator, continuous_kind=continuous_kind,
               seed=seed, backend=backend, rng_mode="counter")


def assert_same_state(reference, candidate, label):
    assert candidate.tokens_by_label() == reference.tokens_by_label(), label
    assert candidate.buckets_by_label() == reference.buckets_by_label(), label
    assert np.array_equal(candidate.balancer.loads(), reference.balancer.loads()), label


def realised_net_arrivals(engine):
    applied = [entry for entry in engine.timeline if entry["applied"]]
    arrived = sum(entry["tokens"] for entry in applied if entry["kind"] in (ARRIVAL, JOIN))
    departed = sum(entry["tokens"] for entry in applied if entry["kind"] == DEPARTURE)
    return arrived - departed


def restored_copy(engine, schedule):
    state = json.loads(canonical_json(engine.state_dict()))
    config = json.loads(canonical_json(engine.config_dict()))
    return StreamingEngine.restore(config, state, ScheduledEvents(dict(enumerate(schedule))))


# A 5-cycle where node 1 leaves (a path remains), node 3 then cannot leave
# (it would cut the path), node 0 leaves, node 4 cannot (three nodes left),
# and the departed label 1 gets an arrival and an over-asking departure.
@example(topology="cycle", weighted=True, tasks_per_node=3,
         schedule=[[DynamicEvent(LEAVE, node=1)],
                   [DynamicEvent(LEAVE, node=3), DynamicEvent(DEPARTURE, node=2, tokens=50)],
                   [DynamicEvent(LEAVE, node=0), DynamicEvent(LEAVE, node=4)],
                   [DynamicEvent(ARRIVAL, node=1, tokens=4),
                    DynamicEvent(DEPARTURE, node=1, tokens=9)],
                   [DynamicEvent(JOIN, attach_to=(1, 2), tokens=2),
                    DynamicEvent(ARRIVAL, node=5, tokens=3)]],
         extra_rounds=2, checkpoint_round=3, seed=4)
@example(topology="torus", weighted=False, tasks_per_node=2,
         schedule=[[DynamicEvent(JOIN, attach_to=(0, 4), tokens=5)],
                   [DynamicEvent(LEAVE, node=9), DynamicEvent(DEPARTURE, node=9, tokens=3)],
                   [DynamicEvent(ARRIVAL, node=3, tokens=6)],
                   [DynamicEvent(DEPARTURE, node=3, tokens=40)]],
         extra_rounds=1, checkpoint_round=2, seed=7)
@given(topology=st.sampled_from(sorted(TOPOLOGIES)), weighted=st.booleans(),
       tasks_per_node=st.integers(0, 6), schedule=schedules,
       extra_rounds=st.integers(0, 4), checkpoint_round=st.integers(0, 16),
       seed=st.integers(0, 2**16))
@settings(deadline=None)
def test_object_and_array_streams_agree(topology, weighted, tasks_per_node, schedule,
                                        extra_rounds, checkpoint_round, seed):
    pair = [build_engine(backend, topology, weighted, tasks_per_node, schedule, seed)
            for backend in ("object", "array")]
    reference, candidate = pair
    assert_same_state(reference, candidate, "initial state")
    initial = candidate.total_real_load()
    rounds = len(schedule) + extra_rounds
    checkpoint_round = min(checkpoint_round, rounds - 1)
    engines = list(pair)
    for round_index in range(rounds):
        if round_index == checkpoint_round:
            engines.append(restored_copy(candidate, schedule))
        for engine in engines:
            engine.step()
        label = f"after round {round_index}"
        assert_same_state(reference, candidate, label)
        assert candidate.timeline == reference.timeline, label
        assert candidate.total_real_load() == initial + realised_net_arrivals(candidate), label
        if len(engines) == 3:
            assert_same_state(candidate, engines[2], f"restored, {label}")
            assert engines[2].timeline == candidate.timeline, label
    rejected = [entry for entry in candidate.timeline if not entry["applied"]]
    event("leave rejected" if any(entry["kind"] == LEAVE for entry in rejected)
          else "no leave rejected")


class SequentialReference:
    """The per-label state after one event at a time (per-event semantics)."""

    def __init__(self, engine):
        state = engine.state_dict()
        self.graph = nx.Graph()
        self.graph.add_nodes_from(state["nodes"])
        self.graph.add_edges_from(state["edges"])
        if state["buckets"] is None:
            self.buckets = {label: {1: tokens} for label, tokens in state["tokens"].items()}
        else:
            self.buckets = {label: dict(bucket) for label, bucket in state["buckets"].items()}
        self.next_label = state["next_label"]
        self.counters = {key: state[key] for key in ("arrived", "departed", "rejected_events")}
        self.changed = self.topology_changed = False

    def apply(self, event, round_index):
        record = {"kind": event.kind, "node": event.node, "tokens": event.tokens,
                  "attach_to": list(event.attach_to), "tag": event.tag,
                  "round": round_index, "applied": True}
        bucket = self.buckets.get(event.node)
        if event.kind == ARRIVAL:
            if bucket is None:
                record["applied"] = False
            else:
                bucket[1] = bucket.get(1, 0) + event.tokens
                self.counters["arrived"] += event.tokens
                self.changed |= event.tokens > 0
        elif event.kind == DEPARTURE:
            realised = 0 if bucket is None else min(event.tokens, bucket.get(1, 0))
            record["tokens"] = realised
            if bucket is None:
                record["applied"] = False
            else:
                bucket[1] = bucket.get(1, 0) - realised
                self.counters["departed"] += realised
                self.changed |= realised > 0
        elif event.kind == JOIN:
            attach = [label for label in event.attach_to if label in self.buckets]
            if not attach:
                record["applied"] = False
            else:
                label = self.next_label
                self.next_label += 1
                self.graph.add_edges_from((label, target) for target in attach)
                self.buckets[label] = {1: event.tokens}
                self.counters["arrived"] += event.tokens
                record["node"], record["attach_to"] = label, attach
                self.changed = self.topology_changed = True
        else:
            remaining = self.graph.copy()
            if bucket is not None:
                remaining.remove_node(event.node)
            if bucket is None or len(self.buckets) <= 3 or not nx.is_connected(remaining):
                record["applied"] = False
            else:
                # one task at a time, round-robin over the sorted neighbours,
                # class by class in ascending weight
                neighbors = sorted(self.graph.neighbors(event.node))
                position = 0
                for weight in sorted(bucket):
                    for _ in range(bucket[weight]):
                        target = self.buckets[neighbors[position % len(neighbors)]]
                        target[weight] = target.get(weight, 0) + 1
                        position += 1
                record["tokens"] = sum(weight * count for weight, count in bucket.items())
                self.graph = remaining
                del self.buckets[event.node]
                self.changed = self.topology_changed = True
        if not record["applied"]:
            self.counters["rejected_events"] += 1
        return record

    def tokens(self):
        return {label: sum(weight * count for weight, count in bucket.items())
                for label, bucket in sorted(self.buckets.items())}

    def nonzero_buckets(self):
        return {label: {weight: count for weight, count in sorted(bucket.items()) if count}
                for label, bucket in sorted(self.buckets.items())}


oracle_labels = st.integers(0, 12)
token_events = st.one_of(
    st.builds(lambda node, tokens: DynamicEvent(ARRIVAL, node=node, tokens=tokens),
              oracle_labels, st.integers(0, 8)),
    st.builds(lambda node, tokens: DynamicEvent(DEPARTURE, node=node, tokens=tokens),
              oracle_labels, st.integers(0, 25)),
)
oracle_batches = st.lists(st.one_of(token_events, token_events, token_events, events),
                          max_size=10)


def A(node, tokens):
    return DynamicEvent(ARRIVAL, node=node, tokens=tokens)


def D(node, tokens):
    return DynamicEvent(DEPARTURE, node=node, tokens=tokens)


class PathCountingEngine(StreamingEngine):
    """Counts which way the engine applied each run of arrivals and departures."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.paths = Counter()

    def _scatter_tokens(self, *args):
        self.paths["scatter"] += 1
        return super()._scatter_tokens(*args)

    def _reflect_tokens(self, *args):
        self.paths["reflect"] += 1
        return super()._reflect_tokens(*args)


# nothing can clamp: departures within each label's count, repeated labels,
# an arrival and an equal departure on one label (it still re-couples)
NO_CLAMP = dict(topology="torus", weighted=False, tasks_per_node=6, seed=7,
                schedule=[[A(0, 2), D(0, 2)], [D(1, 1), D(1, 1), A(2, 4), D(3, 0)], [A(4, 0)]])
# on empty nodes a departure before an arrival realises nothing, though the
# label ends with more than it had: only the running count tells
RUNNING_COUNT = dict(topology="cycle", weighted=False, tasks_per_node=0, seed=8,
                     schedule=[[D(0, 2), A(0, 5)], [A(1, 1), D(1, 3), A(1, 4)]])

ORACLE_EXAMPLES = [
    # arrivals and departures on one label, in either order
    dict(topology="torus", weighted=False, tasks_per_node=1, seed=1,
         schedule=[[D(0, 5), A(0, 3), D(0, 2), A(1, 4), D(1, 6), A(1, 1)],
                   [A(2, 2), D(2, 1), A(2, 2), D(0, 1)]]),
    # over-asking and zero-token departures, on several labels, and departures
    # asking for far more than int64 arithmetic over the batch could add up
    dict(topology="torus", weighted=False, tasks_per_node=3, seed=2,
         schedule=[[D(2, 40), D(3, 0), D(2, 0), A(4, 2), D(4, 30), D(5, 1), D(6, 2)],
                   [D(label, 2**62) for label in range(9)] + [A(0, 1), D(0, 2**62)]]),
    # unknown and departed labels
    dict(topology="cycle", weighted=True, tasks_per_node=2, seed=3,
         schedule=[[DynamicEvent(LEAVE, node=1), A(1, 3), D(1, 2), A(12, 5), D(11, 1),
                    D(0, 1)]]),
    # a join, then events on its new label in the same batch
    dict(topology="torus", weighted=False, tasks_per_node=2, seed=4,
         schedule=[[DynamicEvent(JOIN, attach_to=(0, 4), tokens=3), A(9, 2), D(9, 4),
                    D(9, 1), A(10, 1)]]),
    # a leave in mid-batch, then events on the label that left
    dict(topology="torus", weighted=True, tasks_per_node=3, seed=5,
         schedule=[[A(2, 3), D(5, 1), DynamicEvent(LEAVE, node=2), A(2, 1), D(3, 50),
                    DynamicEvent(LEAVE, node=3), D(4, 2)]]),
    # a join whose targets repeat a known label and name unknown ones gets one
    # edge per distinct known target; its log keeps the filtered list as given
    dict(topology="torus", weighted=False, tasks_per_node=2, seed=6,
         schedule=[[DynamicEvent(JOIN, attach_to=(4, 4, 99, 0), tokens=2), A(9, 1)],
                   [DynamicEvent(JOIN, attach_to=(9, 12, 9), tokens=0),
                    DynamicEvent(LEAVE, node=4)]]),
    NO_CLAMP,
    RUNNING_COUNT,
    # an arrival on a label that never existed, with nothing that could clamp
    dict(topology="torus", weighted=True, tasks_per_node=2, seed=9,
         schedule=[[A(12, 5), A(0, 1)], [A(11, 2)]]),
]


def with_examples(cases):
    """Apply one hypothesis ``@example`` per keyword dict in ``cases``."""
    def decorate(test):
        for case in reversed(cases):
            test = example(**case)(test)
        return test
    return decorate


def check_against_sequential(topology, weighted, tasks_per_node, schedule, seed):
    """Step the engine through ``schedule`` against :class:`SequentialReference`.

    Returns the engine, whose ``paths`` count the ways it applied the runs.
    """
    engine = build_engine("array", topology, weighted, tasks_per_node, schedule, seed,
                          cls=PathCountingEngine)
    timeline = []
    for round_index, batch in enumerate(schedule):
        reference = SequentialReference(engine)
        timeline.extend(reference.apply(event, round_index) for event in batch)
        before = engine.tokens_by_label()
        recouplings, fast = engine.recouplings, engine.fast_recouplings
        engine.step()
        label = f"round {round_index}"
        state = engine.state_dict()
        assert engine.recouplings - recouplings == int(reference.changed), label
        assert engine.fast_recouplings - fast == int(
            reference.changed and not reference.topology_changed), label
        assert engine.labels == tuple(sorted(reference.buckets)), label
        assert state["edges"] == sorted(sorted(edge) for edge in reference.graph.edges()), label
        # the coupling boundary is the state right after this round's events
        after = state["boundary"] if reference.changed else {"tokens": before}
        assert after["tokens"] == reference.tokens(), label
        if engine.weighted and reference.changed:
            assert after["buckets"] == reference.nonzero_buckets(), label
        assert {key: state[key] for key in reference.counters} == reference.counters, label
        assert engine.timeline == timeline, label
    return engine


@with_examples(ORACLE_EXAMPLES)
@given(topology=st.sampled_from(sorted(TOPOLOGIES)), weighted=st.booleans(),
       tasks_per_node=st.integers(0, 6),
       schedule=st.lists(oracle_batches, min_size=1, max_size=6),
       seed=st.integers(0, 2**16))
@settings(deadline=None)
def test_batched_application_matches_one_event_at_a_time(topology, weighted,
                                                         tasks_per_node, schedule, seed):
    engine = check_against_sequential(topology, weighted, tasks_per_node, schedule, seed)
    event("apply paths: " + ", ".join(sorted(engine.paths)))


def test_the_oracle_examples_reach_both_apply_paths():
    """The explicit oracle cases exercise the one-scatter and the reflection path."""
    paths = sum((check_against_sequential(**case).paths for case in ORACLE_EXAMPLES), Counter())
    assert set(paths) == {"scatter", "reflect"}
    assert set(check_against_sequential(**NO_CLAMP).paths) == {"scatter"}
    assert check_against_sequential(**RUNNING_COUNT).paths == Counter(reflect=2)


class FullRecoupleEngine(StreamingEngine):
    """Re-couples a load-only change by the full rebuild, not the in-place rewind."""

    def _recouple_loads(self):
        self._couple()


def without_fast_count(state):
    return {key: value for key, value in state.items() if key != "fast_recouplings"}


@given(topology=st.sampled_from(sorted(TOPOLOGIES)),
       continuous_kind=st.sampled_from(["fos", "sos", "periodic-matching", "random-matching"]),
       algorithm_and_weighted=st.sampled_from([("algorithm1", False), ("algorithm1", True),
                                               ("algorithm2", False)]),
       backend=st.sampled_from(["object", "array"]), tasks_per_node=st.integers(0, 6),
       schedule=st.lists(st.lists(token_events, max_size=4), min_size=1, max_size=8),
       extra_rounds=st.integers(0, 3), seed=st.integers(0, 2**16))
@settings(deadline=None)
def test_fast_recouple_matches_full_recouple(topology, continuous_kind,
                                             algorithm_and_weighted, backend,
                                             tasks_per_node, schedule, extra_rounds, seed):
    algorithm, weighted = algorithm_and_weighted
    fast, full = [build_engine(backend, topology, weighted, tasks_per_node, schedule, seed,
                               algorithm=algorithm, continuous_kind=continuous_kind, cls=cls)
                  for cls in (StreamingEngine, FullRecoupleEngine)]
    for round_index in range(len(schedule) + extra_rounds):
        fast.step()
        full.step()
        label = f"round {round_index}"
        assert full.current_discrepancy() == fast.current_discrepancy(), label
        assert full.total_real_load() == fast.total_real_load(), label
        assert full.timeline == fast.timeline, label
        assert full.tokens_by_label() == fast.tokens_by_label(), label
        assert without_fast_count(full.state_dict()) == without_fast_count(fast.state_dict()), \
            label
    assert full.fast_recouplings == 0
    assert fast.recouplings == full.recouplings
    event("fast re-coupled" if fast.fast_recouplings else "no re-coupling")
