"""Differential test: object and array streams agree on generated event schedules.

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

The example count comes from the active hypothesis profile (see
``tests/conftest.py``): bounded for the tier-1 run, larger under
``--hypothesis-profile=deep``.
"""

from __future__ import annotations

import json

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


def build_engine(backend, topology, weighted, tasks_per_node, schedule, seed):
    network = TOPOLOGIES[topology]()
    counts = uniform_random_load(network, tasks_per_node * network.num_nodes, seed=seed)
    load = (weighted_loads_from_task_counts(counts, max_weight=3, seed=seed)
            if weighted else counts)
    generator = ScheduledEvents(dict(enumerate(schedule)))
    return StreamingEngine("algorithm1" if weighted else "algorithm2", network, load,
                           generator, seed=seed, backend=backend, rng_mode="counter")


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
