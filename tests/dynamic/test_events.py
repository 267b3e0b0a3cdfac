"""Tests for the dynamic event model and generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamic.events import (
    ARRIVAL,
    DEPARTURE,
    EVENT_PROFILES,
    JOIN,
    LEAVE,
    AdversarialHotspot,
    BurstyArrivals,
    CompositeGenerator,
    DynamicEvent,
    EventBatch,
    NodeChurn,
    PoissonArrivals,
    PoissonDepartures,
    ScheduledEvents,
    StreamView,
    make_event_generator,
)
from repro.exceptions import ExperimentError
from repro.network import topologies


def make_view(round_index=0, loads=None, network=None):
    network = network or topologies.cycle(4)
    labels = np.arange(network.num_nodes, dtype=np.int64)
    if loads is None:
        loads = {label: 5 for label in labels.tolist()}
    return StreamView(round_index=round_index, labels=labels,
                      loads=np.array([loads[label] for label in labels.tolist()],
                                     dtype=np.int64),
                      network=network)


class TestDynamicEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ExperimentError):
            DynamicEvent("explode", node=0)

    def test_rejects_negative_tokens(self):
        with pytest.raises(ExperimentError):
            DynamicEvent(ARRIVAL, node=0, tokens=-1)

    def test_arrival_requires_node(self):
        with pytest.raises(ExperimentError):
            DynamicEvent(ARRIVAL, tokens=3)

    def test_join_requires_attachment(self):
        with pytest.raises(ExperimentError):
            DynamicEvent(JOIN)

    @pytest.mark.parametrize("tokens", [2.5, 3.0, "4", None])
    def test_rejects_non_integer_tokens(self, tokens):
        # a fractional amount used to be truncated by the int64 count matrix
        with pytest.raises(ExperimentError):
            DynamicEvent(ARRIVAL, node=0, tokens=tokens)

    def test_accepts_numpy_integer_tokens(self):
        event = DynamicEvent(DEPARTURE, node=0, tokens=np.int64(3))
        assert event.tokens == 3 and type(event.tokens) is int


class TestEventBatch:
    EVENTS = [
        DynamicEvent(ARRIVAL, node=2, tokens=5, tag="burst"),
        DynamicEvent(JOIN, attach_to=(1, 2), tokens=4, tag="churn"),
        DynamicEvent(DEPARTURE, node=0, tokens=0),
        DynamicEvent(LEAVE, node=3, tag="churn"),
    ]

    def test_rows_roundtrip_fields(self):
        batch = EventBatch.from_events(self.EVENTS)
        assert len(batch) == 4
        assert batch.kind.dtype == batch.label.dtype == batch.tokens.dtype == np.int64
        assert list(batch) == self.EVENTS

    def test_rejects_non_integer_tokens(self):
        with pytest.raises(ExperimentError):
            EventBatch.of(ARRIVAL, [0], np.array([2.5]))
        with pytest.raises(ExperimentError):
            EventBatch.of(DEPARTURE, [0, 1], [1, 1.5])

    def test_accepts_numpy_integer_columns(self):
        batch = EventBatch.of(ARRIVAL, np.array([1, 3], dtype=np.int32),
                              np.array([2, 7], dtype=np.uint8), tag="x")
        assert list(batch) == [DynamicEvent(ARRIVAL, node=1, tokens=2, tag="x"),
                               DynamicEvent(ARRIVAL, node=3, tokens=7, tag="x")]

    @pytest.mark.parametrize("columns", [
        dict(kind=[0], label=[0], tokens=[-1]),        # negative tokens
        dict(kind=[7], label=[0], tokens=[1]),         # unknown kind code
        dict(kind=[0, 0], label=[0], tokens=[1, 1]),   # ragged columns
        dict(kind=[2], label=[-1], tokens=[1]),        # join without attachment
        dict(kind=[0], label=[0], tokens=[1], tag=[1]),  # tag outside the table
    ])
    def test_rejects_malformed_columns(self, columns):
        with pytest.raises(ExperimentError):
            EventBatch(**columns)

    def test_concat_keeps_order_and_merges_tags(self):
        first = EventBatch.from_events(self.EVENTS[:2])
        second = EventBatch.from_events(self.EVENTS[2:])
        empty = EventBatch.from_events([])
        merged = EventBatch.concat([empty, first, empty, second])
        assert list(merged) == self.EVENTS
        assert merged.attach == {1: (1, 2)}
        assert list(EventBatch.concat([empty, first])) == self.EVENTS[:2]
        assert list(EventBatch.concat([])) == []


class TestStreamView:
    def test_total_load(self):
        view = make_view(loads={0: 1, 1: 2, 2: 3, 3: 4})
        assert view.total_load == 10

    def test_max_load_label_prefers_smallest_on_ties(self):
        view = make_view(loads={0: 3, 1: 7, 2: 7, 3: 0})
        assert view.max_load_label() == 1

    def test_max_load_label_reports_the_stable_label(self):
        view = StreamView(0, np.array([2, 5, 9]), np.array([1, 4, 4]), topologies.cycle(3))
        assert view.max_load_label() == 5


class TestScheduledEvents:
    def test_returns_events_only_at_their_round(self):
        burst = DynamicEvent(ARRIVAL, node=0, tokens=9)
        generator = ScheduledEvents({3: [burst]})
        assert list(generator.events(make_view(round_index=0))) == []
        assert list(generator.events(make_view(round_index=3))) == [burst]

    def test_rejects_negative_rounds(self):
        with pytest.raises(ExperimentError):
            ScheduledEvents({-1: []})


class TestDeterminism:
    """Generators with fixed seeds replay the exact same event stream."""

    @pytest.mark.parametrize("factory", [
        lambda: PoissonArrivals(3.0, seed=42),
        lambda: PoissonDepartures(3.0, seed=42),
        lambda: BurstyArrivals(20, period=5, seed=42),
        lambda: AdversarialHotspot(2, seed=42),
        lambda: NodeChurn(join_probability=0.5, leave_probability=0.5, seed=42),
    ])
    def test_same_seed_same_stream(self, factory):
        views = [make_view(round_index=t, loads={0: 5, 1: 3, 2: 8, 3: 1})
                 for t in range(20)]
        first = [list(factory().events(view)) for view in views]
        second = [list(factory().events(view)) for view in views]
        assert first == second
        assert any(events for events in first)  # the comparison is not vacuous

    def test_different_seeds_differ(self):
        views = [make_view(round_index=t) for t in range(30)]
        a = [list(PoissonArrivals(2.0, seed=1).events(view)) for view in views]
        b = [list(PoissonArrivals(2.0, seed=2).events(view)) for view in views]
        assert a != b


class TestPoissonGenerators:
    def test_arrivals_target_existing_labels(self):
        view = make_view()
        for event in PoissonArrivals(10.0, seed=0).events(view):
            assert event.kind == ARRIVAL
            assert event.node in view.labels
            assert event.tokens > 0

    def test_departures_never_exceed_available_load(self):
        view = make_view(loads={0: 1, 1: 0, 2: 2, 3: 0})
        for _ in range(50):
            for event in PoissonDepartures(5.0, seed=7).events(view):
                assert event.kind == DEPARTURE
                assert event.tokens <= view.loads[event.node]

    def test_departures_from_empty_system(self):
        view = make_view(loads={label: 0 for label in range(4)})
        assert list(PoissonDepartures(5.0, seed=0).events(view)) == []


class TestBurstyArrivals:
    def test_fires_on_schedule(self):
        generator = BurstyArrivals(12, period=10, first_round=5, seed=0)
        fired = [t for t in range(30) if generator.events(make_view(round_index=t))]
        assert fired == [5, 15, 25]

    def test_burst_is_tagged_and_sized(self):
        (event,) = BurstyArrivals(12, period=10, seed=0).events(make_view())
        assert event.tag == "burst"
        assert event.tokens == 12

    def test_fixed_target_node(self):
        generator = BurstyArrivals(12, period=1, node=2, seed=0)
        assert all(list(generator.events(make_view(round_index=t)))[0].node == 2
                   for t in range(5))


class TestAdversarialHotspot:
    def test_targets_most_loaded_node(self):
        view = make_view(loads={0: 1, 1: 9, 2: 4, 3: 0})
        (event,) = AdversarialHotspot(3, seed=0).events(view)
        assert event.node == 1
        assert event.tokens == 3
        assert event.tag == "hotspot"


class TestNodeChurn:
    def test_join_attaches_to_existing_labels(self):
        generator = NodeChurn(join_probability=1.0, leave_probability=0.0,
                              attach_degree=2, seed=3)
        view = make_view()
        (event,) = generator.events(view)
        assert event.kind == JOIN
        assert len(event.attach_to) == 2
        assert all(label in view.labels for label in event.attach_to)

    def test_leave_targets_existing_label(self):
        generator = NodeChurn(join_probability=0.0, leave_probability=1.0, seed=3)
        (event,) = generator.events(make_view())
        assert event.kind == LEAVE
        assert event.node in range(4)

    def test_rejects_bad_probability(self):
        with pytest.raises(ExperimentError):
            NodeChurn(join_probability=1.5)


class TestProfiles:
    def test_all_profiles_build(self):
        network = topologies.cycle(8)
        for profile in EVENT_PROFILES:
            generator = make_event_generator(profile, network, 8, seed=1)
            # polling must work and only yield well-formed events
            for t in range(40):
                view = make_view(round_index=t, network=network,
                                 loads={label: 8 for label in range(8)})
                for event in generator.events(view):
                    assert event.kind in ("arrival", "departure", "join", "leave")

    def test_unknown_profile_raises(self):
        with pytest.raises(ExperimentError):
            make_event_generator("tsunami", topologies.cycle(4), 8)

    def test_composite_merges_in_order(self):
        first = ScheduledEvents({0: [DynamicEvent(ARRIVAL, node=0, tokens=1)]})
        second = ScheduledEvents({0: [DynamicEvent(ARRIVAL, node=1, tokens=2)]})
        events = CompositeGenerator([first, second]).events(make_view())
        assert [event.node for event in events] == [0, 1]
