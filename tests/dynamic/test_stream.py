"""Tests for the streaming engine: invariants, churn safety, determinism."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.dynamic.events import (
    ARRIVAL,
    DEPARTURE,
    JOIN,
    LEAVE,
    DynamicEvent,
    EventBatch,
    EventGenerator,
    NodeChurn,
    PoissonArrivals,
    PoissonDepartures,
    CompositeGenerator,
    ScheduledEvents,
    make_event_generator,
)
from repro.dynamic.stream import EventTimeline, StreamingEngine, _EventLog, run_stream
from repro.exceptions import ExperimentError
from repro.network import topologies
from repro.obs.kernels import activate_kernel_clock, deactivate_kernel_clock
from repro.tasks.generators import uniform_random_load
from repro.tasks.weighted import WeightedLoads


def torus_instance(seed=3, tokens_per_node=6):
    network = topologies.torus(4, dims=2)
    load = uniform_random_load(network, tokens_per_node * network.num_nodes, seed=seed)
    return network, load


class TestValidation:
    def test_unknown_algorithm(self):
        network, load = torus_instance()
        with pytest.raises(ExperimentError):
            StreamingEngine("frobnicate", network, load, ScheduledEvents({}))

    def test_unknown_continuous_kind(self):
        network, load = torus_instance()
        with pytest.raises(ExperimentError):
            StreamingEngine("algorithm1", network, load, ScheduledEvents({}),
                            continuous_kind="teleportation")

    def test_wrong_load_length(self):
        network, _ = torus_instance()
        with pytest.raises(ExperimentError):
            StreamingEngine("algorithm1", network, [1, 2, 3], ScheduledEvents({}))

    def test_negative_rounds(self):
        network, load = torus_instance()
        with pytest.raises(ExperimentError):
            run_stream("algorithm1", network, load, ScheduledEvents({}), rounds=-1)


class TestLoadConservation:
    """Total real load always equals initial + arrivals - departures."""

    @pytest.mark.parametrize("algorithm,continuous_kind", [
        ("algorithm1", "fos"),
        ("algorithm2", "fos"),
        ("algorithm2", "random-matching"),
        ("excess-tokens", "fos"),
    ])
    def test_total_load_tracks_arrivals_minus_departures(self, algorithm, continuous_kind):
        network, load = torus_instance()
        generator = CompositeGenerator([
            PoissonArrivals(4.0, seed=1),
            PoissonDepartures(4.0, seed=2),
        ])
        engine = StreamingEngine(algorithm, network, load, generator,
                                 continuous_kind=continuous_kind, seed=5)
        initial = engine.total_real_load()
        for _ in range(60):
            engine.step()
            timeline = engine.timeline
            arrived = sum(entry["tokens"] for entry in timeline
                          if entry["kind"] in (ARRIVAL, JOIN) and entry["applied"])
            departed = sum(entry["tokens"] for entry in timeline
                           if entry["kind"] == DEPARTURE and entry["applied"])
            assert engine.total_real_load() == initial + arrived - departed

    def test_departure_capped_at_available_tokens(self):
        network = topologies.cycle(4)
        load = np.array([3, 0, 0, 0])
        generator = ScheduledEvents({0: [DynamicEvent(DEPARTURE, node=0, tokens=100)]})
        result = run_stream("algorithm1", network, load, generator, rounds=2, seed=0)
        (entry,) = result.event_timeline
        assert entry["applied"]
        assert entry["tokens"] == 3  # the realised amount, not the requested 100
        assert result.trace_total_weight[-1] == 0.0


    def test_fractional_tokens_are_rejected_not_truncated(self):
        """2.5 tokens in and 1.5 out used to leave 36 tokens where 37 were reported."""
        with pytest.raises(ExperimentError):
            ScheduledEvents({0: [DynamicEvent(ARRIVAL, node=0, tokens=2.5)],
                             1: [DynamicEvent(DEPARTURE, node=0, tokens=1.5)]})

        class FractionalArrivals(EventGenerator):
            def events(self, view):
                return EventBatch.of(ARRIVAL, view.labels[:1], np.array([2.5]))

        network = topologies.torus(3, dims=2)
        engine = StreamingEngine("algorithm2", network, np.full(network.num_nodes, 4),
                                 FractionalArrivals(), seed=0, backend="array")
        with pytest.raises(ExperimentError):
            engine.step()
        assert engine.total_real_load() == 36

    def test_clamped_tokens_count_the_negative_loads_zeroed_each_round(self):
        """A baseline that drives nodes negative: each sync zeroes them and counts it."""
        network = topologies.torus(4, dims=2)
        load = uniform_random_load(network, 2 * network.num_nodes, seed=0)
        engine = StreamingEngine("quasirandom", network, load, ScheduledEvents({}), seed=0)
        clamped = 0
        for _ in range(20):
            engine.step()
            now = int(engine.result().extra["clamped_tokens"])
            physical = int(round(float(np.sum(engine.balancer.loads()))))
            assert engine.total_real_load() - physical == now - clamped
            clamped = now
        assert clamped > 0


class TestChurn:
    def test_connectivity_preserved_under_heavy_churn(self):
        network, load = torus_instance()
        generator = NodeChurn(join_probability=0.4, leave_probability=0.6,
                              attach_degree=2, seed=9)
        engine = StreamingEngine("algorithm2", network, load, generator, seed=9)
        for _ in range(80):
            engine.step()
            assert engine.network.is_connected()
            assert engine.network.num_nodes >= 3

    def test_leave_that_would_disconnect_is_rejected(self):
        network = topologies.star(5)  # node 0 is the hub
        load = np.array([10, 0, 0, 0, 0])
        generator = ScheduledEvents({0: [DynamicEvent(LEAVE, node=0)]})
        engine = StreamingEngine("algorithm1", network, load, generator, seed=0)
        engine.step()
        (entry,) = engine.timeline
        assert not entry["applied"]
        assert engine.network.num_nodes == 5
        assert engine.network.is_connected()

    def test_join_adds_connected_node_with_fresh_label(self):
        network = topologies.cycle(4)
        load = np.array([4, 4, 4, 4])
        generator = ScheduledEvents({
            1: [DynamicEvent(JOIN, attach_to=(0, 2), tokens=6)],
        })
        engine = StreamingEngine("algorithm1", network, load, generator, seed=0)
        engine.step()
        assert engine.network.num_nodes == 4
        engine.step()
        assert engine.network.num_nodes == 5
        assert engine.network.is_connected()
        assert engine.labels == (0, 1, 2, 3, 4)  # fresh stable label 4
        assert engine.total_real_load() == 22

    def test_leave_redistributes_tokens_to_neighbors(self):
        network = topologies.cycle(4)
        load = np.array([0, 9, 0, 0])
        generator = ScheduledEvents({0: [DynamicEvent(LEAVE, node=1)]})
        engine = StreamingEngine("algorithm1", network, load, generator, seed=0)
        engine.step()
        assert engine.labels == (0, 2, 3)
        assert engine.total_real_load() == 9  # orphaned tokens survive

    def test_weighted_leave_hands_out_classes_round_robin(self):
        """Ascending weight, sorted neighbours, position carried across classes.

        Node 0 leaves K5 with 3 x w1, 2 x w2 and 5 x w3 over neighbours
        1..4: w1 takes positions 0-2 (nodes 1, 2, 3), w2 positions 3-4
        (nodes 4, 1) and w3 positions 5-9 (nodes 2, 3, 4, 1, 2).  Node 5
        then joins attached to 4, 2, 3 (in that order) with 5 tokens and
        leaves at once: sorted, its neighbours 2, 3, 4 get 2, 2 and 1.
        """
        network = topologies.complete(5)
        load = WeightedLoads.from_buckets(
            [{1: 3, 2: 2, 3: 5}, {2: 1}, {}, {1: 1}, {3: 1}])
        generator = ScheduledEvents({0: [
            DynamicEvent(LEAVE, node=0),
            DynamicEvent(JOIN, attach_to=(4, 2, 3), tokens=5),
            DynamicEvent(LEAVE, node=5),
        ]})
        engine = StreamingEngine("algorithm1", network, load, generator, seed=0)
        engine.step()
        assert [(entry["kind"], entry["node"], entry["applied"], entry["tokens"])
                for entry in engine.timeline] == [
            (LEAVE, 0, True, 3 + 4 + 15), (JOIN, 5, True, 5), (LEAVE, 5, True, 5)]
        # the boundary is the state the balancer was re-coupled on, right
        # after the events and before the round moved any task
        boundary = engine.state_dict()["boundary"]
        assert boundary["buckets"] == {
            1: {1: 1, 2: 2, 3: 1},
            2: {1: 3, 3: 2},
            3: {1: 4, 3: 1},
            4: {1: 1, 2: 1, 3: 2},
        }
        assert boundary["tokens"] == {1: 8, 2: 9, 3: 7, 4: 9}

    def test_events_for_departed_labels_are_rejected(self):
        network = topologies.cycle(4)
        load = np.array([2, 2, 2, 2])
        generator = ScheduledEvents({
            0: [DynamicEvent(LEAVE, node=1)],
            1: [DynamicEvent(ARRIVAL, node=1, tokens=5)],  # label 1 is gone
        })
        engine = StreamingEngine("algorithm1", network, load, generator, seed=0)
        engine.step()
        engine.step()
        arrival = engine.timeline[-1]
        assert arrival["kind"] == ARRIVAL and not arrival["applied"]
        assert engine.total_real_load() == 8


class TestTimeline:
    def test_timeline_copies_share_nothing_with_the_engine(self):
        network = topologies.cycle(4)
        generator = ScheduledEvents({0: [DynamicEvent(JOIN, attach_to=(0, 2), tokens=1)]})
        engine = StreamingEngine("algorithm1", network, np.array([2, 2, 2, 2]), generator,
                                 seed=0)
        engine.step()
        engine.timeline[0]["attach_to"].append(99)
        engine.timeline[0]["tokens"] = 1000
        assert engine.timeline[0]["attach_to"] == [0, 2]
        assert engine.timeline[0]["tokens"] == 1
        assert engine.state_dict()["timeline"][0]["attach_to"] == [0, 2]
        assert engine.result().event_timeline[0]["attach_to"] == [0, 2]

    @staticmethod
    def _churned_engine(rounds=30):
        network, load = torus_instance()
        generator = CompositeGenerator([
            PoissonArrivals(3.0, seed=1), PoissonDepartures(2.0, seed=2),
            NodeChurn(join_probability=0.5, leave_probability=0.3, attach_degree=2, seed=9)])
        engine = StreamingEngine("algorithm2", network, load, generator, seed=1)
        for _ in range(rounds):
            engine.step()
        return engine

    def test_view_reads_like_its_list_of_dicts(self):
        engine = self._churned_engine()
        view = engine.timeline
        records = list(view)
        assert isinstance(view, EventTimeline)
        assert len(view) == len(records) > 10
        assert any(record["attach_to"] for record in records), "no join in the stream"
        assert view == records and records == view and not view != records
        assert view == engine.timeline
        assert repr(view) == repr(records)
        for index in (0, 3, -1, -len(records)):
            assert view[index] == records[index]
        for window in (slice(2, 9), slice(-5, None), slice(None, None, 3),
                       slice(9, 2, -2), slice(5, 5)):
            assert view[window] == records[window]
        with pytest.raises(IndexError):
            view[len(records)]
        assert view != records[:-1] and view != records[1:] + records[:1]

    def test_view_hands_out_fresh_dicts(self):
        view = self._churned_engine().timeline
        joined = next(index for index, record in enumerate(view) if record["attach_to"])
        first = view[joined]
        first["attach_to"].append(-1)
        first["tokens"] = -1
        assert view[joined] is not first
        assert view[joined]["attach_to"][-1] != -1 and view[joined]["tokens"] != -1
        assert next(iter(view)) is not next(iter(view))

    def test_view_is_a_snapshot_of_the_rows_so_far(self):
        engine = self._churned_engine()
        view = engine.timeline
        frozen = list(view)
        for _ in range(40):  # grows the log past its capacity
            engine.step()
        assert len(engine.timeline) > len(view) == len(frozen)
        assert view == frozen
        assert engine.timeline[:len(frozen)] == frozen

    def test_view_survives_pickle_and_copy(self):
        view = self._churned_engine().timeline
        for copied in (pickle.loads(pickle.dumps(view)), copy.deepcopy(view), copy.copy(view)):
            assert copied == view and list(copied) == list(view)
        assert pickle.loads(pickle.dumps(view)).lineage == view.lineage

    def test_views_compare_across_tag_tables(self):
        """Logs that met the tags in another order still hold the same timeline."""
        view = self._churned_engine().timeline
        assert len(view.tags) > 1
        rows = view.rows().copy()
        rows[:, 5] = len(view.tags) - 1 - rows[:, 5]
        reordered = _EventLog.from_columns(rows, view.tags[::-1], view.attachments()).view()
        assert reordered == view and list(reordered) == list(view)
        changed = list(view)
        changed[-1]["tag"] = "elsewhere"
        assert view != changed

    def test_step_reports_its_stream_phases(self):
        network, load = torus_instance()
        generator = ScheduledEvents({
            0: [DynamicEvent(ARRIVAL, node=0, tokens=4)],
            1: [DynamicEvent(LEAVE, node=5)],
        })
        engine = StreamingEngine("algorithm2", network, load, generator, seed=0)
        clock = activate_kernel_clock()
        try:
            engine.step()
            engine.step()
        finally:
            deactivate_kernel_clock()
        assert clock.counts["stream/generate"] == 2
        assert clock.counts["stream/apply"] == 2
        assert clock.counts["stream/sync"] == 2
        assert clock.counts["stream/recouple-fast"] == 1
        assert clock.counts["stream/recouple-full"] == 1
        assert "stream/events" not in clock.counts


class TestStableLabelContract:
    def test_network_node_labels_map_indices_to_stable_labels(self):
        network = topologies.cycle(5)
        load = np.array([2, 2, 2, 2, 2])
        generator = ScheduledEvents({0: [DynamicEvent(LEAVE, node=1)]})
        engine = StreamingEngine("algorithm1", network, load, generator, seed=0)
        engine.step()
        assert engine.labels == (0, 2, 3, 4)
        assert list(engine.view().network.node_labels) == [0, 2, 3, 4]

    def test_network_and_view_follow_joins_and_leaves(self):
        network = topologies.cycle(5)
        generator = ScheduledEvents({
            0: [DynamicEvent(JOIN, attach_to=(0, 3), tokens=2)],
            1: [DynamicEvent(LEAVE, node=1)],
            2: [DynamicEvent(JOIN, attach_to=(5, 2), tokens=1), DynamicEvent(LEAVE, node=4)],
        })
        engine = StreamingEngine("algorithm1", network, np.array([2, 2, 2, 2, 2]),
                                 generator, seed=0)
        for labels in [(0, 1, 2, 3, 4, 5), (0, 2, 3, 4, 5), (0, 2, 3, 5, 6)]:
            engine.step()
            assert engine.labels == labels
            assert engine.network.node_labels == list(engine.labels)
            assert engine.view().network is engine.network
            # the network's edges are the engine's label edges, renumbered
            assert [[labels[u], labels[v]] for u, v in engine.network.edges] == \
                engine.state_dict()["edges"]

    @pytest.mark.parametrize("algorithm", ["algorithm1", "algorithm2"])
    def test_full_recouples_never_build_the_networkx_view(self, algorithm):
        network, load = torus_instance()
        generator = make_event_generator("churn", network, 6, seed=5)
        engine = StreamingEngine(algorithm, network, load, generator, seed=5)
        for _ in range(60):
            engine.step()
            assert engine.network._graph is None
        assert engine.recouplings - engine.fast_recouplings > 0


class TestCounterAccumulation:
    """Failure-mode counters survive re-couplings instead of being discarded."""

    RECOUPLE = {3: [DynamicEvent(ARRIVAL, node=0, tokens=1)]}

    def test_went_negative_persists_across_recouplings(self):
        network, load = torus_instance()
        engine = StreamingEngine("round-down", network, load,
                                 ScheduledEvents(self.RECOUPLE), seed=0)
        engine.step()
        # Simulate the pre-event balancer segment having observed negativity,
        # then drive past the event so the balancer is rebuilt.
        engine.balancer._went_negative = True
        for _ in range(5):
            engine.step()
        assert engine.recouplings == 1
        assert not engine.balancer.went_negative  # the new segment is clean...
        assert engine.result().went_negative      # ...but the run remembers

    def test_dummy_tokens_persist_across_recouplings(self):
        network, load = torus_instance()
        engine = StreamingEngine("algorithm2", network, load,
                                 ScheduledEvents(self.RECOUPLE), seed=0)
        engine.step()
        engine.balancer._dummy_tokens_created = 7
        engine.balancer._used_infinite_source = True
        for _ in range(5):
            engine.step()
        assert engine.recouplings == 1
        result = engine.result()
        assert result.dummy_tokens == 7 + engine.balancer.dummy_tokens_created
        assert result.used_infinite_source


class TestRecoupling:
    def test_recouples_only_when_state_changes(self):
        network, load = torus_instance()
        generator = ScheduledEvents({
            5: [DynamicEvent(ARRIVAL, node=0, tokens=10)],
            9: [DynamicEvent(DEPARTURE, node=0, tokens=0)],  # no-op: nothing changes
        })
        result = run_stream("algorithm1", network, load, generator, rounds=20, seed=1)
        assert result.extra["recouplings"] == 1.0

    def test_static_stream_matches_plain_run_shape(self):
        network, load = torus_instance()
        result = run_stream("algorithm2", network, load, ScheduledEvents({}),
                            rounds=40, seed=4)
        assert result.extra["recouplings"] == 0.0
        assert result.event_timeline == []
        assert len(result.trace_max_min) == 41
        # with no events, the total real load never changes
        assert set(result.trace_total_weight) == {float(load.sum())}


class TestDeterminism:
    def test_identical_seeds_identical_runs(self):
        def one_run():
            network, load = torus_instance()
            generator = make_event_generator("churn", network, 6, seed=13)
            return run_stream("algorithm2", network, load, generator,
                              rounds=50, continuous_kind="fos", seed=13)

        first, second = one_run(), one_run()
        assert first.trace_max_min == second.trace_max_min
        assert first.trace_total_weight == second.trace_total_weight
        assert first.event_timeline == second.event_timeline

    def test_run_result_summary_fields(self):
        network, load = torus_instance()
        generator = make_event_generator("burst", network, 6, seed=2)
        result = run_stream("algorithm2", network, load, generator, rounds=60, seed=2)
        assert result.algorithm == "algorithm2"
        assert result.rounds == 60
        assert result.network_name.endswith("+dynamic")
        assert result.total_weight == result.trace_total_weight[-1]
        row = result.as_dict()
        assert row["events"] == len(result.event_timeline)
        assert "recouplings" in row
