"""Unit tests for :mod:`repro.network.matchings`."""

from __future__ import annotations

import pytest

from repro.exceptions import ScheduleError
from repro.network import topologies
from repro.network.matchings import (
    PeriodicMatchingSchedule,
    RandomMatchingSchedule,
    SingleMatchingSchedule,
    edge_coloring,
    validate_matching,
)


class TestValidateMatching:
    def test_valid_matching_canonicalised(self):
        net = topologies.cycle(6)
        matching = validate_matching(net, [(1, 0), (3, 2)])
        assert matching == ((0, 1), (2, 3))

    def test_missing_edge_rejected(self):
        net = topologies.cycle(6)
        with pytest.raises(ScheduleError):
            validate_matching(net, [(0, 3)])

    def test_overlapping_edges_rejected(self):
        net = topologies.cycle(6)
        with pytest.raises(ScheduleError):
            validate_matching(net, [(0, 1), (1, 2)])

    def test_empty_matching_allowed(self):
        net = topologies.cycle(6)
        assert validate_matching(net, []) == ()


    def test_fractional_node_ids_rejected(self):
        net = topologies.cycle(6)
        with pytest.raises(ScheduleError, match="integers"):
            validate_matching(net, [(0.5, 1)])
        assert validate_matching(net, [(1.0, 0.0)]) == ((0, 1),)

    def test_malformed_pairs_raise_schedule_error(self):
        net = topologies.cycle(6)
        for matching in ([(0, 1, 2)], [(0, 1), (2,)], [0, 1]):
            with pytest.raises(ScheduleError):
                validate_matching(net, matching)


class TestEdgeColoring:
    @pytest.mark.parametrize("builder", [
        lambda: topologies.cycle(7),
        lambda: topologies.hypercube(4),
        lambda: topologies.torus(4, dims=2),
        lambda: topologies.star(8),
        lambda: topologies.random_regular(16, 4, seed=1),
    ])
    def test_covers_all_edges_exactly_once(self, builder):
        net = builder()
        matchings = edge_coloring(net)
        seen = [edge for matching in matchings for edge in matching]
        assert sorted(seen) == sorted(net.edges)
        assert len(seen) == len(set(seen))

    def test_each_colour_is_a_matching(self):
        net = topologies.torus(4, dims=2)
        for matching in edge_coloring(net):
            nodes = [node for edge in matching for node in edge]
            assert len(nodes) == len(set(nodes))

    def test_number_of_colours_bounded(self):
        net = topologies.hypercube(5)
        matchings = edge_coloring(net)
        assert len(matchings) <= 2 * net.max_degree - 1


class TestPeriodicSchedule:
    def test_default_schedule_covers_edges(self):
        net = topologies.hypercube(3)
        schedule = PeriodicMatchingSchedule(net)
        assert schedule.period >= net.max_degree
        covered = set()
        for t in range(schedule.period):
            covered.update(schedule.matching(t))
        assert covered == set(net.edges)

    def test_schedule_is_periodic(self):
        net = topologies.torus(4, dims=2)
        schedule = PeriodicMatchingSchedule(net)
        period = schedule.period
        for t in range(period):
            assert schedule.matching(t) == schedule.matching(t + period)

    def test_explicit_matchings(self):
        net = topologies.cycle(4)
        schedule = PeriodicMatchingSchedule(net, matchings=[[(0, 1), (2, 3)], [(1, 2), (0, 3)]])
        assert schedule.period == 2
        assert schedule.matching(0) == ((0, 1), (2, 3))

    def test_incomplete_cover_rejected(self):
        net = topologies.cycle(4)
        with pytest.raises(ScheduleError):
            PeriodicMatchingSchedule(net, matchings=[[(0, 1)]])

    def test_negative_round_rejected(self):
        net = topologies.cycle(4)
        schedule = PeriodicMatchingSchedule(net)
        with pytest.raises(ScheduleError):
            schedule.matching(-1)


class TestRandomSchedule:
    def test_matchings_are_valid(self):
        net = topologies.random_regular(20, 4, seed=2)
        schedule = RandomMatchingSchedule(net, seed=3)
        for t in range(20):
            matching = schedule.matching(t)
            nodes = [node for edge in matching for node in edge]
            assert len(nodes) == len(set(nodes))
            assert all(net.has_edge(u, v) for u, v in matching)

    def test_caching_gives_stable_answers(self):
        net = topologies.hypercube(4)
        schedule = RandomMatchingSchedule(net, seed=5)
        first = schedule.matching(7)
        again = schedule.matching(7)
        assert first == again

    def test_seed_reproducibility(self):
        net = topologies.hypercube(4)
        a = RandomMatchingSchedule(net, seed=9)
        b = RandomMatchingSchedule(net, seed=9)
        for t in range(10):
            assert a.matching(t) == b.matching(t)

    def test_different_seeds_differ(self):
        net = topologies.random_regular(30, 4, seed=2)
        a = RandomMatchingSchedule(net, seed=1)
        b = RandomMatchingSchedule(net, seed=2)
        assert any(a.matching(t) != b.matching(t) for t in range(10))

    def test_period_is_none(self):
        net = topologies.cycle(5)
        assert RandomMatchingSchedule(net, seed=0).period is None


class TestSingleSchedule:
    def test_same_matching_every_round(self):
        net = topologies.cycle(6)
        schedule = SingleMatchingSchedule(net, [(0, 1), (2, 3)])
        assert schedule.matching(0) == schedule.matching(17) == ((0, 1), (2, 3))
        assert schedule.period == 1
