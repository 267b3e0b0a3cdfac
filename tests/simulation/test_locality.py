"""Tests for the task-locality analysis (:mod:`repro.simulation.locality`)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.continuous.fos import FirstOrderDiffusion
from repro.core.algorithm1 import DeterministicFlowImitation
from repro.exceptions import ExperimentError
from repro.network import topologies
from repro.simulation.locality import summarize_displacements, task_displacements
from repro.tasks.assignment import TaskAssignment
from repro.tasks.generators import balanced_load, point_load, uniform_random_load
from repro.tasks.task import TaskFactory


def assignment_with_origins(network, loads):
    factory = TaskFactory()
    assignment = TaskAssignment(network)
    for node, count in enumerate(loads):
        for task in factory.create_many(int(count), weight=1.0, origin=node):
            assignment.add(node, task)
    return assignment


class TestDisplacements:
    def test_unmoved_tasks_have_zero_displacement(self):
        net = topologies.cycle(6)
        assignment = assignment_with_origins(net, [2] * 6)
        displacements = task_displacements(assignment)
        assert displacements == [0] * 12

    def test_moved_task_distance(self):
        net = topologies.path(4)
        assignment = assignment_with_origins(net, [1, 0, 0, 0])
        task = assignment.tasks_at(0)[0]
        assignment.move(task, 0, 1)
        assignment.move(task, 1, 2)
        assert task_displacements(assignment) == [2]

    def test_tasks_without_origin_are_skipped(self):
        net = topologies.cycle(4)
        factory = TaskFactory()
        assignment = TaskAssignment(net)
        assignment.add(0, factory.create())  # no origin
        assert task_displacements(assignment) == []

    def test_dummies_excluded_by_default(self):
        net = topologies.cycle(4)
        factory = TaskFactory()
        assignment = TaskAssignment(net)
        assignment.add(0, factory.create_dummy(origin=2))
        assert task_displacements(assignment) == []
        assert task_displacements(assignment, include_dummies=True) == [2]

    @pytest.mark.parametrize("include_dummies", [False, True])
    def test_torus_run_equals_all_pairs_networkx_distances(self, include_dummies):
        net = topologies.torus(5, dims=2)
        assignment = assignment_with_origins(net, uniform_random_load(net, 25 * 6, seed=2))
        balancer = DeterministicFlowImitation(
            FirstOrderDiffusion(net, assignment.loads()), assignment)
        balancer.run(15)
        lengths = dict(nx.all_pairs_shortest_path_length(net.graph))
        expected = [lengths[task.origin][node]
                    for node in net.nodes for task in balancer.assignment.tasks_at(node)
                    if include_dummies or not task.is_dummy]
        displacements = task_displacements(balancer.assignment,
                                           include_dummies=include_dummies)
        assert displacements == expected
        assert max(displacements) > 0


class TestSummary:
    def test_summary_statistics(self):
        net = topologies.path(5)
        assignment = assignment_with_origins(net, [3, 0, 0, 0, 0])
        tasks = list(assignment.tasks_at(0))
        assignment.move(tasks[0], 0, 1)
        assignment.move(tasks[1], 0, 1)
        assignment.move(tasks[1], 1, 2)
        summary = summarize_displacements(assignment)
        assert summary.tasks_measured == 3
        assert summary.maximum == 2
        assert summary.fraction_stationary == pytest.approx(1 / 3)
        assert summary.fraction_within_one_hop == pytest.approx(2 / 3)

    def test_empty_summary_rejected(self):
        net = topologies.cycle(4)
        assignment = TaskAssignment(net)
        with pytest.raises(ExperimentError):
            summarize_displacements(assignment)

    def test_as_dict_keys(self):
        net = topologies.cycle(4)
        assignment = assignment_with_origins(net, [1, 1, 1, 1])
        data = summarize_displacements(assignment).as_dict()
        assert {"tasks_measured", "mean", "median", "max",
                "fraction_stationary", "fraction_within_one_hop"} == set(data)


class TestLocalityOfAlgorithm1:
    def test_balanced_workload_barely_moves(self):
        """On an already balanced workload, flow imitation moves (almost) nothing."""
        net = topologies.torus(4, dims=2)
        assignment = assignment_with_origins(net, balanced_load(net, 8))
        continuous = FirstOrderDiffusion(net, assignment.loads())
        balancer = DeterministicFlowImitation(continuous, assignment)
        balancer.run(20)
        summary = summarize_displacements(balancer.assignment)
        assert summary.mean == pytest.approx(0.0)

    def test_point_load_tasks_spread_but_stay_finite(self):
        net = topologies.torus(5, dims=2)
        assignment = assignment_with_origins(net, point_load(net, 25 * 16))
        continuous = FirstOrderDiffusion(net, assignment.loads())
        balancer = DeterministicFlowImitation(continuous, assignment)
        balancer.run_until_continuous_balanced()
        summary = summarize_displacements(balancer.assignment)
        # Tokens must spread from the hot spot (mean displacement > 0) but can
        # never travel further than the diameter.
        assert summary.mean > 0
        assert summary.maximum <= net.diameter()
