"""Shared fixtures for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.network import topologies
from repro.network.graph import Network
from repro.tasks.assignment import TaskAssignment
from repro.tasks.generators import point_load, uniform_random_load
from repro.tasks.task import TaskFactory

# Hypothesis profiles.  Tests that pin ``max_examples`` in their own
# ``@settings`` keep it; the rest take the profile's count: bounded in the
# default tier-1 run, larger under ``pytest --hypothesis-profile=deep``.
settings.register_profile("tier1", max_examples=12, deadline=None)
settings.register_profile("deep", max_examples=2000, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def cycle8() -> Network:
    """An 8-node cycle (degree 2, diameter 4)."""
    return topologies.cycle(8)


@pytest.fixture
def torus5() -> Network:
    """A 5x5 torus (degree 4)."""
    return topologies.torus(5, dims=2)


@pytest.fixture
def hypercube4() -> Network:
    """A 4-dimensional hypercube (16 nodes, degree 4)."""
    return topologies.hypercube(4)


@pytest.fixture
def star6() -> Network:
    """A star with one hub and five leaves (maximum degree 5)."""
    return topologies.star(6)


@pytest.fixture
def path4() -> Network:
    """A 4-node path."""
    return topologies.path(4)


@pytest.fixture
def speedy_cycle() -> Network:
    """A 6-node cycle with heterogeneous integer speeds."""
    return topologies.cycle(6).with_speeds([1, 2, 1, 3, 1, 2])


@pytest.fixture
def point_load_cycle8(cycle8) -> np.ndarray:
    """A point load of 64 tokens on node 0 of the 8-cycle."""
    return point_load(cycle8, 64)


@pytest.fixture
def random_load_torus5(torus5) -> np.ndarray:
    """A random token load on the 5x5 torus (fixed seed)."""
    return uniform_random_load(torus5, 32 * torus5.num_nodes, seed=11)


@pytest.fixture
def unit_assignment_cycle8(cycle8, point_load_cycle8) -> TaskAssignment:
    """A unit-token assignment matching the point load on the 8-cycle."""
    return TaskAssignment.from_unit_loads(cycle8, point_load_cycle8)


@pytest.fixture
def task_factory() -> TaskFactory:
    """A fresh task factory."""
    return TaskFactory()
