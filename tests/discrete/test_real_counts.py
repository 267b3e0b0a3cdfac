"""Every balancer hands back its real task counts as a fresh int64 matrix.

The dynamic streaming engine reads
:meth:`~repro.discrete.base.DiscreteBalancer.real_counts` back after every
round and later changes the matrix in place, so the matrix must never share
memory with the balancer's own state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network import topologies
from repro.simulation.engine import make_balancer
from repro.tasks.weighted import WeightedLoads

UNIT = np.array([9, 0, 0, 4, 0, 0, 2, 1])
MIXED = WeightedLoads.from_buckets(
    [{1: 2, 3: 2}, {}, {2: 3}, {}, {1: 1, 2: 1}, {}, {3: 1}, {}])

#: family -> (algorithm, workload keyword, workload, backend)
FAMILIES = {
    "integer-baseline": ("round-down", "initial_load", UNIT, "auto"),
    "object-one-class": ("algorithm1", "initial_load", UNIT, "object"),
    "object-mixed": ("algorithm1", "weighted_load", MIXED, "object"),
    "array-compact": ("algorithm1", "initial_load", UNIT, "array"),
    "array-runs": ("algorithm1", "weighted_load", MIXED, "array"),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_mutating_the_counts_leaves_the_balancer_unchanged(family):
    algorithm, keyword, workload, backend = FAMILIES[family]
    network = topologies.cycle(8)
    balancer = make_balancer(algorithm, network, backend=backend, **{keyword: workload})
    for _ in range(3):
        balancer.advance()
    if family.startswith("array"):
        assert (balancer._state._runs is None) == (family == "array-compact")
    weights = np.array([1, 2, 3]) if keyword == "weighted_load" else np.array([1])
    loads = balancer.loads()
    counts = balancer.real_counts(weights)
    assert counts.dtype == np.int64 and counts.shape == (network.num_nodes, weights.size)
    assert np.array_equal(counts @ weights, balancer.loads(include_dummies=False))
    expected = counts.copy()
    counts[:, 0] -= 5
    counts[:, 1:] += 7
    assert np.array_equal(balancer.loads(), loads)
    assert np.array_equal(balancer.real_counts(weights), expected)
