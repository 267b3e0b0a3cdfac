"""Differential test: the object and array backends agree on generated inputs.

Hypothesis draws a small topology, a workload (unit counts, one weight class
or mixed weights), an algorithm with its selection policy, a
diffusion substrate and one mid-run ``recouple`` onto a second generated
workload.  Both backends must then produce the same loads (with and without
dummies), cumulative discrete flows and round reports after every round, and
the same real task counts per weight class at the end.
SOS overshoots on the 16x16 torus from a point load, so dummy tokens appear
and the array round's queue form runs, not only its scatter form.  The
explicit examples make sure every run covers each planning branch of that
form: the vectorised unit take (Algorithm 2, and Algorithm 1's floor counts),
the weighted greedy under all three selection policies, and delivery into
queues that already hold dummies.

The example count comes from the active hypothesis profile (see
``tests/conftest.py``): bounded for the tier-1 run, larger under
``--hypothesis-profile=deep``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.core.flow_imitation import TaskSelectionPolicy
from repro.network import topologies
from repro.simulation.engine import make_balancer
from repro.tasks.generators import point_load, uniform_random_load
from repro.tasks.weighted import WeightedLoads, weighted_loads_from_task_counts

TOPOLOGIES = {
    "cycle": lambda: topologies.cycle(10),
    "torus": lambda: topologies.torus(4, dims=2),
    "torus16": lambda: topologies.torus(16, dims=2),
    "hypercube": lambda: topologies.hypercube(4),
}


@lru_cache(maxsize=None)
def network_for(name):
    return TOPOLOGIES[name]()


workloads = st.fixed_dictionaries({
    "kind": st.sampled_from(["unit", "single", "mixed"]),
    "tasks_per_node": st.integers(1, 8),
    "placement": st.sampled_from(["uniform", "point"]),
    "weight": st.integers(2, 4),
    "seed": st.integers(0, 2**16),
})

algorithms = st.one_of(
    st.tuples(st.just("algorithm1"), st.sampled_from(TaskSelectionPolicy.ALL)),
    st.tuples(st.just("algorithm2"), st.just(TaskSelectionPolicy.FIFO)),
)


def build_workload(network, spec, unit_only):
    """Task counts per node, turned into the drawn kind of workload."""
    total = spec["tasks_per_node"] * network.num_nodes
    if spec["placement"] == "point":
        counts = point_load(network, total)
    else:
        counts = uniform_random_load(network, total, seed=spec["seed"])
    counts = np.asarray(counts, dtype=np.int64)
    if unit_only or spec["kind"] == "unit":
        return counts
    if spec["kind"] == "single":
        return WeightedLoads.from_buckets(
            [{spec["weight"]: int(c)} if c else {} for c in counts])
    return weighted_loads_from_task_counts(counts, max_weight=spec["weight"],
                                           seed=spec["seed"])


def build(backend, algorithm, network, workload, substrate, policy, seed):
    key = "weighted_load" if isinstance(workload, WeightedLoads) else "initial_load"
    return make_balancer(algorithm, network, continuous_kind=substrate, seed=seed,
                         selection_policy=policy, backend=backend, **{key: workload})


def assert_same_round(reference, candidate, label):
    assert np.array_equal(reference.loads(), candidate.loads()), label
    assert np.array_equal(reference.loads(include_dummies=False),
                          candidate.loads(include_dummies=False)), label
    assert np.array_equal(reference.discrete_cumulative_flows(),
                          candidate.discrete_cumulative_flows()), label
    assert reference.round_reports == candidate.round_reports, label


@given(topology=st.sampled_from(sorted(TOPOLOGIES)), first=workloads,
       second=workloads, algorithm=algorithms,
       substrate=st.sampled_from(["fos", "sos"]),
       rounds_before=st.integers(1, 12), rounds_after=st.integers(1, 12),
       seed=st.integers(0, 2**16))
@example(topology="torus16",
         first=dict(kind="mixed", tasks_per_node=4, placement="point", weight=4, seed=1),
         second=dict(kind="single", tasks_per_node=2, placement="point", weight=3, seed=2),
         algorithm=("algorithm1", TaskSelectionPolicy.LARGEST_FIRST),
         substrate="sos", rounds_before=6, rounds_after=6, seed=5)
@example(topology="torus16",
         first=dict(kind="unit", tasks_per_node=4, placement="point", weight=2, seed=1),
         second=dict(kind="unit", tasks_per_node=2, placement="point", weight=2, seed=2),
         algorithm=("algorithm2", TaskSelectionPolicy.FIFO),
         substrate="sos", rounds_before=6, rounds_after=6, seed=5)
@example(topology="torus16",
         first=dict(kind="mixed", tasks_per_node=4, placement="point", weight=4, seed=1),
         second=dict(kind="mixed", tasks_per_node=2, placement="point", weight=3, seed=2),
         algorithm=("algorithm1", TaskSelectionPolicy.FIFO),
         substrate="sos", rounds_before=6, rounds_after=6, seed=5)
@example(topology="torus16",
         first=dict(kind="mixed", tasks_per_node=4, placement="point", weight=4, seed=1),
         second=dict(kind="mixed", tasks_per_node=2, placement="point", weight=3, seed=2),
         algorithm=("algorithm1", TaskSelectionPolicy.SMALLEST_FIRST),
         substrate="sos", rounds_before=6, rounds_after=6, seed=5)
@example(topology="torus16",
         first=dict(kind="unit", tasks_per_node=4, placement="point", weight=2, seed=1),
         second=dict(kind="unit", tasks_per_node=2, placement="point", weight=2, seed=2),
         algorithm=("algorithm1", TaskSelectionPolicy.FIFO),
         substrate="sos", rounds_before=6, rounds_after=6, seed=5)
@settings(deadline=None)
def test_object_and_array_backends_agree(topology, first, second, algorithm,
                                         substrate, rounds_before, rounds_after,
                                         seed):
    name, policy = algorithm
    unit_only = name == "algorithm2"
    network = network_for(topology)
    pair = [build(backend, name, network, build_workload(network, first, unit_only),
                  substrate, policy, seed)
            for backend in ("object", "array")]
    for round_index in range(rounds_before):
        for balancer in pair:
            balancer.advance()
        assert_same_round(*pair, f"before recouple, round {round_index}")

    second_workload = build_workload(network, second, unit_only)
    for balancer in pair:
        balancer.recouple(second_workload, seed=seed + 1)
    assert pair[0].w_max == pair[1].w_max
    for round_index in range(rounds_after):
        for balancer in pair:
            balancer.advance()
        assert_same_round(*pair, f"after recouple, round {round_index}")
    assert pair[0].dummy_tokens_created == pair[1].dummy_tokens_created
    event("dummies created" if pair[1].dummy_tokens_created else "no dummies")
    weights = np.arange(1, 5)  # every weight class the workloads draw
    counts = [balancer.real_counts(weights) for balancer in pair]
    assert np.array_equal(*counts)
    assert np.array_equal(counts[1] @ weights, pair[1].loads(include_dummies=False))
    event("mixed classes" if np.count_nonzero(counts[1].any(axis=0)) > 1 else "one class")
