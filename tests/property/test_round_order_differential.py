"""Differential test: the order-free array round against the planning-order round.

The array round (:meth:`ArrayFlowImitation._imitate_round`) visits the active
edges in canonical edge order, and :meth:`WeightedRunState.transfer` puts the
requests in ``(sender, receiver)`` order only on its run-queue branch.  The
oracle below keeps the earlier round, which oriented the active edges and
filtered the network's ``directed_order`` every round, so every request
reached ``transfer`` already in planning order.  Both rounds must give the
same per-round loads, dummy distribution, cumulative discrete flows and
round reports on every substrate, workload kind and algorithm.

A second test drives ``transfer`` directly: the same requests in planning
order, shuffled with a lexsort as the planning order, and shuffled with the
network's planning order, must give
the same ``sent`` (in the caller's order), ``tasks_moved``, ``dummies`` and
end state.  The explicit cases make sure both of ``transfer``'s branches
run: the scatter form (one class, no dummy, no sender short) and the
run-queue form (dummies, mixed classes, a sender short of tokens).

The example count comes from the active hypothesis profile (see
``tests/conftest.py``): bounded for the tier-1 run, larger under
``--hypothesis-profile=deep``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.backend.flow import ArrayFlowImitation
from repro.backend.weighted import WeightedRunState
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
SUBSTRATES = ("fos", "sos", "periodic-matching", "random-matching")


# --------------------------------------------------------------------- #
# the planning-order round, kept as the oracle
# --------------------------------------------------------------------- #

def active_directed_edges(network, residual):
    """Orient every edge with non-zero ``residual`` and put them in planning
    order by filtering ``directed_order`` (the earlier per-round layout)."""
    m = network.num_edges
    order = network.directed_order
    active = np.concatenate((residual > 0.0, residual < 0.0))[order]
    directed = order[np.flatnonzero(active)]
    forward = directed < m
    senders, receivers = network.directed_endpoints
    return (directed - m * ~forward, forward, senders[directed],
            receivers[directed])


def planning_order_round(self):
    """The array round that hands ``transfer`` sorted requests."""
    residual = self._continuous.cumulative_flows - self._discrete_cumulative
    active, forward, senders, receivers = active_directed_edges(self.network, residual)
    if active.size == 0:
        self._report(0, 0, 0, 0)
        return
    amounts = self._edge_amounts(np.abs(residual[active]), active)
    moving = np.flatnonzero(amounts > 0)
    if moving.size == 0:
        self._report(0, 0, 0, 0)
        return
    active, forward = active[moving], forward[moving]
    senders, receivers, amounts = senders[moving], receivers[moving], amounts[moving]
    sent, tasks_moved, dummies = self._state.transfer(
        senders, receivers, amounts, self._w_max + 1e-9, self._policy,
        lambda: np.arange(senders.size))   # already in planning order
    self._discrete_cumulative[active] += np.where(forward, sent, -sent).astype(float)
    self._report(int(np.count_nonzero(sent)), tasks_moved, int(sent.sum()), dummies)


def as_oracle(balancer):
    """Turn an array balancer into the same balancer with the oracle round."""
    assert isinstance(balancer, ArrayFlowImitation)
    cls = type(balancer)
    balancer.__class__ = type(f"PlanningOrder{cls.__name__}", (cls,),
                              {"_imitate_round": planning_order_round})
    return balancer


def counting_planning_order(network):
    """Count the calls of ``network.planning_order`` (looked up per call)."""
    calls = []

    def planning_order(directed):
        calls.append(directed.size)
        return type(network).planning_order(network, directed)

    network.planning_order = planning_order
    return calls


# --------------------------------------------------------------------- #
# the round
# --------------------------------------------------------------------- #

def build_workload(network, kind, tasks_per_node, placement, weight, seed):
    total = tasks_per_node * network.num_nodes
    if placement == "point":
        counts = point_load(network, total)
    else:
        counts = uniform_random_load(network, total, seed=seed)
    counts = np.asarray(counts, dtype=np.int64)
    if kind == "unit":
        return counts
    if kind == "single":
        return WeightedLoads.from_buckets([{weight: int(c)} if c else {} for c in counts])
    return weighted_loads_from_task_counts(counts, max_weight=weight, seed=seed)


def run_pair(topology, substrate, algorithm, policy, kind, tasks_per_node,
             placement, weight, rounds, seed):
    """Run oracle and candidate side by side; return ``(fast, run_queue)``
    round counts of the candidate's ``transfer`` branches."""
    network = TOPOLOGIES[topology]()
    calls = counting_planning_order(network)
    workload = build_workload(network, "unit" if algorithm == "algorithm2" else kind,
                              tasks_per_node, placement, weight, seed)
    key = "weighted_load" if isinstance(workload, WeightedLoads) else "initial_load"
    oracle, candidate = (
        make_balancer(algorithm, network, continuous_kind=substrate, seed=seed,
                      selection_policy=policy, backend="array", **{key: workload})
        for _ in range(2))
    as_oracle(oracle)
    fast = run_queue = 0
    for round_index in range(rounds):
        before = len(calls)
        oracle.advance()
        candidate.advance()
        label = f"round {round_index}"
        assert np.array_equal(oracle.loads(), candidate.loads()), label
        assert np.array_equal(oracle.loads(include_dummies=False),
                              candidate.loads(include_dummies=False)), label
        assert np.array_equal(oracle.dummy_loads(), candidate.dummy_loads()), label
        assert np.array_equal(oracle.discrete_cumulative_flows(),
                              candidate.discrete_cumulative_flows()), label
        assert oracle.round_reports == candidate.round_reports, label
        if len(calls) > before:
            run_queue += 1
        elif candidate.round_reports[-1].weight_moved:
            fast += 1
    assert oracle.dummy_tokens_created == candidate.dummy_tokens_created
    return fast, run_queue


#: (topology, substrate, algorithm, policy, kind, tasks_per_node, placement,
#: weight, rounds, seed); each creates dummies or mixes classes, so the
#: run-queue branch runs, and the unit ones start on the scatter branch.
ROUND_CASES = [
    ("torus16", "sos", "algorithm1", TaskSelectionPolicy.FIFO, "unit", 4, "point", 2, 14, 5),
    ("torus16", "sos", "algorithm2", TaskSelectionPolicy.FIFO, "unit", 4, "point", 2, 14, 5),
    ("torus16", "sos", "algorithm1", TaskSelectionPolicy.LARGEST_FIRST, "mixed", 4, "point", 4,
     10, 1),
    ("torus16", "sos", "algorithm1", TaskSelectionPolicy.SMALLEST_FIRST, "single", 4, "point", 3,
     14, 2),
    ("torus", "periodic-matching", "algorithm2", TaskSelectionPolicy.FIFO, "unit", 1, "uniform",
     2, 12, 1),
    ("hypercube", "random-matching", "algorithm1", TaskSelectionPolicy.FIFO, "mixed", 3,
     "uniform", 3, 12, 4),
    ("cycle", "fos", "algorithm1", TaskSelectionPolicy.FIFO, "mixed", 5, "uniform", 4, 12, 6),
]


@pytest.mark.parametrize("case", ROUND_CASES, ids=lambda case: "-".join(map(str, case[:5])))
def test_order_free_round_matches_planning_order_round_on_examples(case):
    fast, run_queue = run_pair(*case)
    assert run_queue > 0
    if case[4] == "unit":
        assert fast > 0


@given(topology=st.sampled_from(sorted(TOPOLOGIES)),
       substrate=st.sampled_from(SUBSTRATES),
       algorithm=st.one_of(
           st.tuples(st.just("algorithm1"), st.sampled_from(TaskSelectionPolicy.ALL)),
           st.tuples(st.just("algorithm2"), st.just(TaskSelectionPolicy.FIFO))),
       kind=st.sampled_from(["unit", "single", "mixed"]),
       tasks_per_node=st.integers(1, 8), placement=st.sampled_from(["uniform", "point"]),
       weight=st.integers(2, 4), rounds=st.integers(1, 12), seed=st.integers(0, 2**16))
@settings(deadline=None)
def test_order_free_round_matches_planning_order_round(
        topology, substrate, algorithm, kind, tasks_per_node, placement, weight,
        rounds, seed):
    name, policy = algorithm
    fast, run_queue = run_pair(topology, substrate, name, policy, kind,
                               tasks_per_node, placement, weight, rounds, seed)
    event("run-queue branch ran" if run_queue else "scatter branch only")


# --------------------------------------------------------------------- #
# transfer in any order
# --------------------------------------------------------------------- #

def make_state(kind, counts, weight, seed, short_node):
    """A state of ``kind``; ``short_node`` (if any) first sends more than
    it holds, which leaves two dummies in the queues."""
    if kind == "unit":
        state = WeightedRunState.from_counts(counts)
    elif kind == "single":
        state = WeightedRunState.from_counts(counts, weight)
    else:
        state = WeightedRunState.from_weighted_loads(
            weighted_loads_from_task_counts(counts, max_weight=weight, seed=seed))
    if short_node is not None:
        w_max = max(1, state.max_weight())
        # a unit count, or a residual the greedy answers with two dummies
        ask = (int(state.loads[short_node]) + 2 if w_max == 1
               else float(state.loads[short_node] + w_max + 2))
        state.transfer(np.array([short_node]), np.array([(short_node + 1) % counts.size]),
                       np.array([ask]), w_max + 1e-9, TaskSelectionPolicy.FIFO,
                       lambda: np.arange(1))
        assert state.dummy_counts.sum() == 2
    return state


def end_state(state):
    return (state.loads.tolist(), state.dummy_counts.tolist(),
            [array.tolist() for array in state.runs()])


def check_transfer_orders(topology, kind, weight, policy, seed, short_node, share, stock):
    """Run one round's requests three ways; return whether the run-queue
    branch ran.  Every node holds ``stock`` to ``stock + 5`` tasks."""
    network = TOPOLOGIES[topology]()
    rng = np.random.default_rng(seed)
    counts = rng.integers(stock, stock + 6, network.num_nodes)
    m = network.num_edges
    # one direction per active edge, as a round asks
    chosen = rng.random(m) < share
    chosen[rng.integers(m)] = True   # a round has at least one request
    edges = np.flatnonzero(chosen)
    directed = edges + m * (rng.random(edges.size) < 0.5)
    senders, receivers = (ends[directed] for ends in network.directed_endpoints)
    probe = make_state(kind, counts, weight, seed, short_node)
    threshold = max(1, probe.max_weight()) + 1e-9
    if probe.max_weight() <= 1:
        amounts = rng.integers(0, 4, directed.size)
    else:
        amounts = rng.random(directed.size) * 3 * weight
    planned = np.lexsort((receivers, senders))
    shuffled = rng.permutation(directed.size)
    calls = counting_planning_order(network)

    outcomes = []
    for order, planning_order in (
            (planned, lambda: np.arange(directed.size)),
            (shuffled, lambda: np.lexsort((receivers[shuffled], senders[shuffled]))),
            (shuffled, lambda: network.planning_order(directed[shuffled]))):
        state = make_state(kind, counts, weight, seed, short_node)
        sent, moved, dummies = state.transfer(
            senders[order], receivers[order], amounts[order], threshold, policy,
            planning_order)
        caller_order = np.empty_like(sent)
        caller_order[order] = sent   # back to the directed-edge listing
        outcomes.append((caller_order.tolist(), moved, dummies, end_state(state)))
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]
    return bool(calls)


#: (topology, kind, weight, policy, seed, short_node, share, stock) covering
#: both branches: plenty of tokens (the scatter form), and pre-existing
#: dummies, mixed classes or senders asked for more than they hold.
TRANSFER_CASES = [
    ("torus16", "unit", 1, TaskSelectionPolicy.FIFO, 1, None, 0.5, 20),
    ("torus16", "single", 3, TaskSelectionPolicy.FIFO, 2, None, 0.5, 20),
    ("torus16", "unit", 1, TaskSelectionPolicy.FIFO, 3, 0, 0.6, 20),
    ("hypercube", "unit", 1, TaskSelectionPolicy.FIFO, 4, None, 0.9, 0),
    ("torus", "mixed", 4, TaskSelectionPolicy.LARGEST_FIRST, 5, None, 0.7, 2),
    ("cycle", "single", 2, TaskSelectionPolicy.SMALLEST_FIRST, 6, 3, 0.8, 0),
]


@pytest.mark.parametrize("case", TRANSFER_CASES, ids=lambda case: "-".join(map(str, case[:4])))
def test_transfer_gives_the_same_round_in_any_order_on_examples(case):
    check_transfer_orders(*case)


def test_transfer_examples_reach_both_branches():
    branches = {check_transfer_orders(*case) for case in TRANSFER_CASES}
    assert branches == {False, True}


@given(topology=st.sampled_from(sorted(TOPOLOGIES)),
       kind=st.sampled_from(["unit", "single", "mixed"]), weight=st.integers(2, 4),
       policy=st.sampled_from(TaskSelectionPolicy.ALL), seed=st.integers(0, 2**16),
       short=st.booleans(), share=st.floats(0.0, 1.0), stock=st.sampled_from([0, 2, 20]))
@settings(deadline=None)
def test_transfer_gives_the_same_round_in_any_order(topology, kind, weight, policy,
                                                    seed, short, share, stock):
    run_queue = check_transfer_orders(topology, kind, weight, policy, seed,
                                      0 if short else None, share, stock)
    event("run-queue branch ran" if run_queue else "scatter branch only")
