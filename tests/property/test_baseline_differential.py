"""Differential test: every literature baseline equals its scalar oracle.

Each baseline has one implementation that works on whole arrays: two
scatter-adds apply a round's moves, the excess-token counter round selects
every node's targets at once, and the matching processes read the round's
matching as an edge-index array.  The oracles in ``tests/baseline_oracles.py``
are the per-edge and per-node loops those replaced.  Hypothesis draws a
connected graph, speeds, a token load, a seed and a horizon; the baseline and
its oracle must then hold the same loads after every round and agree on
``went_negative``.  :class:`DimensionExchange` is checked the same way on the
continuous loads, and the random matching schedule against the greedy over
edge tuples.  Every oracle must also override methods that its library class
still has: a rename in the library would otherwise leave the oracle running
the library's own code, and the comparison would pass vacuously.

The example count comes from the active hypothesis profile (see
``tests/conftest.py``): bounded for the tier-1 run, larger under
``--hypothesis-profile=deep``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import baseline_oracles
from baseline_oracles import (
    ScalarDimensionExchange,
    ScalarExcessTokenDiffusion,
    ScalarQuasirandomDiffusion,
    ScalarRandomizedRoundingDiffusion,
    ScalarRandomizedRoundingMatching,
    ScalarRandomMatchingSchedule,
    ScalarRoundDownDiffusion,
    ScalarRoundDownMatching,
    ScalarRoundDownSecondOrder,
)
from repro.continuous.dimension_exchange import DimensionExchange
from repro.discrete.baselines.diffusion import (
    ExcessTokenDiffusion,
    QuasirandomDiffusion,
    RandomizedRoundingDiffusion,
    RoundDownDiffusion,
    RoundDownSecondOrder,
)
from repro.discrete.baselines.matching import RandomizedRoundingMatching, RoundDownMatching
from repro.network import topologies
from repro.network.graph import Network
from repro.network.matchings import (
    PeriodicMatchingSchedule,
    RandomMatchingSchedule,
    edge_coloring,
)

FAMILIES = {
    "cycle": lambda size: topologies.cycle(size + 3),
    "torus": lambda size: topologies.torus(size % 4 + 2, dims=2),
    "hypercube": lambda size: topologies.hypercube(size % 4 + 1),
    "star": lambda size: topologies.star(size + 3),
    "complete": lambda size: topologies.complete(size % 5 + 2),
}


@st.composite
def networks(draw):
    """A named family or a random connected graph, with drawn speeds."""
    family = draw(st.sampled_from(sorted(FAMILIES) + ["random"]))
    if family == "random":
        n = draw(st.integers(2, 14))
        tree = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
        extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                              .filter(lambda pair: pair[0] != pair[1]), max_size=2 * n))
        u, v = zip(*(tree + extra))
        network = Network.from_edges(n, u, v, name="random")
    else:
        network = FAMILIES[family](draw(st.integers(0, 9)))
    if draw(st.booleans()):
        speeds = draw(st.lists(st.integers(1, 4), min_size=network.num_nodes,
                               max_size=network.num_nodes))
        network = network.with_speeds(speeds)
    return network


@st.composite
def instances(draw):
    """``(network, loads, seed, rounds)`` for one differential run."""
    network = draw(networks())
    n = network.num_nodes
    if draw(st.booleans()):
        loads = [0] * n
        loads[draw(st.integers(0, n - 1))] = draw(st.integers(0, 60 * n))
    else:
        loads = draw(st.lists(st.integers(0, 80), min_size=n, max_size=n))
    return network, np.array(loads, dtype=np.int64), draw(st.integers(0, 2**16)), \
        draw(st.integers(1, 30))


def _diffusion(cls, **kwargs):
    return lambda network, loads, seed: cls(network, loads, **kwargs)


def _seeded(cls, **kwargs):
    return lambda network, loads, seed: cls(network, loads, seed=seed, **kwargs)


#: name -> (library constructor, oracle constructor)
DIFFUSION_PAIRS = {
    "round-down": (_diffusion(RoundDownDiffusion), _diffusion(ScalarRoundDownDiffusion)),
    "round-down-sos": (_diffusion(RoundDownSecondOrder),
                       _diffusion(ScalarRoundDownSecondOrder)),
    "quasirandom": (_diffusion(QuasirandomDiffusion), _diffusion(ScalarQuasirandomDiffusion)),
    "randomized-rounding/counter": (_seeded(RandomizedRoundingDiffusion),
                                    _seeded(ScalarRandomizedRoundingDiffusion)),
    "excess-tokens/counter/random": (_seeded(ExcessTokenDiffusion),
                                     _seeded(ScalarExcessTokenDiffusion)),
    "excess-tokens/counter/round-robin": (
        _seeded(ExcessTokenDiffusion, strategy="round-robin"),
        _seeded(ScalarExcessTokenDiffusion, strategy="round-robin")),
}

#: name -> (library class, oracle class, keyword arguments)
MATCHING_PAIRS = {
    "matching-round-down": (RoundDownMatching, ScalarRoundDownMatching, {}),
    "matching-randomized/half": (RandomizedRoundingMatching,
                                 ScalarRandomizedRoundingMatching, {"probability": "half"}),
    "matching-randomized/fractional": (RandomizedRoundingMatching,
                                       ScalarRandomizedRoundingMatching,
                                       {"probability": "fractional"}),
}


def _schedules(kind, network, seed):
    """The library schedule and its oracle, each used by one process only."""
    if kind == "periodic":
        return PeriodicMatchingSchedule(network), PeriodicMatchingSchedule(network)
    return (RandomMatchingSchedule(network, seed=seed),
            ScalarRandomMatchingSchedule(network, seed=seed))


def assert_lockstep(balancer, oracle, rounds, label):
    for round_index in range(rounds):
        balancer.advance()
        oracle.advance()
        assert np.array_equal(balancer.loads(), oracle.loads()), (
            f"{label} diverged from its oracle at round {round_index}")
    assert balancer.went_negative == oracle.went_negative, label


@pytest.mark.parametrize("name", sorted(DIFFUSION_PAIRS))
@given(instance=instances())
def test_diffusion_baseline_equals_its_oracle(name, instance):
    network, loads, seed, rounds = instance
    build, build_oracle = DIFFUSION_PAIRS[name]
    assert_lockstep(build(network, loads, seed), build_oracle(network, loads, seed),
                    rounds, name)


@pytest.mark.parametrize("schedule_kind", ["periodic", "random"])
@pytest.mark.parametrize("name", sorted(MATCHING_PAIRS))
@given(instance=instances())
def test_matching_baseline_equals_its_oracle(name, schedule_kind, instance):
    network, loads, seed, rounds = instance
    cls, oracle_cls, kwargs = MATCHING_PAIRS[name]
    schedule, oracle_schedule = _schedules(schedule_kind, network, seed)
    if cls is RandomizedRoundingMatching:
        kwargs = dict(kwargs, seed=seed)
    assert_lockstep(cls(network, loads, schedule, **kwargs),
                    oracle_cls(network, loads, oracle_schedule, **kwargs),
                    rounds, f"{name}/{schedule_kind}")


@pytest.mark.parametrize("schedule_kind", ["periodic", "random"])
@given(instance=instances())
def test_dimension_exchange_equals_its_oracle(schedule_kind, instance):
    network, loads, seed, rounds = instance
    schedule, oracle_schedule = _schedules(schedule_kind, network, seed)
    process = DimensionExchange(network, loads.astype(float), schedule)
    oracle = ScalarDimensionExchange(network, loads.astype(float), oracle_schedule)
    for round_index in range(rounds):
        process.advance()
        oracle.advance()
        assert np.array_equal(process.load, oracle.load), (
            f"{schedule_kind} dimension exchange diverged at round {round_index}")


@given(network=networks(), seed=st.integers(0, 2**16))
def test_schedules_equal_their_oracles(network, seed):
    schedule = RandomMatchingSchedule(network, seed=seed)
    oracle = ScalarRandomMatchingSchedule(network, seed=seed)
    for round_index in range(8):
        ids = schedule.matching_ids(round_index)
        assert schedule.matching(round_index) == oracle.matching(round_index)
        assert np.array_equal(ids, oracle.matching_ids(round_index))
        assert ids.dtype == np.int64 and not ids.flags.writeable
        assert np.all(np.diff(ids) > 0)
    periodic = PeriodicMatchingSchedule(network)
    coloring = edge_coloring(network)
    assert periodic.matchings == coloring
    for round_index in range(2 * periodic.period):
        assert periodic.matching(round_index) == coloring[round_index % periodic.period]


#: Every oracle class: those with a library class among their bases.
ORACLES = sorted((cls for cls in vars(baseline_oracles).values()
                  if isinstance(cls, type) and cls.__module__ == baseline_oracles.__name__
                  and any(base.__module__.startswith("repro.") for base in cls.__mro__)),
                 key=lambda cls: cls.__name__)


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda cls: cls.__name__)
def test_every_oracle_method_overrides_a_library_method(oracle):
    library = [base for base in oracle.__mro__ if base.__module__.startswith("repro.")]
    defined = {name for base in oracle.__mro__ if base.__module__ == baseline_oracles.__name__
               for name, value in vars(base).items()
               if callable(value) and not name.startswith("__")}
    assert defined - baseline_oracles.ORACLE_HELPERS, f"{oracle.__name__} overrides nothing"
    orphans = sorted(name for name in defined - baseline_oracles.ORACLE_HELPERS
                     if not any(name in vars(base) for base in library))
    assert not orphans, (
        f"{oracle.__name__} defines {orphans}, which no library base class has")
