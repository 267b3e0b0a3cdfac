"""Differential test of the grid driver: serial ``run_cells`` vs a 2-worker pool.

Hypothesis draws a small mixed grid of cells, all under counter RNG: static
scenarios (a fixed horizon or "until balanced", unit or weighted
workloads), event scenarios (every event profile, including the
joins and leaves of ``churn``/``mixed``) and sweep cells (per-purpose or
legacy seeding).  The grid runs once inline (``workers=1``) and once in a
two-process pool; result for result the two must agree on ``as_dict()``,
both traces and the event timeline.  Every cell runs through the one cell
runner, so this also checks that nothing in a run depends on which process
ran it or in what order.

Each example starts a process pool, so the example count is capped below
the active hypothesis profile's (see ``tests/conftest.py``): the bounded
tier-1 count by default, at most 500 under ``--hypothesis-profile=deep``.
"""

from __future__ import annotations

import json
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dynamic.events import EVENT_PROFILES
from repro.simulation.parallel import GridCell, run_cells
from repro.simulation.scenario import Scenario
from repro.simulation.sweep import SweepConfiguration
from repro.simulation.workloads import WORKLOADS

#: (continuous kind, algorithms that run on it)
PAIRS = [(kind, algorithm)
         for kind, algorithms in (
             ("fos", ("algorithm1", "algorithm2", "round-down", "randomized-rounding",
                      "excess-tokens")),
             ("sos", ("algorithm1", "algorithm2")),
             ("periodic-matching", ("algorithm1", "matching-round-down")),
             ("random-matching", ("algorithm2", "matching-randomized")))
         for algorithm in algorithms]
TOPOLOGIES = [("cycle", 8), ("torus", 9), ("hypercube", 8), ("expander", 10)]


@st.composite
def static_cells(draw):
    kind, algorithm = draw(st.sampled_from(PAIRS))
    topology, size = draw(st.sampled_from(TOPOLOGIES))
    weight = draw(st.sampled_from([1, 3])) if algorithm == "algorithm1" else 1
    return "scenario", Scenario(
        name="static", algorithm=algorithm, topology=topology, num_nodes=size,
        tokens_per_node=draw(st.integers(0, 6)),
        workload=draw(st.sampled_from(sorted(WORKLOADS))), continuous_kind=kind,
        rounds=draw(st.one_of(st.none(), st.integers(0, 20))),
        seed=draw(st.integers(0, 99)), record_trace=True,
        backend=draw(st.sampled_from(["object", "array"])), max_task_weight=weight,
        rng_mode="counter", seeding=draw(st.sampled_from(["legacy", "per-purpose"])))


@st.composite
def event_cells(draw):
    kind, algorithm = draw(st.sampled_from(PAIRS))
    topology, size = draw(st.sampled_from(TOPOLOGIES))
    weight = draw(st.sampled_from([1, 2])) if algorithm == "algorithm1" else 1
    return "dynamic", Scenario(
        name="stream", algorithm=algorithm, topology=topology, num_nodes=size,
        tokens_per_node=draw(st.integers(1, 6)), workload="uniform",
        continuous_kind=kind, events=draw(st.sampled_from(sorted(EVENT_PROFILES))),
        rounds=draw(st.integers(0, 25)), seed=draw(st.integers(0, 99)),
        backend=draw(st.sampled_from(["object", "array"])), max_task_weight=weight,
        rng_mode="counter", seeding=draw(st.sampled_from(["legacy", "per-purpose"])))


@st.composite
def sweep_cells(draw):
    kind, algorithm = draw(st.sampled_from(PAIRS))
    topology, size = draw(st.sampled_from(TOPOLOGIES))
    configuration = SweepConfiguration(
        algorithm=algorithm, topology=topology, num_nodes=size,
        tokens_per_node=draw(st.integers(0, 6)),
        workload=draw(st.sampled_from(sorted(WORKLOADS))), continuous_kind=kind,
        rng_mode="counter")
    return "sweep", configuration, draw(st.integers(0, 99)), draw(st.booleans())


@st.composite
def grids(draw):
    drawn = draw(st.lists(st.one_of(static_cells(), event_cells(), sweep_cells()),
                          min_size=2, max_size=5))
    cells = []
    for index, (kind, spec, *sweep) in enumerate(drawn):
        if sweep:
            seed, legacy = sweep
            # a legacy-seeded sweep cell is a scenario with seeding="legacy"
            cell = GridCell(kind=kind, spec=spec, index=index, seed=seed,
                            record_trace=True)
            if legacy:
                cell = GridCell(kind=kind, index=index, spec=replace(
                    cell.scenario(), seeding="legacy"))
            cells.append(cell)
        else:
            cells.append(GridCell(kind=kind, spec=spec, index=index))
    return cells


def fingerprint(result):
    """Everything a pooled run must reproduce, as one comparable string."""
    return json.dumps({"row": result.as_dict(), "trace": result.trace_max_min,
                       "totals": result.trace_total_weight,
                       "timeline": result.event_timeline}, sort_keys=True, default=repr)


#: Always one input: two seeds of a sweep cell and two burst streams, the
#: mixed sweep + dynamic shape of a sharded experiment grid.
MIXED_GRID = [
    *(GridCell(kind="sweep", index=0, seed=seed, spec=SweepConfiguration(
        algorithm="algorithm2", topology="torus", num_nodes=16, tokens_per_node=8,
        workload="uniform", rng_mode="counter")) for seed in (1, 2)),
    *(GridCell(kind="dynamic", index=1 + offset, spec=Scenario(
        name="stream", algorithm="algorithm2", topology="torus", num_nodes=9,
        tokens_per_node=4, workload="uniform", events="burst", rounds=20, seed=seed,
        rng_mode="counter")) for offset, seed in enumerate((1, 2))),
]


@settings(max_examples=min(settings.default.max_examples, 500))
@given(grids())
@example(MIXED_GRID)
def test_pool_results_equal_serial_results(cells):
    serial = run_cells(cells, workers=1)
    pooled = run_cells(cells, workers=2)
    assert [outcome.cell for outcome in pooled] == cells
    assert [fingerprint(outcome.result) for outcome in pooled] == \
        [fingerprint(outcome.result) for outcome in serial]
    for cell, outcome in zip(cells, serial):
        assert (outcome.result.event_timeline is not None) == (cell.kind == "dynamic")
