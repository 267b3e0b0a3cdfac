"""Speed floors: the array backend must stay well ahead of the object backend.

Three fixed instances run on both backends with the same seed:

* a bursty unit-token stream: an 8x8 torus carrying ``W = 10^4`` tokens
  under Algorithm 2, with a burst of ``W/10`` tokens on one node every
  fourth round, for 12 rounds.  The object backend pays O(W) per
  re-coupling (one Python task per token), the array backend O(n);
* the same stream on weighted tasks (``w <= 4``, total weight about
  ``10^4``) under Algorithm 1;
* the round kernels on a 32x32 torus, 20 rounds each with construction
  excluded: Algorithm 2's counter-RNG round, and Algorithm 1's weighted
  round with one weight class (``w = 5``) and with mixed classes
  (``w <= 4``).

Each side is timed as the best of three runs.  Both backends must produce
the same trajectory, and the array backend must be at least the row's
floor times faster: 2x for the streams, 1.5x for each kernel.  The floors
sit far below the measured ratios (tens of times on two cores), so they
catch a lost fast path rather than noise.  The end-to-end performance
record is ``perfbench/`` (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.dynamic.events import BurstyArrivals
from repro.dynamic.stream import run_stream
from repro.network import topologies
from repro.simulation.engine import make_balancer
from repro.tasks.generators import uniform_random_load
from repro.tasks.weighted import WeightedLoads, weighted_loads_from_task_counts

SEED = 11
REPEATS = 3
STREAM_TOKENS = 10**4
STREAM_ROUNDS = 12
KERNEL_SIDE = 32
KERNEL_ROUNDS = 20
MAX_TASK_WEIGHT = 4


def stream(algorithm, weighted):
    """``run(backend) -> (seconds, discrepancy trace)`` of one bursty stream."""
    def run(backend):
        network = topologies.torus(8, dims=2)
        if weighted:
            # uniform task placement whose expected total weight is STREAM_TOKENS
            tasks = int(STREAM_TOKENS / ((1 + MAX_TASK_WEIGHT) / 2))
            counts = uniform_random_load(network, tasks, seed=SEED)
            load = weighted_loads_from_task_counts(counts, MAX_TASK_WEIGHT, seed=SEED)
        else:
            load = uniform_random_load(network, STREAM_TOKENS, seed=SEED)
        generator = BurstyArrivals(STREAM_TOKENS // 10, period=4, first_round=2, seed=SEED)
        start = time.perf_counter()
        result = run_stream(algorithm, network, load, generator, rounds=STREAM_ROUNDS,
                            seed=SEED, backend=backend)
        return time.perf_counter() - start, result.trace_max_min
    return run


def kernel(algorithm, load_kind):
    """``run(backend) -> (seconds, final loads)`` of ``KERNEL_ROUNDS`` rounds."""
    def run(backend):
        network = topologies.torus(KERNEL_SIDE, dims=2)
        n = network.num_nodes
        loads = {}
        if load_kind == "unit":
            loads["initial_load"] = uniform_random_load(network, 32 * n, seed=SEED)
        else:
            counts = uniform_random_load(network, 8 * n, seed=SEED)
            loads["weighted_load"] = (
                WeightedLoads.from_buckets([{5: int(count)} if count else {}
                                            for count in counts])
                if load_kind == "single-class" else
                weighted_loads_from_task_counts(counts, MAX_TASK_WEIGHT, seed=SEED))
        balancer = make_balancer(algorithm, network, seed=SEED, backend=backend, **loads)
        start = time.perf_counter()
        for _ in range(KERNEL_ROUNDS):
            balancer.advance()
        return time.perf_counter() - start, balancer.loads()
    return run


#: row id -> (run, minimum object/array time ratio)
ROWS = {
    "unit-stream": (stream("algorithm2", weighted=False), 2.0),
    "weighted-stream": (stream("algorithm1", weighted=True), 2.0),
    "algorithm2-counter-rng-kernel": (kernel("algorithm2", "unit"), 1.5),
    "weighted-single-class-kernel": (kernel("algorithm1", "single-class"), 1.5),
    "weighted-mixed-class-kernel": (kernel("algorithm1", "mixed-class"), 1.5),
}


@pytest.mark.parametrize("row", list(ROWS))
def test_array_backend_meets_speed_floor(row):
    run, floor = ROWS[row]
    seconds = {"object": [], "array": []}
    trajectories = {}
    for _ in range(REPEATS):
        for backend in seconds:
            elapsed, trajectories[backend] = run(backend)
            seconds[backend].append(elapsed)
    assert np.array_equal(trajectories["object"], trajectories["array"]), (
        f"{row}: the backends produced different trajectories")
    speedup = min(seconds["object"]) / min(seconds["array"])
    assert speedup >= floor, (
        f"{row}: array backend only {speedup:.2f}x faster than the object "
        f"backend (floor {floor}x; best of {REPEATS}: "
        f"{min(seconds['object']):.4f} s vs {min(seconds['array']):.4f} s)")
