"""Backend speedup: object vs array on bench_dynamic_recovery-style streams.

A 64-node torus carries ``W`` unit tokens; periodic bursts dump ``W/10``
extra tokens on one node, forcing the streaming engine to re-couple every
few rounds.  The object backend pays O(W) per re-coupling (rebuilding one
Python task per token) and O(W) per round (queue snapshots); the array
backend pays O(n) and O(m).  Both produce bit-identical discrepancy
trajectories — the speedup is pure representation.

The measured ladder (W in {10^4, 10^5, 10^6}) is written to
``BENCH_backend.json`` at the repository root as a perf record.  The
*weighted* suite runs the same bursty stream on weighted tasks (integer
weights 1..4, columnar weight buckets vs one task object per work item) and
records ``BENCH_weighted.json``.

The *randomized* suite measures the **round kernels** themselves (setup
excluded, per-round seconds): the edge-keyed counter-RNG kernel of
Algorithm 2 (scalar counter-mode reference vs vectorised array kernel on a
4096-node torus), plus the weighted round kernel in its single-weight-class
scatter form and its mixed-class queue form — the measured reduction of the
weighted per-round Python term.  It records ``BENCH_randomized.json``.

The literature baselines (randomized rounding, excess tokens) have one
implementation for both backends, so they have no row here; the
randomized-rounding and excess-token rows in the checked-in records are
historical.  Run directly for the CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_backend_speedup.py --sizes 10000 --min-speedup 2
    PYTHONPATH=src python benchmarks/bench_backend_speedup.py --suite weighted \
        --weighted-sizes 10000 --min-speedup 2 --no-record
    PYTHONPATH=src python benchmarks/bench_backend_speedup.py --suite randomized \
        --randomized-side 16 --min-speedup 2 --no-record
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.dynamic.events import BurstyArrivals  # noqa: E402
from repro.dynamic.stream import run_stream  # noqa: E402
from repro.network import topologies  # noqa: E402
from repro.simulation.engine import make_balancer  # noqa: E402
from repro.simulation.experiments import format_table  # noqa: E402
from repro.store import write_benchmark_record  # noqa: E402
from repro.tasks.generators import uniform_random_load  # noqa: E402
from repro.tasks.weighted import (  # noqa: E402
    WeightedLoads,
    weighted_loads_from_task_counts,
)

SIZES = (10**4, 10**5, 10**6)
WEIGHTED_SIZES = (10**4, 10**5)
MAX_TASK_WEIGHT = 4
ROUNDS = 12
RANDOMIZED_SIDE = 64  # 64x64 torus = the 4096-node randomized-kernel instance
RANDOMIZED_ROUNDS = 20
SEED = 11
RECORD_PATH = REPO_ROOT / "BENCH_backend.json"
WEIGHTED_RECORD_PATH = REPO_ROOT / "BENCH_weighted.json"
RANDOMIZED_RECORD_PATH = REPO_ROOT / "BENCH_randomized.json"


def run_one(total_tokens: int, backend: str):
    """One dynamic stream: uniform load + periodic hot-spot bursts."""
    network = topologies.torus(8, dims=2)
    load = uniform_random_load(network, total_tokens, seed=SEED)
    generator = BurstyArrivals(total_tokens // 10, period=4, first_round=2, seed=SEED)
    start = time.perf_counter()
    result = run_stream("algorithm2", network, load, generator, rounds=ROUNDS,
                        seed=SEED, backend=backend)
    return time.perf_counter() - start, result


def run_ladder(sizes=SIZES):
    rows = []
    for total_tokens in sizes:
        object_seconds, object_result = run_one(total_tokens, "object")
        array_seconds, array_result = run_one(total_tokens, "array")
        rows.append({
            "W": total_tokens,
            "rounds": ROUNDS,
            "recouplings": int(object_result.extra["recouplings"]),
            "object_seconds": round(object_seconds, 4),
            "array_seconds": round(array_seconds, 4),
            "speedup": round(object_seconds / array_seconds, 1),
            "trajectories_identical": object_result.trace_max_min == array_result.trace_max_min,
        })
    return rows


def run_weighted_one(total_weight: int, backend: str):
    """One weighted dynamic stream (algorithm1, integer weights 1..4)."""
    network = topologies.torus(8, dims=2)
    # Uniform task placement whose expected total weight is ``total_weight``.
    num_tasks = int(total_weight / ((1 + MAX_TASK_WEIGHT) / 2))
    task_counts = uniform_random_load(network, num_tasks, seed=SEED)
    weighted = weighted_loads_from_task_counts(task_counts, MAX_TASK_WEIGHT,
                                               seed=SEED)
    generator = BurstyArrivals(total_weight // 10, period=4, first_round=2,
                               seed=SEED)
    start = time.perf_counter()
    result = run_stream("algorithm1", network, weighted, generator,
                        rounds=ROUNDS, seed=SEED, backend=backend)
    return time.perf_counter() - start, result


def run_weighted_ladder(sizes=WEIGHTED_SIZES):
    rows = []
    for total_weight in sizes:
        object_seconds, object_result = run_weighted_one(total_weight, "object")
        array_seconds, array_result = run_weighted_one(total_weight, "array")
        rows.append({
            "workload": f"weighted-stream w_max={MAX_TASK_WEIGHT}",
            "W": total_weight,
            "rounds": ROUNDS,
            "recouplings": int(object_result.extra["recouplings"]),
            "object_seconds": round(object_seconds, 4),
            "array_seconds": round(array_seconds, 4),
            "speedup": round(object_seconds / array_seconds, 1),
            "trajectories_identical": object_result.trace_max_min == array_result.trace_max_min,
        })
    return rows


def _timed_rounds(balancer, rounds: int) -> float:
    """Per-round seconds of the balancer's round kernel (setup excluded)."""
    start = time.perf_counter()
    for _ in range(rounds):
        balancer.advance()
    return (time.perf_counter() - start) / rounds


def run_randomized_ladder(side=RANDOMIZED_SIDE, rounds=RANDOMIZED_ROUNDS):
    """Round-kernel ladder: scalar counter references vs the array kernels.

    Each row times ``rounds`` calls of ``advance()`` on freshly coupled
    balancers (construction excluded), so the numbers isolate the per-round
    term the kernels are about: the O(W) object round vs the O(m) array round
    for Algorithm 2, and the weighted per-round Python term vs the
    single-class scatter form / mixed-class queue form.
    """
    network = topologies.torus(side, dims=2)
    n = network.num_nodes
    load = uniform_random_load(network, 32 * n, seed=SEED)
    task_counts = uniform_random_load(network, 8 * n, seed=SEED)
    single_class = WeightedLoads.from_buckets(
        [{5: int(count)} if count else {} for count in task_counts])
    mixed = weighted_loads_from_task_counts(task_counts, MAX_TASK_WEIGHT,
                                            seed=SEED)
    specs = [
        ("algorithm2 counter-rng", "algorithm2",
         {"initial_load": load, "rng_mode": "counter"}),
        ("weighted round kernel (single class w=5)", "algorithm1",
         {"weighted_load": single_class}),
        (f"weighted round kernel (mixed w<={MAX_TASK_WEIGHT})", "algorithm1",
         {"weighted_load": mixed}),
    ]
    rows = []
    for label, algorithm, spec in specs:
        per_round = {}
        finals = {}
        for backend in ("object", "array"):
            balancer = make_balancer(
                algorithm, network,
                initial_load=spec.get("initial_load"),
                weighted_load=spec.get("weighted_load"),
                seed=SEED, backend=backend,
                rng_mode=spec.get("rng_mode", "sequential"))
            per_round[backend] = _timed_rounds(balancer, rounds)
            finals[backend] = balancer.loads()
        rows.append({
            "kernel": label,
            "n": n,
            "rounds": rounds,
            "object_round_seconds": round(per_round["object"], 6),
            "array_round_seconds": round(per_round["array"], 6),
            "speedup": round(per_round["object"] / per_round["array"], 1),
            "trajectories_identical": bool(
                np.array_equal(finals["object"], finals["array"])),
        })
    return rows


def write_record(rows, store=None) -> pathlib.Path:
    return write_benchmark_record(
        "backend_speedup",
        "object vs array backend on a bursty 64-node dynamic stream",
        rows, RECORD_PATH, store=store,
        config={"sizes": [row["W"] for row in rows], "rounds": ROUNDS},
        seeds=[SEED])


def write_weighted_record(rows, store=None) -> pathlib.Path:
    return write_benchmark_record(
        "weighted_backend_speedup",
        "object vs columnar weighted backend on a bursty 64-node weighted stream",
        rows, WEIGHTED_RECORD_PATH, store=store,
        config={"workloads": [row["workload"] for row in rows],
                "rounds": ROUNDS},
        seeds=[SEED])


def write_randomized_record(rows, store=None) -> pathlib.Path:
    return write_benchmark_record(
        "randomized_kernel_speedup",
        ("per-round kernel times: the scalar counter-RNG reference "
         "vs the vectorised array kernel (algorithm2 on a torus) "
         "plus the weighted round kernel (single-class scatter "
         "form and mixed-class queue form)"),
        rows, RANDOMIZED_RECORD_PATH, store=store,
        config={"kernels": [row["kernel"] for row in rows],
                "n": rows[0]["n"] if rows else None,
                "rounds": RANDOMIZED_ROUNDS},
        seeds=[SEED])


def check(rows, min_speedup: float) -> None:
    for row in rows:
        label = row.get("kernel", f"W={row.get('W')}")
        assert row["trajectories_identical"], (
            f"{label}: backends produced different discrepancy trajectories")
        assert row["speedup"] >= min_speedup, (
            f"{label}: array backend only {row['speedup']}x faster "
            f"(required {min_speedup}x)")


def test_backend_speedup(benchmark):
    from conftest import print_table, run_once

    rows = run_once(benchmark, run_ladder)
    print_table("Object vs array backend on a bursty dynamic stream "
                "(8x8 torus, algorithm2, 12 rounds)", format_table(rows))
    record = write_record(rows)
    print(f"perf record written to {record}")
    # The tentpole claim: >= 10x on the million-token stream, exact trajectories.
    check(rows, min_speedup=2.0)
    assert rows[-1]["W"] < 10**6 or rows[-1]["speedup"] >= 10.0


def test_weighted_backend_speedup(benchmark):
    from conftest import print_table, run_once

    rows = run_once(benchmark, run_weighted_ladder)
    print_table("Object vs columnar weighted backend (8x8 torus, algorithm1, "
                "12 rounds)", format_table(rows))
    record = write_weighted_record(rows)
    print(f"perf record written to {record}")
    # The tentpole claim: >= 10x on the 10^5-weight weighted stream.
    check(rows, min_speedup=2.0)
    for row in rows:
        if row["workload"].startswith("weighted-stream") and row["W"] >= 10**5:
            assert row["speedup"] >= 10.0


def test_randomized_kernel_speedup(benchmark):
    from conftest import print_table, run_once

    rows = run_once(benchmark, run_randomized_ladder)
    print_table("Scalar counter-RNG reference vs vectorised kernels "
                "(64x64 torus, per-round seconds)", format_table(rows))
    record = write_randomized_record(rows)
    print(f"perf record written to {record}")
    # The tentpole claim: >= 5x for the randomized kernel on 4096 nodes and
    # a measured reduction of the weighted per-round Python term.
    check(rows, min_speedup=2.0)
    for row in rows:
        if "counter-rng" in row["kernel"]:
            assert row["speedup"] >= 5.0, row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", default="unit",
                        choices=["unit", "weighted", "randomized", "all"],
                        help="which ladder(s) to run")
    parser.add_argument("--sizes", nargs="+", type=int, default=list(SIZES),
                        help="unit-token counts W to benchmark")
    parser.add_argument("--weighted-sizes", nargs="+", type=int,
                        default=list(WEIGHTED_SIZES),
                        help="weighted-stream total weights W to benchmark")
    parser.add_argument("--randomized-side", type=int, default=RANDOMIZED_SIDE,
                        help="torus side for the randomized-kernel ladder "
                             "(side^2 nodes)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="fail unless the array backend is this much faster")
    parser.add_argument("--no-record", action="store_true",
                        help="skip writing the BENCH_*.json records")
    parser.add_argument("--store", type=pathlib.Path, default=None,
                        help="also append the rows to this JSONL run store")
    args = parser.parse_args(argv)
    if args.suite in ("unit", "all"):
        rows = run_ladder(args.sizes)
        print(format_table(rows))
        if not args.no_record:
            print(f"perf record written to {write_record(rows, args.store)}")
        check(rows, args.min_speedup)
    if args.suite in ("weighted", "all"):
        rows = run_weighted_ladder(args.weighted_sizes)
        print(format_table(rows))
        if not args.no_record:
            print("perf record written to "
                  f"{write_weighted_record(rows, args.store)}")
        check(rows, args.min_speedup)
    if args.suite in ("randomized", "all"):
        rows = run_randomized_ladder(args.randomized_side)
        print(format_table(rows))
        if not args.no_record:
            print("perf record written to "
                  f"{write_randomized_record(rows, args.store)}")
        check(rows, args.min_speedup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
