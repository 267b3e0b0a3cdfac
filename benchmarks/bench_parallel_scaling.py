"""Parallel-driver scaling: sharded grids vs the serial path.

A mixed grid of (cell, seed) runs — multi-seed sweep cells (algorithm2 on a
4096-node torus) and dynamic burst streams (algorithm2 on a 1024-node torus,
400 rounds) — is executed serially and sharded across process pools of 2 and
4 workers.  Because every run is a pure function of its picklable spec (per-
purpose seed derivation + the order-free counter RNG), the sharded merges
must be **bit-identical** to the serial results at every worker count; the
wall-clock ratio is the scaling curve.

The measured curve (plus per-cell timings and the machine's core count) is
written to ``BENCH_parallel.json`` at the repository root as a perf record.
The speedup floor is only asserted when the machine actually exposes enough
cores for the largest pool — a 4-worker pool on a 1-core container shards
correctly but cannot be faster.  Run directly for the CI smoke check::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --scale smoke \
        --workers-list 1 2 --no-record
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.simulation.experiments import format_table  # noqa: E402
from repro.simulation.parallel import (  # noqa: E402
    GridCell,
    run_cells,
    sweep_cells,
    timing_summary,
)
from repro.simulation.scenario import Scenario, expand_seeds  # noqa: E402
from repro.simulation.sweep import SweepConfiguration  # noqa: E402
from repro.store import write_benchmark_record  # noqa: E402

WORKERS_LIST = (1, 2, 4)
SEEDS = (1, 2, 3, 4)
SMOKE_SEEDS = (1, 2)
MIN_SPEEDUP = 2.5
RECORD_PATH = REPO_ROOT / "BENCH_parallel.json"

#: Grid scales: (sweep nodes, dynamic nodes, dynamic rounds, seeds).
SCALES = {
    "full": {"sweep_nodes": 4096, "dynamic_nodes": 1024, "dynamic_rounds": 400,
             "seeds": SEEDS},
    "smoke": {"sweep_nodes": 256, "dynamic_nodes": 64, "dynamic_rounds": 80,
              "seeds": SMOKE_SEEDS},
}


def available_cores() -> int:
    """Cores this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def build_grid(scale: str = "full"):
    """The benchmark grid: sweep cells + dynamic cells, one cell per seed."""
    spec = SCALES[scale]
    seeds = list(spec["seeds"])
    configuration = SweepConfiguration(
        algorithm="algorithm2", topology="torus", num_nodes=spec["sweep_nodes"],
        tokens_per_node=32, workload="uniform")
    cells = sweep_cells([configuration], seeds)
    base = Scenario(
        name="bench-parallel", algorithm="algorithm2", topology="torus",
        num_nodes=spec["dynamic_nodes"], tokens_per_node=16, workload="uniform",
        events="burst", rounds=spec["dynamic_rounds"])
    cells += [GridCell(kind="dynamic", spec=scenario, index=len(seeds) + offset)
              for offset, scenario in enumerate(expand_seeds(base, seeds))]
    return cells


def fingerprint(result):
    """Everything a merge must preserve bit-for-bit."""
    return (result.algorithm, result.rounds, result.final_max_min,
            result.final_max_avg, result.dummy_tokens, result.trace_max_min,
            result.trace_total_weight, result.event_timeline)


def run_curve(workers_list=WORKERS_LIST, scale: str = "full"):
    """Execute the grid at each worker count; return (rows, per-cell rows)."""
    workers_list = list(workers_list)
    if not workers_list or workers_list[0] != 1:
        raise ValueError("--workers-list must start with 1: the first entry is "
                         "the serial reference every speedup is measured against")
    cells = build_grid(scale)
    rows = []
    reference = None
    serial_seconds = None
    cell_rows = []
    for workers in workers_list:
        start = time.perf_counter()
        outcomes = run_cells(cells, workers=workers)
        wall = time.perf_counter() - start
        prints = [fingerprint(outcome.result) for outcome in outcomes]
        if reference is None:
            reference = prints
            serial_seconds = wall
            cell_rows = [{
                "cell": f"{outcome.cell.kind}:"
                        f"{getattr(outcome.cell.spec, 'topology', '?')}"
                        f"-n{getattr(outcome.cell.spec, 'num_nodes', '?')}",
                "seed": (outcome.cell.seed if outcome.cell.seed is not None
                         else getattr(outcome.cell.spec, "seed", None)),
                "seconds": round(outcome.seconds, 4),
            } for outcome in outcomes]
        timings = timing_summary(outcomes, wall_seconds=wall)
        rows.append({
            "workers": workers,
            "cells": len(cells),
            "wall_seconds": timings["wall_seconds"],
            "speedup": round(serial_seconds / wall, 2),
            "efficiency": round(serial_seconds / wall / workers, 2),
            "busy_seconds": timings["busy_seconds"],
            "utilization": timings["utilization"],
            "pool_processes": timings["workers_used"],
            "identical_to_serial": prints == reference,
        })
    return rows, cell_rows


def write_record(rows, cell_rows, scale: str, store=None) -> pathlib.Path:
    return write_benchmark_record(
        "parallel_scaling",
        ("sharded process-pool grid driver vs the serial path: "
         "mixed sweep + dynamic (cell, seed) grid, bit-identical "
         "merges, wall-clock scaling curve"),
        rows, RECORD_PATH, store=store,
        config={"scale": scale, "workers": [row["workers"] for row in rows]},
        seeds=list(SCALES[scale]["seeds"]),
        extra={"cpus": available_cores(), "scale": scale,
               "cell_seconds": cell_rows})


def check(rows, min_speedup: float = MIN_SPEEDUP,
          require_speedup: bool = None) -> None:
    """Identity always; the speedup floor only where the hardware allows it.

    The ``min_speedup`` floor is calibrated for the 4-worker pool of the
    full curve, so by default it is only enforced when the largest measured
    pool has at least 4 workers *and* the machine exposes that many cores —
    a 2-worker smoke run or a small container shards correctly but cannot
    meet a 2.5x floor.  ``require_speedup=True`` forces the check anyway.
    """
    for row in rows:
        assert row["identical_to_serial"], (
            f"workers={row['workers']}: sharded merge diverged from the serial "
            f"path")
    top = max(rows, key=lambda row: row["workers"])
    if require_speedup is None:
        require_speedup = top["workers"] >= 4 and available_cores() >= top["workers"]
    if require_speedup and top["workers"] >= 2:
        assert top["speedup"] >= min_speedup, (
            f"workers={top['workers']}: only {top['speedup']}x vs serial "
            f"(required {min_speedup}x on {available_cores()} cores)")


def test_parallel_scaling(benchmark):
    from conftest import print_table, run_once

    rows, cell_rows = run_once(benchmark, run_curve)
    print_table("Sharded grid driver scaling (8-cell sweep+dynamic grid, "
                "counter RNG)", format_table(rows))
    record = write_record(rows, cell_rows, "full")
    print(f"perf record written to {record}")
    check(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="full", choices=sorted(SCALES),
                        help="grid size: 'full' (the recorded curve) or the "
                             "CI 'smoke' mini-grid")
    parser.add_argument("--workers-list", nargs="+", type=int,
                        default=list(WORKERS_LIST),
                        help="pool sizes to measure (first should be 1: the "
                             "serial reference)")
    parser.add_argument("--min-speedup", type=float, default=MIN_SPEEDUP,
                        help="wall-clock floor for the largest pool")
    parser.add_argument("--require-speedup", action="store_true",
                        help="assert the floor even if the machine exposes "
                             "fewer cores than the largest pool")
    parser.add_argument("--no-record", action="store_true",
                        help="skip writing BENCH_parallel.json")
    parser.add_argument("--store", type=pathlib.Path, default=None,
                        help="also append the rows to this JSONL run store")
    args = parser.parse_args(argv)
    rows, cell_rows = run_curve(args.workers_list, scale=args.scale)
    print(format_table(rows))
    print(f"available cores: {available_cores()}")
    if not args.no_record:
        record = write_record(rows, cell_rows, args.scale, store=args.store)
        print(f"perf record written to {record}")
    check(rows, args.min_speedup,
          require_speedup=True if args.require_speedup else None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
