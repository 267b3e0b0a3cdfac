"""Fault-recovery overhead: self-healing grids and checkpoint/resume.

Two recovery paths are measured against their fault-free baselines:

* **Grid self-healing** — a dynamic grid is run clean, then re-run with a
  deterministic fault campaign (in-cell exceptions on some cells, one
  worker kill) under ``max_retries``.  The recovered merge must be
  **bit-identical** to the clean one; the wall-clock ratio is the recovery
  overhead (retry work + pool rebuilds + backoff).

* **Checkpoint/resume** — a dynamic stream is checkpointed every N rounds,
  "killed" at a mid-run snapshot, and resumed to the horizon.  The resumed
  trajectory must be bit-identical to the uninterrupted run; the overhead
  row compares checkpointed-run and resume wall-clock against the plain
  stream.

Rows are written to ``BENCH_fault_recovery.json`` at the repository root.
Run directly for the CI smoke check::

    PYTHONPATH=src python benchmarks/bench_fault_recovery.py --scale smoke \
        --no-record
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.checkpoint import read_checkpoint, resume_stream  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.simulation.experiments import format_table  # noqa: E402
from repro.simulation.parallel import (  # noqa: E402
    GridCell,
    failed_cells,
    run_cells,
    timing_summary,
)
from repro.simulation.scenario import Scenario, run_scenario  # noqa: E402
from repro.store import write_benchmark_record  # noqa: E402

RECORD_PATH = REPO_ROOT / "BENCH_fault_recovery.json"

#: Scales: (grid cells, nodes, rounds, checkpoint cadence).
SCALES = {
    "full": {"cells": 8, "nodes": 256, "rounds": 200, "cadence": 25},
    "smoke": {"cells": 4, "nodes": 32, "rounds": 40, "cadence": 10},
}


def build_cells(scale: str):
    spec = SCALES[scale]
    return [
        GridCell(
            kind="dynamic",
            spec=Scenario(
                name=f"recover-{index}", algorithm="randomized-rounding",
                topology="torus", num_nodes=spec["nodes"],
                tokens_per_node=8, workload="uniform", events="mixed",
                rounds=spec["rounds"], seed=100 + index),
            index=index)
        for index in range(spec["cells"])
    ]


def fault_campaign(num_cells: int) -> FaultPlan:
    """Deterministic faults: raise in two cells, kill the worker on a third."""
    return FaultPlan(raise_at={0: 1, num_cells - 1: 2},
                     kill_at={num_cells // 2: 1})


def traces(outcomes):
    return [outcome.result.trace_max_min for outcome in outcomes
            if outcome.result is not None]


def grid_recovery_rows(scale: str, workers: int):
    cells = build_cells(scale)
    start = time.perf_counter()
    clean = run_cells(cells, workers=workers)
    clean_wall = time.perf_counter() - start

    start = time.perf_counter()
    faulty = run_cells(cells, workers=workers, max_retries=3,
                       faults=fault_campaign(len(cells)), retry_backoff=0.02)
    faulty_wall = time.perf_counter() - start

    assert traces(faulty) == traces(clean), (
        "recovered grid diverged from the fault-free grid")
    assert not failed_cells(faulty), "the fault campaign must be survivable"
    timings = timing_summary(faulty, wall_seconds=faulty_wall)
    return [{
        "path": "grid",
        "workers": workers,
        "cells": len(cells),
        "clean_seconds": round(clean_wall, 4),
        "recovered_seconds": round(faulty_wall, 4),
        "overhead_x": round(faulty_wall / clean_wall, 2),
        "retries": timings.get("retries", 0),
        "retry_seconds": timings.get("retry_seconds", 0.0),
        "identical": True,
    }]


def checkpoint_recovery_rows(scale: str, tmp_dir: pathlib.Path):
    spec = SCALES[scale]
    scenario = Scenario(
        name="recover-stream", algorithm="randomized-rounding",
        topology="torus", num_nodes=spec["nodes"], tokens_per_node=8,
        workload="uniform", events="mixed", rounds=spec["rounds"], seed=11)

    start = time.perf_counter()
    baseline = run_scenario(scenario)
    plain_wall = time.perf_counter() - start

    # checkpoint every `cadence` rounds; simulate a crash by resuming from
    # a snapshot taken mid-run rather than the final one
    mid_path = tmp_dir / "mid.checkpoint.json"
    final_path = tmp_dir / "final.checkpoint.json"
    kill_round = (spec["rounds"] // (2 * spec["cadence"])) * spec["cadence"]
    killed = Scenario(**{**scenario.to_dict(), "rounds": kill_round})
    run_scenario(killed, checkpoint_every=spec["cadence"],
                 checkpoint_path=mid_path)

    start = time.perf_counter()
    checkpointed = run_scenario(scenario, checkpoint_every=spec["cadence"],
                                checkpoint_path=final_path)
    checkpointed_wall = time.perf_counter() - start
    assert checkpointed.trace_max_min == baseline.trace_max_min, (
        "checkpointing changed the trajectory")

    checkpoint = read_checkpoint(mid_path)
    assert checkpoint.round_index == kill_round
    start = time.perf_counter()
    resumed = resume_stream(checkpoint, rounds=spec["rounds"])
    resume_wall = time.perf_counter() - start
    assert resumed.trace_max_min == baseline.trace_max_min, (
        f"resume from round {kill_round} diverged from the "
        f"uninterrupted stream")

    return [{
        "path": "checkpoint",
        "rounds": spec["rounds"],
        "cadence": spec["cadence"],
        "kill_round": kill_round,
        "plain_seconds": round(plain_wall, 4),
        "checkpointed_seconds": round(checkpointed_wall, 4),
        "checkpoint_overhead_x": round(checkpointed_wall / plain_wall, 2),
        "resume_seconds": round(resume_wall, 4),
        "identical": True,
    }]


def run_benchmark(scale: str, workers: int, tmp_dir: pathlib.Path):
    return (grid_recovery_rows(scale, workers)
            + checkpoint_recovery_rows(scale, tmp_dir))


def write_record(rows, scale: str, store=None) -> pathlib.Path:
    return write_benchmark_record(
        "fault_recovery",
        ("self-healing grid driver and checkpoint/resume: recovery "
         "overhead vs fault-free baselines, with bit-identity asserted "
         "for both paths"),
        rows, RECORD_PATH, store=store,
        config={"scale": scale},
        seeds=[11] + [100 + index for index in
                      range(SCALES[scale]["cells"])])


def format_rows(rows) -> str:
    """The two paths carry different columns; render one table per path."""
    tables = []
    for path in ("grid", "checkpoint"):
        group = [row for row in rows if row["path"] == path]
        if group:
            tables.append(format_table(group))
    return "\n\n".join(tables)


def test_fault_recovery(benchmark, tmp_path):
    from conftest import print_table, run_once

    rows = run_once(benchmark, lambda: run_benchmark("full", 2, tmp_path))
    print_table("Fault recovery overhead (grid self-healing + "
                "checkpoint/resume)", format_rows(rows))
    record = write_record(rows, "full")
    print(f"perf record written to {record}")


def main(argv=None) -> int:
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="full", choices=sorted(SCALES),
                        help="'full' (the recorded curve) or the CI 'smoke' "
                             "mini-run")
    parser.add_argument("--workers", type=int, default=2,
                        help="pool size for the grid-recovery measurement")
    parser.add_argument("--no-record", action="store_true",
                        help="skip writing BENCH_fault_recovery.json")
    parser.add_argument("--store", type=pathlib.Path, default=None,
                        help="also append the rows to this JSONL run store")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        rows = run_benchmark(args.scale, args.workers, pathlib.Path(tmp))
    print(format_rows(rows))
    if not args.no_record:
        record = write_record(rows, args.scale, store=args.store)
        print(f"perf record written to {record}")
    print("recovered grid and resumed stream both bit-identical to their "
          "fault-free baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
