"""grid-paper: a Tables 1/2-style comparison grid through ``run_cells``.

Torus, hypercube and expander at n~512.  Each substrate runs with its
algorithms and baselines: fos with algorithm1/2, round-down and
randomized-rounding; sos with algorithm1/2; periodic-matching with
algorithm1 and matching-round-down; random-matching with algorithm2 and
matching-randomized.  Every cell runs with seeds 1 and 2, a half-nodes load
and counter RNG, to the balancing time.  Two object-backend scenario cells
(weighted algorithm1, task weights up to 4, on a 16x16 torus) join them.  Many small problems:
per-cell setup (topology builds, the dense SOS eigendecomposition, edge
colouring), per-round matching generation, the baselines, the object
backend and the process pool do the work here.
"""

from __future__ import annotations

import pathlib
import statistics
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ReproError
from repro.network import topologies
from repro.obs.bus import MetricsBus
from repro.simulation.engine import make_balancer, make_schedule
from repro.simulation.parallel import GridCell, run_cells, timing_summary
from repro.simulation.scenario import Scenario
from repro.simulation.seeding import purpose_seeds
from repro.simulation.sweep import SweepConfiguration
from repro.simulation.workloads import WORKLOADS

from harness import Budget, Ledger, fastest_units, nproc, peak_rss_mb, tail_ms
from static_large import check_run, run_to_balance

#: substrate -> (algorithms, baselines) of one topology's row of the grid
SUBSTRATES = {
    "fos": ("algorithm1", "algorithm2", "round-down", "randomized-rounding"),
    "sos": ("algorithm1", "algorithm2"),
    "periodic-matching": ("algorithm1", "matching-round-down"),
    "random-matching": ("algorithm2", "matching-randomized"),
}
BASELINES = {"round-down", "randomized-rounding", "matching-round-down",
             "matching-randomized"}
BUSY_KINDS = ("fos", "sos", "periodic-matching", "random-matching", "object")


@dataclass(frozen=True)
class Params:
    num_nodes: int = 256
    #: the object backend's per-round edge lookup is quadratic in the edge
    #: count, so its cells run on a smaller torus
    object_nodes: int = 144
    topologies: Tuple[str, ...] = ("torus", "hypercube", "expander")
    tokens_per_node: int = 32
    max_task_weight: int = 4
    workers: int = 2
    setups_per_rep: int = 2
    min_reps: int = 3


FULL = Params()
TINY = Params(num_nodes=16, object_nodes=9, tokens_per_node=4, setups_per_rep=1)

#: Every grid cell runs with these two seeds, whatever the workload seed, so
#: the pool's work (balancing times, chunk composition) is the same on every
#: run.  The workload seed picks the set-up instances checked in process.
CELL_SEEDS = (1, 2)


def make_cells(params: Params) -> List[GridCell]:
    # the slow object cells go first so the pool does not end on them
    cells = [GridCell(kind="scenario", spec=_weighted(params, cell_seed), index=0)
             for cell_seed in CELL_SEEDS]
    configurations = [
        SweepConfiguration(algorithm=algorithm, topology=topology,
                           num_nodes=params.num_nodes, tokens_per_node=params.tokens_per_node,
                           workload="half-nodes", continuous_kind=kind, rng_mode="counter")
        for topology in params.topologies
        for kind, algorithms in SUBSTRATES.items()
        for algorithm in algorithms]
    cells += [GridCell(kind="sweep", spec=spec, index=index, seed=cell_seed)
              for index, spec in enumerate(configurations, start=1) for cell_seed in CELL_SEEDS]
    return cells


def _weighted(params: Params, cell_seed: int) -> Scenario:
    return Scenario(name=f"weighted-object-{cell_seed}", algorithm="algorithm1",
                    topology="torus", num_nodes=params.object_nodes,
                    tokens_per_node=params.tokens_per_node, workload="half-nodes",
                    backend="object", max_task_weight=params.max_task_weight,
                    rng_mode="counter", seed=cell_seed, seeding="per-purpose")


def busy_kind(cell: GridCell) -> str:
    return "object" if cell.kind == "scenario" else cell.spec.continuous_kind


def _setup(params: Params, seed: int):
    """Build one representative cell per (topology, substrate), in process.

    Returns the (algorithm, balancer) pairs and the (total, network builds,
    balancer constructions) seconds.
    """
    seeds = purpose_seeds(seed)
    network_s = balancer_s = 0.0
    balancers = []
    start = time.perf_counter()
    for topology in params.topologies:
        tick = time.perf_counter()
        network = topologies.named_topology(topology, params.num_nodes, seed=seeds.topology)
        network_s += time.perf_counter() - tick
        load = WORKLOADS["half-nodes"](network, params.tokens_per_node, seeds.workload)
        for kind, algorithms in SUBSTRATES.items():
            tick = time.perf_counter()
            schedule = make_schedule(kind, network, seed=seeds.schedule)
            balancers.append((algorithms[0], make_balancer(
                algorithms[0], network, initial_load=load, continuous_kind=kind,
                schedule=schedule, seed=seeds.algorithm, rng_mode="counter")))
            balancer_s += time.perf_counter() - tick
    scenario = _weighted(params, seed)
    tick = time.perf_counter()
    network = scenario.build_network()
    network_s += time.perf_counter() - tick
    tick = time.perf_counter()
    balancers.append(("algorithm1", make_balancer(
        "algorithm1", network, weighted_load=scenario.build_weighted_load(network),
        backend="object", rng_mode="counter")))
    balancer_s += time.perf_counter() - tick
    return balancers, (time.perf_counter() - start, network_s, balancer_s)


def _check_setup_balancers(ledger: Ledger, balancers) -> None:
    """Run the in-process set-up balancers to balance and check their invariants.

    Pool cells report a summary, not their loads or flow errors, so real-token
    conservation and Observation 4 are checked on these representatives of
    each (topology, substrate) row and of the object cells.
    """
    for name, balancer in balancers:
        try:
            run_to_balance(balancer, [])
        except Exception as exc:  # a failed run is a counted operation
            ledger.record(False, f"set-up {name}: {exc!r}")
            continue
        ledger.record(True, f"set-up {name}")
        check_run(ledger, name, balancer)


class RoundCollector:
    """Bus subscriber summing the relayed per-round telemetry per cell."""

    def __init__(self) -> None:
        self.cells: Dict[int, Dict[str, float]] = {}

    def __call__(self, event) -> None:
        if event.kind != "round":
            return
        payload = event.payload
        cell = self.cells.setdefault(payload["cell"], {"rounds": 0, "round_s": 0.0,
                                                       "tokens_moved": 0})
        cell["rounds"] += 1
        cell["round_s"] += payload["kernel_seconds"]
        cell["tokens_moved"] += payload.get("tasks_moved", 0)
        for phase, seconds in payload.get("kernel_phases", {}).items():
            cell[phase] = cell.get(phase, 0.0) + seconds


def _check_cells(ledger: Ledger, outcomes) -> None:
    for outcome in outcomes:
        result = outcome.result
        if not ledger.check(result is not None, f"cell {outcome.cell.index} returned no result"):
            continue
        if result.algorithm == "algorithm1" and not result.used_infinite_source:
            bound = 2 * result.max_degree * result.max_task_weight + 2
            ledger.check(result.final_max_min <= bound,
                         f"cell {outcome.cell.index}: Theorem 3 bound {bound} exceeded")
        ledger.check(not result.went_negative, f"cell {outcome.cell.index}: negative load")


def _grid(params: Params, cells: List[GridCell], ledger: Ledger,
          bus: Optional[MetricsBus]) -> Dict[str, object]:
    start = time.perf_counter()
    try:
        outcomes = run_cells(cells, workers=params.workers, bus=bus)
    except (ReproError, OSError, RuntimeError) as exc:
        ledger.record(False, f"grid: {exc!r}")
        for cell in cells:
            ledger.record(False, f"cell {cell.index}: grid aborted")
        return {}
    wall = time.perf_counter() - start
    ledger.record(True, "grid")
    _check_cells(ledger, outcomes)
    counts = [(o.result.rounds, o.result.final_max_min, o.result.dummy_tokens)
              for o in outcomes if o.result is not None]
    return {"wall": wall, "outcomes": outcomes, "counts": counts}


def run(params: Params, seed: int, seconds: float, trace: bool, ledger: Ledger,
        workdir: pathlib.Path) -> Dict[str, object]:
    params = replace(params, workers=min(params.workers, nproc()))
    cells = make_cells(params)
    setups = []
    reps = []
    collector = None
    # set-up samples are spread over the run, next to the grids they precede
    budget = Budget(seconds, minimum=params.min_reps)
    while budget.more():
        started = time.perf_counter()
        for _ in range(params.setups_per_rep):
            balancers, times = _setup(params, seed)
            setups.append(times)
        rep = _grid(params, cells, ledger, None)
        if not rep:
            break
        budget.add(time.perf_counter() - started)
        reps.append(rep)
        if trace:
            break
    _check_setup_balancers(ledger, balancers)
    if trace:
        bus = MetricsBus()
        collector = RoundCollector()
        bus.subscribe(collector)
        reps.append(_grid(params, cells, ledger, bus))
    reps = [rep for rep in reps if rep]
    ledger.exact("grid-paper counts", [rep["counts"] for rep in reps])
    if not reps:
        return {"metrics": {}}

    def rounds_of(rep) -> int:
        return sum(o.result.rounds for o in rep["outcomes"] if o.result is not None)

    if not trace:
        walls = [rep["wall"] for rep in reps]
        # per cell: its fastest repetition's seconds per round (set-up
        # included); every round of a cell counts once, at that time
        fastest = fastest_units([[o.seconds / max(1, o.result.rounds) for o in rep["outcomes"]
                                  if o.result is not None] for rep in reps])
        cells_done = len(fastest)
        rounds = [o.result.rounds for o in reps[0]["outcomes"] if o.result is not None]
        per_round = np.repeat(fastest, rounds[:cells_done])
        samples = f"{len(walls)}x{cells_done} cells"
        return {
            "metrics": {
                "setup_s": statistics.median(s[0] for s in setups),
                "solve_s": min(walls),
                "rounds_per_s": rounds_of(reps[0]) / min(walls),
                "round_ms_p50": 1e3 * float(np.quantile(per_round, 0.5)),
                "peak_rss_mb": peak_rss_mb(children=True),
            },
            "samples": {"setup_s": len(setups), "solve_s": len(walls),
                        "rounds_per_s": len(walls), "round_ms_p50": samples},
            "extra": {"round_ms_p99": tail_ms(per_round, samples),
                      "cells_per_s": (cells_done / min(walls), "1/s", len(walls))},
        }

    untraced, traced = reps[0], reps[-1]
    outcomes = traced["outcomes"]
    summary = timing_summary(outcomes, wall_seconds=traced["wall"])
    busy = {kind: 0.0 for kind in BUSY_KINDS}
    for outcome in outcomes:
        if outcome.result is not None:
            busy[busy_kind(outcome.cell)] += outcome.seconds
    phase = {"continuous": 0.0, "flow-array": 0.0, "flow-object": 0.0, "baseline": 0.0}
    flow_rounds = flow_round_s = tokens_moved = 0
    for position, cell in collector.cells.items():
        tokens_moved += cell["tokens_moved"]
        algorithm = cells[position].spec.algorithm
        if algorithm in BASELINES:
            phase["baseline"] += cell["round_s"]
            continue
        flow_rounds += cell["rounds"]
        flow_round_s += cell["round_s"]
        phase["continuous"] += cell.get("continuous/advance", 0.0)
        phase["flow-array"] += cell.get("flow/array-round", 0.0)
        phase["flow-object"] += cell.get("flow/object-round", 0.0)
    kernels = phase["continuous"] + phase["flow-array"] + phase["flow-object"]
    busy_total = float(summary["busy_seconds"])
    seconds = [o.seconds for o in outcomes if o.result is not None]
    return {
        "metrics": {
            "network.build_s": statistics.median(s[1] for s in setups),
            "simulation.make_balancer_s": statistics.median(s[2] for s in setups),
            "continuous.advance_ms": 1e3 * phase["continuous"] / max(1, flow_rounds),
            "backend.flow_round_ms": 1e3 * (phase["flow-array"] + phase["flow-object"])
            / max(1, flow_rounds),
            "discrete.round_other_ms": 1e3 * (flow_round_s - kernels) / max(1, flow_rounds),
            "discrete.kernel_share": kernels / flow_round_s if flow_round_s else 0.0,
            "continuous.rounds": rounds_of(traced),
            "backend.tokens_moved": tokens_moved,
            "backend.dummy_tokens": sum(o.result.dummy_tokens for o in outcomes
                                        if o.result is not None),
            "parallel.utilization": summary["utilization"],
            "parallel.dispatch_s": traced["wall"] - busy_total / max(1, summary["workers_used"]),
            "parallel.cell_s_p50": float(np.quantile(seconds, 0.5)),
            "parallel.cell_s_p90": float(np.quantile(seconds, 0.9)),
            **{f"parallel.busy_s.{kind}": value for kind, value in busy.items()},
            **{f"grid.phase_s.{name}": value for name, value in phase.items()},
            "parallel.cell_other_s": busy_total - kernels - phase["baseline"],
            "parallel.retries": summary.get("retries", 0),
            "parallel.failed_cells": summary.get("failed_cells", 0),
            "obs.tracing_overhead": traced["wall"] / untraced["wall"] - 1.0,
            "obs.unattributed_s": busy_total - sum(
                cell["round_s"] for cell in collector.cells.values()),
        },
    }
