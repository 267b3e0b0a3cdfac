"""static-large: one big instance solved to the continuous balancing time.

A 2-D torus, half of its nodes loaded, the FOS substrate on the array
backend.  Algorithm 1 and then Algorithm 2 (counter RNG) each run until the
substrate is balanced.  Almost all of the work is ``continuous.advance`` plus
the ``flow/array-round`` kernel on the benchmark's largest instance; dynamic,
spectral, matching, object-backend and pool code are bypassed.

The input is one fixed half-nodes pattern, translated (and possibly
transposed) by the workload seed.  Translations are torus automorphisms, so
every seed loads different nodes yet has the same balancing time, which
keeps the amount of work per run independent of the seed.
"""

from __future__ import annotations

import pathlib
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.flow_imitation import FlowCoupledBalancer
from repro.network import topologies
from repro.obs.kernels import activate_kernel_clock, deactivate_kernel_clock
from repro.simulation.engine import BALANCE_TOLERANCE, make_balancer
from repro.tasks import generators
from repro.tasks.load import max_min_discrepancy

from harness import (Budget, Ledger, Spans, fastest_units, maybe_span, peak_rss_mb, tail_ms,
                     unit_metrics)

ALGORITHMS = ("algorithm1", "algorithm2")
#: Seed of the base half-nodes pattern; the workload seed only moves it.
PATTERN_SEED = 753


@dataclass(frozen=True)
class Params:
    side: int = 64
    tokens_per_loaded_node: int = 64
    setups_per_rep: int = 3
    warmup_rounds: int = 60
    min_reps: int = 3


FULL = Params()
TINY = Params(side=12, tokens_per_loaded_node=8, warmup_rounds=3)


def translate(values: np.ndarray, side: int, seed: int) -> np.ndarray:
    """Move a per-node vector of a ``side``-torus by a seed-chosen automorphism."""
    rng = np.random.default_rng(seed)
    shift = rng.integers(side, size=2)
    grid = np.roll(values.reshape(side, side), tuple(int(s) for s in shift), axis=(0, 1))
    if rng.integers(2):
        grid = grid.T
    return np.ascontiguousarray(grid).ravel()


def _balancers(network, load, seed):
    return [make_balancer(name, network, initial_load=load, continuous_kind="fos",
                          seed=seed, backend="array", rng_mode="counter")
            for name in ALGORITHMS]


def _setup(params: Params, seed: int, spans: Optional[Spans]):
    start = time.perf_counter()
    with maybe_span(spans):
        network = topologies.torus(params.side)
    built = time.perf_counter()
    base = generators.half_nodes_load(network, params.tokens_per_loaded_node, seed=PATTERN_SEED)
    load = translate(base, params.side, seed)
    made = time.perf_counter()
    with maybe_span(spans):
        balancers = _balancers(network, load, seed)
    done = time.perf_counter()
    return balancers, (done - start, built - start, done - made)


def run_to_balance(balancer: FlowCoupledBalancer, latencies: List[float]) -> None:
    """Advance until the substrate is balanced, timing each round from outside."""
    while True:
        tick = time.perf_counter()
        if balancer.continuous.is_balanced(BALANCE_TOLERANCE):
            return
        balancer.advance()
        latencies.append(time.perf_counter() - tick)


def check_run(ledger: Ledger, name: str, balancer: FlowCoupledBalancer) -> None:
    """Invariants of a finished flow-imitation run, each a counted operation."""
    real = balancer.loads(include_dummies=False)
    ledger.check(abs(float(real.sum()) - balancer.continuous.total_weight) < 1e-6,
                 f"{name}: real tokens not conserved")
    ledger.check(float(balancer.loads().min()) >= 0.0, f"{name}: negative load")
    if name == "algorithm1" and not balancer.used_infinite_source:
        network = balancer.network
        w_max = balancer.w_max
        bound = 2 * network.max_degree * w_max + 2
        ledger.check(max_min_discrepancy(balancer.loads(), network) <= bound,
                     f"{name}: Theorem 3 bound {bound} exceeded")
        ledger.check(float(np.abs(balancer.flow_errors()).max()) <= w_max + 1e-9,
                     f"{name}: Observation 4 |flow error| > w_max")


def _solve(balancers: List[FlowCoupledBalancer], ledger: Ledger,
           spans: Optional[Spans]) -> Dict[str, object]:
    """Run every balancer to the balancing time."""
    latencies: List[float] = []
    counts = []
    start = time.perf_counter()
    for name, balancer in zip(ALGORITHMS, balancers):
        with maybe_span(spans):
            try:
                run_to_balance(balancer, latencies)
            except Exception as exc:  # a failed run is a counted operation
                ledger.record(False, f"{name}: {exc!r}")
                continue
        ledger.record(True, name)
        reports = balancer.round_reports
        counts.append((name, balancer.round_index,
                       sum(report.tasks_moved for report in reports),
                       balancer.dummy_tokens_created))
    wall = time.perf_counter() - start
    for name, balancer in zip(ALGORITHMS, balancers):
        check_run(ledger, name, balancer)
    return {"wall": wall, "latencies": latencies, "counts": counts}


def run(params: Params, seed: int, seconds: float, trace: bool, ledger: Ledger,
        workdir: pathlib.Path) -> Dict[str, object]:
    # warm-up: first-touch allocations and lazy imports are not what users
    # pay per round, so let them finish before anything is timed
    balancers, _ = _setup(params, seed, None)
    for balancer in balancers:
        balancer.run(params.warmup_rounds)

    setups = []
    reps = []
    budget = Budget(seconds, minimum=params.min_reps)
    while budget.more():
        started = time.perf_counter()
        # set-up samples are spread over the run, next to the solves they feed
        for _ in range(params.setups_per_rep):
            balancers, times = _setup(params, seed, None)
            setups.append(times)
        reps.append(_solve(balancers, ledger, None))
        budget.add(time.perf_counter() - started)
        if trace:
            break
    if trace:
        spans = Spans()
        balancers, _ = _setup(params, seed, spans)
        clock = activate_kernel_clock()
        try:
            traced = _solve(balancers, ledger, spans)
        finally:
            deactivate_kernel_clock()
        reps.append(traced)
    ledger.exact("static-large counts", [rep["counts"] for rep in reps])

    rounds = sum(count[1] for count in reps[0]["counts"])
    if not trace:
        units = fastest_units([rep["latencies"] for rep in reps])
        samples = f"{len(reps)}x{rounds}"
        return {
            "metrics": {
                "setup_s": statistics.median(s[0] for s in setups),
                **unit_metrics(units),
                "peak_rss_mb": peak_rss_mb(),
            },
            "samples": {"setup_s": len(setups),
                        **dict.fromkeys(("solve_s", "rounds_per_s", "round_ms_p50"), samples)},
            "extra": {"round_ms_p99": tail_ms(units, samples)},
        }

    phases = clock.totals
    advance = phases.get("continuous/advance", 0.0)
    flow = phases.get("flow/array-round", 0.0)
    round_wall = sum(traced["latencies"])
    counts = traced["counts"]
    return {
        "metrics": {
            "network.build_s": statistics.median(s[1] for s in setups),
            "simulation.make_balancer_s": statistics.median(s[2] for s in setups),
            "continuous.advance_ms": 1e3 * advance / rounds,
            "backend.flow_round_ms": 1e3 * flow / rounds,
            "discrete.round_other_ms": 1e3 * (round_wall - advance - flow) / rounds,
            "discrete.kernel_share": (advance + flow) / round_wall,
            "continuous.rounds": rounds,
            "backend.tokens_moved": sum(count[2] for count in counts),
            "backend.dummy_tokens": sum(count[3] for count in counts),
            "obs.tracing_overhead": traced["wall"] / reps[0]["wall"] - 1.0,
            "obs.unattributed_s": spans.unattributed(),
        },
    }
