"""The paper's claims, evaluated on fixed instances: the reproduction record.

Every entry of :data:`REGISTRY` runs one experiment on a fixed instance
(graph, workload, seed, rounds) and returns its experiment rows plus its
*claim rows*.  A claim row compares one measured quantity with the bound
the paper (or the experiment's shape check) puts on it::

    {"claim", "instance", "measured", "bound",
     "margin": measured / bound (None when the bound is 0),
     "holds": measured <= bound + 1e-9}

An ordering or lower-bound claim is written the same way, with the side
that must be smaller as ``measured``: "round-down is no better than
Algorithm 1" is ``measured`` = Algorithm 1's discrepancy, ``bound`` =
round-down's.  A strict ``a > b`` between integer-valued quantities is
written ``measured = b + 1``, ``bound = a`` (:func:`exceeds`).

``repro claims`` prints every entry's rows and claims and exits 1 when a
claim fails; ``repro claims --json`` writes the record checked in as
``CLAIMS.json``, with floats rounded to 6 decimals.  Every instance fixes
its seeds, so the record is reproducible bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.potential import estimate_drop_factor, track_potential
from ..continuous.fos import FirstOrderDiffusion
from ..core.algorithm1 import DeterministicFlowImitation, theorem3_discrepancy_bound
from ..core.algorithm2 import theorem8_max_avg_bound, theorem8_required_base_load
from ..core.flow_imitation import TaskSelectionPolicy
from ..discrete.baselines.diffusion import RoundDownDiffusion
from ..discrete.baselines.random_walk import TwoPhaseRandomWalkBalancer
from ..dynamic.events import BurstyArrivals
from ..dynamic.metrics import recovery_report, summarize_dynamic
from ..dynamic.stream import run_stream
from ..exceptions import ExperimentError
from ..network import topologies
from ..network.spectral import (
    AlphaScheme,
    compute_alphas,
    diffusion_matrix,
    second_largest_eigenvalue,
)
from ..tasks.assignment import TaskAssignment
from ..tasks.generators import (
    balanced_load,
    point_load,
    uniform_random_load,
    weighted_assignment,
)
from ..tasks.load import max_avg_discrepancy, max_min_discrepancy
from .engine import compare_algorithms, determine_balancing_time, run_algorithm
from .experiments import (
    DEFAULT_TABLE1_ALGORITHMS,
    DEFAULT_TABLE2_ALGORITHMS,
    _result_row,
    continuous_convergence_rows,
    convergence_trace_rows,
    format_table,
    initial_load_condition_rows,
    scaling_in_n_rows,
    table1_graph_families,
    table1_rows,
    table2_rows,
    theorem3_rows,
    theorem8_rows,
)
from .locality import summarize_displacements
from .sweep import SweepConfiguration, run_sweep

__all__ = [
    "REGISTRY",
    "ClaimEntry",
    "claim",
    "exceeds",
    "evaluate_claims",
    "failed_claims",
    "format_claims",
    "record_json",
]

Row = Dict[str, Any]

#: Slack of every ``measured <= bound`` comparison.
TOLERANCE = 1e-9

#: Decimal places of every float in the record (stable across Python versions).
DECIMALS = 6


def claim(name: str, instance: str, measured: float, bound: float) -> Row:
    """One claim row: ``measured <= bound``, with its margin."""
    measured, bound = float(measured), float(bound)
    return {
        "claim": name,
        "instance": instance,
        "measured": measured,
        "bound": bound,
        "margin": measured / bound if bound != 0 else None,
        "holds": measured <= bound + TOLERANCE,
    }


def exceeds(name: str, instance: str, value: float, floor: float) -> Row:
    """The strict claim ``value > floor`` on integers, as ``floor + 1 <= value``."""
    if not (float(value).is_integer() and float(floor).is_integer()):
        raise ExperimentError(f"{name}: a strict claim needs integer values, "
                              f"got {value!r} and {floor!r}")
    return claim(name, instance, float(floor) + 1.0, value)


@dataclass(frozen=True)
class ClaimEntry:
    """One experiment of the record: a stable id, a title and its evaluation."""

    id: str
    title: str
    evaluate: Callable[[], Tuple[List[Row], List[Row]]]


#: Every entry of the record, by id, in evaluation order.
REGISTRY: Dict[str, ClaimEntry] = {}


def _entry(entry_id: str, title: str):
    def register(evaluate: Callable[[], Tuple[List[Row], List[Row]]]):
        REGISTRY[entry_id] = ClaimEntry(entry_id, title, evaluate)
        return evaluate
    return register


def _select(rows: Iterable[Row], columns: Sequence[str]) -> List[Row]:
    return [{column: row[column] for column in columns} for row in rows]


def _by_graph(rows: Iterable[Row]) -> Dict[str, Dict[str, Row]]:
    grouped: Dict[str, Dict[str, Row]] = {}
    for row in rows:
        grouped.setdefault(row["graph"], {})[row["algorithm"]] = row
    return grouped


def _algorithm1_bound(instance: str, degree: int, max_min: float) -> Row:
    return claim("algorithm1 max-min <= 2d+2", instance, max_min,
                 theorem3_discrepancy_bound(degree, 1.0))


def _algorithm2_shape(instance: str, degree: int, n: int, max_min: float) -> Row:
    return claim("algorithm2 max-min <= 2(d/4 + 3 sqrt(d ln n))", instance, max_min,
                 2 * theorem8_max_avg_bound(degree, n, constant=3.0))


def _flow_imitation_claims(rows: Iterable[Row], suffix: str = "") -> List[Row]:
    """Theorem 3's bound and Theorem 8's shape for every graph of a table."""
    claims: List[Row] = []
    for graph, results in _by_graph(rows).items():
        degree, n = results["algorithm1"]["degree"], results["algorithm1"]["n"]
        instance = f"{graph}{suffix}"
        claims.append(_algorithm1_bound(instance, degree, results["algorithm1"]["max_min"]))
        claims.append(_algorithm2_shape(instance, degree, n, results["algorithm2"]["max_min"]))
    return claims


def _unused_source(instance: str, used: bool) -> Row:
    return claim("infinite source unused (1 = used)", instance, int(used), 0)


# ---------------------------------------------------------------------- #
# Tables 1 and 2
# ---------------------------------------------------------------------- #

_TABLE_COLUMNS = ("graph", "n", "degree", "algorithm", "rounds", "max_min", "max_avg")


@_entry("table1", "Table 1: diffusion processes per graph class "
                  "(point load, 32 tokens/node, FOS horizon T, seed 7)")
def _table1():
    rows = table1_rows(algorithms=DEFAULT_TABLE1_ALGORITHMS, tokens_per_node=32, seed=7)
    claims = _flow_imitation_claims(rows)
    by_graph = _by_graph(rows)
    torus = by_graph["torus (2d)"]
    claims.append(claim("algorithm1 <= round-down (max-min)", "torus (2d)",
                        torus["algorithm1"]["max_min"], torus["round-down"]["max_min"]))
    claims.append(claim("worst algorithm1 <= worst round-down (max-min)", "all four classes",
                        max(r["algorithm1"]["max_min"] for r in by_graph.values()),
                        max(r["round-down"]["max_min"] for r in by_graph.values())))
    return rows, claims


@_entry("table1-classes", "Table 1 classes at n ~ 32: round-down, Algorithms 1 and 2 "
                          "(point load, 32 tokens/node, seed 4)")
def _table1_classes():
    rows: List[Row] = []
    for family, network in (
        ("expander", topologies.random_regular(32, 4, seed=1)),
        ("hypercube", topologies.hypercube(5)),
        ("torus", topologies.torus(6, dims=2)),
        ("arbitrary", topologies.random_geometric(32, seed=2)),
    ):
        load = point_load(network, 32 * network.num_nodes)
        for result in compare_algorithms(network, load, ["round-down", "algorithm1",
                                                         "algorithm2"], seed=4):
            rows.append(_result_row(family, network, result))
    return rows, _flow_imitation_claims(rows)


@_entry("table2", "Table 2: matching models per graph class "
                  "(point load, 32 tokens/node; periodic seed 7, random seed 11)")
def _table2():
    rows: List[Row] = []
    claims: List[Row] = []
    for kind, seed in (("periodic-matching", 7), ("random-matching", 11)):
        kind_rows = table2_rows(algorithms=DEFAULT_TABLE2_ALGORITHMS, matching_kind=kind,
                                tokens_per_node=32, seed=seed)
        rows += _select(kind_rows, ("matching_kind",) + _TABLE_COLUMNS)
        claims += _flow_imitation_claims(kind_rows, suffix=f", {kind}")
    return rows, claims


@_entry("table2-hypercube", "Table 2 on the 5-dimensional hypercube, both matching models "
                            "(point load, 32 tokens/node, seed 7)")
def _table2_hypercube():
    network = topologies.hypercube(5)
    load = point_load(network, 32 * network.num_nodes)
    rows: List[Row] = []
    claims: List[Row] = []
    for kind in ("periodic-matching", "random-matching"):
        results = compare_algorithms(
            network, load,
            ["matching-round-down", "matching-randomized", "algorithm1", "algorithm2"],
            continuous_kind=kind, seed=7)
        kind_rows = [dict(_result_row(network.name, network, result), matching_kind=kind)
                     for result in results]
        rows += kind_rows
        claims += _flow_imitation_claims(kind_rows, suffix=f", {kind}")
        claims.append(claim("distinct round counts <= 1 (all run T)",
                            f"{network.name}, {kind}",
                            len({row["rounds"] for row in kind_rows}), 1))
    return rows, claims


# ---------------------------------------------------------------------- #
# Theorems 3 and 8, and the sufficient initial load
# ---------------------------------------------------------------------- #


@_entry("theorem3", "Theorem 3: Algorithm 1, weighted tasks, speeds 1..3, "
                    "48-node random regular graphs, Theorem 3(2) base load, seed 11")
def _theorem3():
    rows = theorem3_rows(degrees=(3, 5, 8), max_weights=(1, 2, 4), num_nodes=48,
                         tasks_per_node=24, max_speed=3, seed=11)
    claims: List[Row] = []
    for row in rows:
        instance = f"d={row['degree']} w_max={row['w_max']}"
        claims.append(claim("max-min <= 2 d w_max + 2", instance, row["max_min"], row["bound"]))
        claims.append(_unused_source(instance, row["used_infinite_source"]))
    small = next(r for r in rows if r["degree"] == 3 and r["w_max"] == 1)
    large = next(r for r in rows if r["degree"] == 8 and r["w_max"] == 4)
    claims.append(exceeds("bound grows with d w_max (strict)", "d=3 w_max=1 vs d=8 w_max=4",
                          large["bound"], small["bound"]))
    return rows, claims


@_entry("theorem3-heterogeneous", "Theorem 3 in the general model: node speeds 1..4 "
                                  "(24-node 4-regular graph seed 9, run seed 2) and task "
                                  "weights (5x5 torus, 400 tasks placed with seed 3, run seed 1)")
def _theorem3_heterogeneous():
    rows: List[Row] = []
    claims: List[Row] = []
    network = topologies.random_regular(24, 4, seed=9).with_speeds(
        [1 + (i % 4) for i in range(24)])
    load = point_load(network, 24 * 16) + balanced_load(network, network.max_degree)
    result = run_algorithm("algorithm1", network, initial_load=load, seed=2)
    instance = "speeds 1..4, base load d"
    rows.append({"instance": instance, "w_max": 1, "max_min": result.final_max_min,
                 "max_avg_no_dummies": result.final_max_avg_no_dummies,
                 "used_infinite_source": result.used_infinite_source})
    claims.append(_unused_source(instance, result.used_infinite_source))
    claims.append(_algorithm1_bound(instance, network.max_degree, result.final_max_min))

    torus = topologies.torus(5, dims=2)
    for w_max in (1, 4):
        assignment = weighted_assignment(torus, num_tasks=400, max_weight=w_max,
                                         placement="uniform", seed=3)
        result = run_algorithm("algorithm1", torus, assignment=assignment, seed=1)
        instance = f"5x5 torus, weights 1..{w_max}"
        rows.append({"instance": instance, "w_max": w_max, "max_min": result.final_max_min,
                     "max_avg_no_dummies": result.final_max_avg_no_dummies,
                     "used_infinite_source": result.used_infinite_source})
        claims.append(claim("max-avg (no dummies) <= 2 d w_max + 2", instance,
                            result.final_max_avg_no_dummies,
                            theorem3_discrepancy_bound(torus.max_degree,
                                                       assignment.max_task_weight())))
    claims.append(exceeds("bound grows with w_max (strict)", "d=4: w_max=1 vs w_max=4",
                          theorem3_discrepancy_bound(4, 4), theorem3_discrepancy_bound(4, 1)))
    return rows, claims


@_entry("theorem8", "Theorem 8: Algorithm 2 on hypercubes, Theorem 8(2) base load, "
                    "64 tokens/node, seeds 3, 5, 7")
def _theorem8():
    rows = theorem8_rows(dimensions=(4, 5, 6), tokens_per_node=64, seeds=(3, 5, 7))
    claims: List[Row] = []
    for row in rows:
        instance = row["graph"]
        claims.append(_unused_source(instance, row["used_infinite_source"]))
        claims.append(claim("worst max-min <= 4 (d/4 + sqrt(d ln n))", instance,
                            row["max_min_worst"], 4.0 * row["reference_shape"]))
    d4 = next(r for r in rows if r["degree"] == 4)
    d6 = next(r for r in rows if r["degree"] == 6)
    claims.append(claim("worst max-min at d=6 <= 4 max(worst at d=4, 1)", "d=4 vs d=6",
                        d6["max_min_worst"], 4.0 * max(d4["max_min_worst"], 1.0)))
    return rows, claims


@_entry("initial-load", "Theorems 3(2) and 8(2): base-load sweep under a 512-token hot spot "
                        "(6x6 torus; Algorithm 1 seed 7, Algorithm 2 seed 11)")
def _initial_load():
    network = topologies.torus(6, dims=2)
    rows: List[Row] = []
    claims: List[Row] = []
    for algorithm, levels, seed in (("algorithm1", (0, 1, 2, 4, 8), 7),
                                    ("algorithm2", (0, 2, 4, 8, 16), 11)):
        sweep = initial_load_condition_rows(network=network, base_levels=levels,
                                            tokens_on_hotspot=512, algorithm=algorithm,
                                            seed=seed)
        rows += [dict(algorithm=algorithm, **row) for row in sweep]
        for row in sweep:
            instance = f"{algorithm}, base {row['base_level']}"
            if algorithm == "algorithm1":
                claims.append(claim("max-avg (no dummies) <= 2d+2", instance,
                                    row["max_avg_no_dummies"],
                                    theorem3_discrepancy_bound(network.max_degree, 1.0)))
            if row["base_level"] >= row["required_level"]:
                claims.append(_unused_source(instance, row["used_infinite_source"]))
                if algorithm == "algorithm1":
                    claims.append(claim("dummy tokens <= 0", instance, row["dummy_tokens"], 0))
    return rows, claims


@_entry("initial-load-hypercube", "Theorems 3(2) and 8(2) together: 4-dimensional hypercube, "
                                  "128-token hot spot on the larger base load, seed 5")
def _initial_load_hypercube():
    network = topologies.hypercube(4)
    base = max(network.max_degree,
               int(math.ceil(theorem8_required_base_load(network.max_degree,
                                                         network.num_nodes))))
    load = point_load(network, 128) + balanced_load(network, base)
    rows: List[Row] = []
    claims: List[Row] = []
    for algorithm in ("algorithm1", "algorithm2"):
        result = run_algorithm(algorithm, network, initial_load=load, seed=5)
        rows.append({"algorithm": algorithm, "base_level": base,
                     "dummy_tokens": result.dummy_tokens,
                     "used_infinite_source": result.used_infinite_source,
                     "max_min": result.final_max_min})
        claims.append(_unused_source(algorithm, result.used_infinite_source))
        claims.append(claim("dummy tokens <= 0", algorithm, result.dummy_tokens, 0))
    return rows, claims


# ---------------------------------------------------------------------- #
# Figures: scaling in n, traces, continuous balancing times, degree
# ---------------------------------------------------------------------- #


@_entry("scaling", "Discrepancy as n grows at fixed degree (point load, 32 tokens/node)")
def _scaling():
    rows: List[Row] = []
    claims: List[Row] = []
    sweeps = (
        ("cycles, seed 7", "cycle", (16, 32, 64),
         ("round-down", "quasirandom", "algorithm1", "algorithm2"), 7),
        ("tori, seed 7", "torus", (16, 36, 64, 100),
         ("round-down", "algorithm1", "algorithm2"), 7),
        ("cycles, seed 1", "cycle", (16, 64), ("round-down", "algorithm1"), 1),
    )
    for label, family, sizes, algorithms, seed in sweeps:
        sweep = scaling_in_n_rows(family=family, sizes=sizes, algorithms=algorithms,
                                  tokens_per_node=32, seed=seed)
        rows += [dict(sweep=label, **row) for row in _select(sweep, _TABLE_COLUMNS)]
        by_n = sorted(sweep, key=lambda row: row["n"])
        round_down = [row["max_min"] for row in by_n if row["algorithm"] == "round-down"]
        algorithm1 = [row["max_min"] for row in by_n if row["algorithm"] == "algorithm1"]
        bound = theorem3_discrepancy_bound(by_n[0]["degree"], 1.0)
        instance = f"{label}, n={sizes[0]}..{sizes[-1]}"
        if family == "cycle":
            claims.append(claim("2 x round-down at smallest n <= round-down at largest n",
                                instance, 2 * round_down[0], round_down[-1]))
        else:
            claims.append(exceeds("round-down grows with n (strict)", instance,
                                  round_down[-1], round_down[0]))
        claims.append(claim("max over n of algorithm1 max-min <= 2d+2", instance,
                            max(algorithm1), bound))
        if family == "torus":
            claims.append(claim("algorithm1 spread over n <= 2d+2", instance,
                                max(algorithm1) - min(algorithm1), bound))
    return rows, claims


@_entry("traces", "Per-round max-min traces, every 5th round "
                  "(8x8 torus, point load, 32 tokens/node, seed 7)")
def _traces():
    network = topologies.torus(8, dims=2)
    rows = convergence_trace_rows(network, algorithms=("round-down", "algorithm1", "algorithm2"),
                                  tokens_per_node=32, seed=7)
    traces: Dict[str, List[float]] = {}
    for row in rows:
        traces.setdefault(row["algorithm"], []).append(row["max_min"])
    claims: List[Row] = []
    for algorithm, trace in traces.items():
        claims.append(exceeds("initial max-min > 0", algorithm, trace[0], 0))
        claims.append(claim("final max-min <= initial / 8", algorithm, trace[-1], trace[0] / 8))
    claims.append(claim("final max-min <= 2d+2", "algorithm1", traces["algorithm1"][-1],
                        2 * 4 + 2))
    return [row for row in rows if row["round"] % 5 == 0], claims


@_entry("convergence", "Continuous balancing times vs spectral gap "
                       "(Table 1 classes, point load, 32 tokens/node, seed 7)")
def _convergence():
    rows = continuous_convergence_rows(tokens_per_node=32, seed=7)
    by_graph: Dict[str, Dict[str, Row]] = {}
    for row in rows:
        by_graph.setdefault(row["graph"], {})[row["kind"]] = row
    claims = [claim("SOS T <= FOS T", graph, kinds["sos"]["measured_T"],
                    kinds["fos"]["measured_T"]) for graph, kinds in by_graph.items()]
    fos = sorted((kinds["fos"] for kinds in by_graph.values()),
                 key=lambda row: row["spectral_gap"])
    claims.append(claim("FOS T at the largest gap <= FOS T at the smallest gap",
                        f"{fos[-1]['graph']} vs {fos[0]['graph']}",
                        fos[-1]["measured_T"], fos[0]["measured_T"]))
    return rows, claims


@_entry("degree-crossover", "Algorithm 1 vs Algorithm 2 as the degree grows "
                            "(64-node random regular, seed 3; point load 64/node, seed 11)")
def _degree_crossover():
    rows: List[Row] = []
    claims: List[Row] = []
    n = 64
    for degree in (4, 8, 16, 32):
        network = topologies.random_regular(n, degree, seed=3)
        load = point_load(network, 64 * network.num_nodes)
        results = {r.algorithm: r for r in compare_algorithms(
            network, load, ["algorithm1", "algorithm2"], seed=11)}
        row = {
            "degree": degree,
            "n": n,
            "rounds": results["algorithm1"].rounds,
            "alg1_max_min": results["algorithm1"].final_max_min,
            "alg1_bound": theorem3_discrepancy_bound(degree, 1.0),
            "alg2_max_min": results["algorithm2"].final_max_min,
            "alg2_bound_shape": theorem8_max_avg_bound(degree, n),
        }
        rows.append(row)
        instance = f"d={degree}"
        claims.append(_algorithm1_bound(instance, degree, row["alg1_max_min"]))
        claims.append(_algorithm2_shape(instance, degree, n, row["alg2_max_min"]))
    densest, sparsest = rows[-1], rows[0]
    claims.append(claim("algorithm2 <= algorithm1 at the largest degree", "d=32",
                        densest["alg2_max_min"], densest["alg1_max_min"]))
    claims.append(claim("gap(alg1 - alg2) at d=4 minus 2 <= gap at d=32", "d=4 vs d=32",
                        sparsest["alg1_max_min"] - sparsest["alg2_max_min"] - 2,
                        densest["alg1_max_min"] - densest["alg2_max_min"]))
    return rows, claims


# ---------------------------------------------------------------------- #
# Dynamic recovery, the classical potential analysis, the random walk
# ---------------------------------------------------------------------- #


@_entry("dynamic-recovery", "Algorithm 2 after periodic hot-spot bursts "
                            "(6x6 torus, 8 tokens/node, 220 rounds, bursts at 30/120/210, "
                            "seed 11, band 2d+2)")
def _dynamic_recovery():
    rows: List[Row] = []
    claims: List[Row] = []
    for continuous_kind in ("fos", "random-matching"):
        network = topologies.torus(6, dims=2)
        load = uniform_random_load(network, 8 * network.num_nodes, seed=11)
        burst = 8 * network.num_nodes // 2
        generator = BurstyArrivals(burst, period=90, first_round=30, seed=11)
        result = run_stream("algorithm2", network, load, generator, rounds=220,
                            continuous_kind=continuous_kind, seed=11)
        band = theorem3_discrepancy_bound(result.max_degree, result.max_task_weight)
        summary = summarize_dynamic(result, band)
        bursts = recovery_report(result, band)
        peak = max(entry["peak"] for entry in bursts)
        rows.append({
            "continuous": continuous_kind,
            "bursts": len(bursts),
            "recovered": summary["recovered_bursts"],
            "recovery_times": [entry["recovery_time"] for entry in bursts],
            "peak": peak,
            "steady_state": summary["steady_state"],
            "band": band,
            "final_max_min": result.final_max_min,
        })
        claims.append(claim("2 <= bursts", continuous_kind, 2, len(bursts)))
        claims.append(claim("every burst returns to the band (bursts <= recovered)",
                            continuous_kind, len(bursts), summary["recovered_bursts"]))
        claims.append(exceeds("a burst leaves the band (peak > band)", continuous_kind,
                              peak, band))
        claims.append(claim("final max-min <= band", continuous_kind,
                            result.final_max_min, band))
    return rows, claims


@_entry("potential-drop", "Potential drop per round, continuous FOS vs round-down "
                          "(64-node 6-regular, seed 3, 2000 tokens/node point load, 15 rounds)")
def _potential_drop():
    network = topologies.random_regular(64, 6, seed=3)
    lam = second_largest_eigenvalue(diffusion_matrix(network))
    tokens = 2000 * network.num_nodes  # keeps Phi above the threshold for several rounds
    continuous = track_potential(
        FirstOrderDiffusion(network, point_load(network, tokens).astype(float)), rounds=15)
    discrete = track_potential(RoundDownDiffusion(network, point_load(network, tokens)),
                               rounds=15)
    rows: List[Row] = [
        {"process": "continuous FOS",
         "rounds_above_threshold": continuous.rounds_above_threshold,
         "drop_factor": estimate_drop_factor(continuous),
         "lambda_squared": lam**2, "total_reduction": continuous.total_reduction},
        {"process": "discrete round-down",
         "rounds_above_threshold": discrete.rounds_above_threshold,
         "drop_factor": estimate_drop_factor(discrete, above_threshold_only=True),
         "lambda_squared": lam**2, "total_reduction": discrete.total_reduction},
    ]
    claims = [
        claim("drop factor <= lambda^2 + 1e-6", "continuous FOS",
              rows[0]["drop_factor"], lam**2 + 1e-6),
        exceeds("rounds above the [34] threshold > 0", "discrete round-down",
                discrete.rounds_above_threshold, 0),
        claim("drop factor <= min(1, 1.5 lambda^2 + 0.1)", "discrete round-down",
              rows[1]["drop_factor"], min(1.0, 1.5 * lam**2 + 0.1)),
    ]
    return rows, claims


@_entry("random-walk", "Two-phase random walk (2T rounds) vs flow imitation (T rounds) "
                       "(point load 32/node, seed 5)")
def _random_walk():
    rows: List[Row] = []
    claims: List[Row] = []
    bound = theorem3_discrepancy_bound(4, 1.0)  # both graphs have degree 4
    for family, network in (
        ("expander (4-regular)", topologies.random_regular(64, 4, seed=3)),
        ("torus (2d)", topologies.torus(8, dims=2)),
    ):
        load = point_load(network, 32 * network.num_nodes)
        T = determine_balancing_time(network, load, "fos")
        for result in compare_algorithms(network, load, ["algorithm1", "algorithm2"],
                                         rounds=T, seed=5):
            rows.append({"graph": family, "algorithm": result.algorithm,
                         "rounds": result.rounds, "max_min": result.final_max_min})
            if result.algorithm == "algorithm1":
                claims.append(claim("algorithm1 max-min <= 2d+2", family,
                                    result.final_max_min, bound))
        walker = TwoPhaseRandomWalkBalancer(network, load, phase1_rounds=T, seed=5)
        walker.run(2 * T)  # phase 1 for T rounds + T fine-balancing rounds
        walk = max_min_discrepancy(walker.loads(), network)
        rows.append({"graph": family, "algorithm": "random-walk (2-phase)",
                     "rounds": 2 * T, "max_min": walk})
        claims.append(claim("random-walk max-min <= 4 (2d+2)", family, walk, 4 * bound))
    return rows, claims


# ---------------------------------------------------------------------- #
# Ablations, the per-round invariant audit, seed variability
# ---------------------------------------------------------------------- #


@_entry("alpha-schemes", "Diffusion-weight schemes: Algorithm 1 on an 8x8 torus "
                         "(point load, 32 tokens/node)")
def _alpha_schemes():
    network = topologies.torus(8, dims=2)
    loads = point_load(network, 32 * network.num_nodes)
    bound = theorem3_discrepancy_bound(network.max_degree, 1.0)
    rows: List[Row] = []
    for scheme in AlphaScheme.ALL:
        alphas = compute_alphas(network, scheme)
        lam = second_largest_eigenvalue(diffusion_matrix(network, alphas=alphas))
        assignment = TaskAssignment.from_unit_loads(network, loads)
        continuous = FirstOrderDiffusion(network, assignment.loads(), alphas=alphas)
        balancer = DeterministicFlowImitation(continuous, assignment)
        T = balancer.run_until_continuous_balanced(max_rounds=200_000)
        rows.append({"scheme": scheme, "lambda": lam, "balancing_time_T": T,
                     "final_max_min": balancer.max_min_discrepancy(), "bound": bound})
    claims = [claim("final max-min <= 2d+2", row["scheme"], row["final_max_min"], bound)
              for row in rows]
    by_lambda = sorted(rows, key=lambda row: row["lambda"])
    claims.append(claim("T at the smallest lambda <= T at the largest lambda",
                        f"{by_lambda[0]['scheme']} vs {by_lambda[-1]['scheme']}",
                        by_lambda[0]["balancing_time_T"], by_lambda[-1]["balancing_time_T"]))
    return rows, claims


@_entry("selection-policy", "Task-selection policies of Algorithm 1 (48-node 4-regular, "
                            "seed 5; 1200 tasks of weight 1..4, seed 9)")
def _selection_policy():
    network = topologies.random_regular(48, 4, seed=5)
    rows: List[Row] = []
    claims: List[Row] = []
    for policy in TaskSelectionPolicy.ALL:
        assignment = weighted_assignment(network, num_tasks=1200, max_weight=4,
                                         placement="uniform", seed=9)
        continuous = FirstOrderDiffusion(network, assignment.loads())
        balancer = DeterministicFlowImitation(continuous, assignment, selection_policy=policy)
        T = balancer.run_until_continuous_balanced(max_rounds=200_000)
        locality = summarize_displacements(balancer.assignment)
        row = {
            "policy": policy,
            "rounds_T": T,
            "max_avg": max_avg_discrepancy(balancer.loads(include_dummies=False), network,
                                           total_weight=balancer.original_weight),
            "bound": theorem3_discrepancy_bound(network.max_degree, balancer.w_max),
            "mean_displacement": locality.mean,
            "stationary_fraction": locality.fraction_stationary,
        }
        rows.append(row)
        claims.append(claim("max-avg <= 2 d w_max + 2", policy, row["max_avg"], row["bound"]))
        claims.append(claim("mean displacement <= 5 hops", policy,
                            row["mean_displacement"], 5.0))
    claims.append(claim("distinct horizons T <= 1", "all policies",
                        len({row["rounds_T"] for row in rows}), 1))
    return rows, claims


@_entry("invariant-audit", "Per-round audit of Observation 4/9 and Lemma 6 "
                           "(Table 1 classes, point load 32/node, FOS horizon T)")
def _invariant_audit():
    rows: List[Row] = []
    claims: List[Row] = []
    for family, network in table1_graph_families(seed=7).items():
        loads = point_load(network, 32 * network.num_nodes)
        for label in ("algorithm1", "algorithm2"):
            result = run_algorithm(label, network, initial_load=loads, seed=5,
                                   max_rounds=100_000, backend="object", audit=True)
            audit = result.extra["audit"]
            row = {
                "graph": family,
                "algorithm": label,
                "rounds_audited": audit["rounds_checked"],
                "violations": len(audit["violations"]),
                "max_flow_error": audit["max_flow_error"],
                "error_bound": result.max_task_weight,
                "max_load_deviation": audit["max_load_deviation"],
                "deviation_bound": network.max_degree * result.max_task_weight,
                "dummy_tokens": audit["dummy_tokens"],
            }
            rows.append(row)
            instance = f"{family}, {label}"
            claims.append(claim("audit violations <= 0", instance, row["violations"], 0))
            claims.append(claim("max flow error <= w_max", instance,
                                row["max_flow_error"], row["error_bound"]))
            claims.append(claim("max load deviation <= d w_max", instance,
                                row["max_load_deviation"], row["deviation_bound"]))
    return rows, claims


@_entry("multiseed", "Across-seed variability (64-node hypercube, point load 32/node, "
                     "seeds 1..6)")
def _multiseed():
    rows = []
    for algorithm in ("algorithm1", "algorithm2", "randomized-rounding"):
        configuration = SweepConfiguration(
            algorithm=algorithm, topology="hypercube", num_nodes=64,
            tokens_per_node=32, workload="point", continuous_kind="fos",
        )
        rows.append(run_sweep(configuration, seeds=(1, 2, 3, 4, 5, 6)).as_row())
    by_algorithm = {row["algorithm"]: row for row in rows}
    degree, n = 6, 64
    deterministic, randomized = by_algorithm["algorithm1"], by_algorithm["algorithm2"]
    claims = [
        claim("worst max-min <= mean max-min (zero spread)", "algorithm1",
              deterministic["max_min_worst"], deterministic["max_min_mean"]),
        _algorithm1_bound("algorithm1, worst seed", degree, deterministic["max_min_worst"]),
        _algorithm2_shape("algorithm2, worst seed", degree, n, randomized["max_min_worst"]),
    ]
    return rows, claims


# ---------------------------------------------------------------------- #
# evaluation and rendering
# ---------------------------------------------------------------------- #


def _rounded(value):
    """``value`` with numpy scalars unwrapped and floats rounded to :data:`DECIMALS`."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return round(value, DECIMALS)
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def evaluate_claims(only: Optional[Sequence[str]] = None) -> List[Row]:
    """Evaluate the registry (or the entries named in ``only``, in registry order).

    Returns the JSON-ready record: one ``{"id", "title", "rows", "claims"}``
    dictionary per entry, floats rounded to :data:`DECIMALS` places.
    """
    unknown = sorted(set(only or ()) - set(REGISTRY))
    if unknown:
        raise ExperimentError(f"unknown claim id(s) {unknown}; valid ids: {list(REGISTRY)}")
    record: List[Row] = []
    for entry in REGISTRY.values():
        if only is not None and entry.id not in only:
            continue
        rows, claims = entry.evaluate()
        record.append(_rounded({"id": entry.id, "title": entry.title,
                                "rows": rows, "claims": claims}))
    return record


def failed_claims(record: Iterable[Row]) -> List[Tuple[str, Row]]:
    """Every ``(entry id, claim row)`` of ``record`` that does not hold."""
    return [(entry["id"], row) for entry in record
            for row in entry["claims"] if not row["holds"]]


def record_json(record: Iterable[Row]) -> str:
    """The record as JSON text with one row or claim per line (diffs stay legible)."""
    def block(items) -> str:
        return ",\n".join(f"  {json.dumps(item)}" for item in items)

    entries = [f'{{"id": {json.dumps(entry["id"])}, "title": {json.dumps(entry["title"])},\n'
               f' "rows": [\n{block(entry["rows"])}],\n'
               f' "claims": [\n{block(entry["claims"])}]}}' for entry in record]
    return "[\n" + ",\n".join(entries) + "\n]"


def format_claims(record: Iterable[Row]) -> str:
    """Render a record as text: per entry, its experiment table, then its claims."""
    record = list(record)
    blocks = []
    for entry in record:
        blocks.append(f"=== {entry['id']}: {entry['title']} ===\n"
                      f"{format_table(entry['rows'])}\n\n"
                      f"{format_table(entry['claims'], float_format='{:.4f}')}")
    failed = failed_claims(record)
    total = sum(len(entry["claims"]) for entry in record)
    summary = f"{total - len(failed)}/{total} claims hold"
    for entry_id, row in failed:
        summary += (f"\nFAILED {entry_id}: {row['claim']} [{row['instance']}] "
                    f"measured {row['measured']} > bound {row['bound']}")
    return "\n\n".join(blocks + [summary])
