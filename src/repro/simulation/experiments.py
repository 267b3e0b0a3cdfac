"""Experiment harness: the parameter sweeps behind every table and figure.

Each function reproduces one of the paper's tables or figures and returns a
list of plain dictionaries (one per table row / figure point).  The claims
registry (:mod:`repro.simulation.claims`, ``repro claims``) runs them on
fixed instances, prints the rows with :func:`format_table` and checks the
shape the paper reports (who is independent of ``n``, who wins, by roughly
what factor) as claim rows with margins.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..analysis.aggregate import summarize_samples
from ..analysis.convergence import measure_balancing_time
from ..core.algorithm1 import theorem3_discrepancy_bound, theorem3_required_base_load
from ..core.algorithm2 import theorem8_max_avg_bound, theorem8_required_base_load
from ..exceptions import ExperimentError
from ..network import topologies
from ..network.graph import Network
from ..network.spectral import spectral_summary
from ..tasks.generators import (
    balanced_load,
    point_load,
    random_integer_speeds,
    weighted_assignment,
)
from .engine import (
    compare_algorithms,
    make_continuous,
    make_schedule,
    run_algorithm,
)
from .results import RunResult

__all__ = [
    "DEFAULT_TABLE1_ALGORITHMS",
    "DEFAULT_TABLE2_ALGORITHMS",
    "table1_graph_families",
    "table1_rows",
    "table2_rows",
    "theorem3_rows",
    "theorem8_rows",
    "scaling_in_n_rows",
    "convergence_trace_rows",
    "continuous_convergence_rows",
    "initial_load_condition_rows",
    "format_table",
]

#: The diffusion-model algorithms compared in Table 1.
DEFAULT_TABLE1_ALGORITHMS = (
    "round-down",
    "quasirandom",
    "randomized-rounding",
    "excess-tokens",
    "algorithm1",
    "algorithm2",
)

#: The matching-model algorithms compared in Table 2.
DEFAULT_TABLE2_ALGORITHMS = (
    "matching-round-down",
    "matching-randomized",
    "algorithm1",
    "algorithm2",
)


def table1_graph_families(seed: int = 7) -> Dict[str, Network]:
    """The four graph classes of Tables 1 and 2 at a laptop-friendly size (32-49 nodes)."""
    return {
        "arbitrary (geometric)": topologies.random_geometric(48, seed=seed),
        "expander (4-regular)": topologies.random_regular(48, 4, seed=seed),
        "hypercube": topologies.hypercube(5),
        "torus (2d)": topologies.torus(7, dims=2),
    }


def _point_load_instance(network: Network, tokens_per_node: int) -> np.ndarray:
    """The canonical worst-case workload: all tokens on node 0."""
    return point_load(network, tokens_per_node * network.num_nodes)


def table1_rows(
    algorithms: Sequence[str] = DEFAULT_TABLE1_ALGORITHMS,
    tokens_per_node: int = 32,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Reproduce Table 1: final discrepancies of diffusion algorithms per graph class."""
    rows: List[Dict[str, object]] = []
    for family, network in table1_graph_families(seed=seed).items():
        load = _point_load_instance(network, tokens_per_node)
        results = compare_algorithms(network, load, algorithms, continuous_kind="fos",
                                     seed=seed)
        for result in results:
            rows.append(_result_row(family, network, result))
    return rows


def table2_rows(
    algorithms: Sequence[str] = DEFAULT_TABLE2_ALGORITHMS,
    matching_kind: str = "random-matching",
    tokens_per_node: int = 32,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Reproduce Table 2: final discrepancies in the matching model per graph class."""
    if matching_kind not in ("periodic-matching", "random-matching"):
        raise ExperimentError("matching_kind must be 'periodic-matching' or 'random-matching'")
    rows: List[Dict[str, object]] = []
    for family, network in table1_graph_families(seed=seed).items():
        load = _point_load_instance(network, tokens_per_node)
        results = compare_algorithms(network, load, algorithms,
                                     continuous_kind=matching_kind, seed=seed)
        for result in results:
            row = _result_row(family, network, result)
            row["matching_kind"] = matching_kind
            rows.append(row)
    return rows


def theorem3_rows(
    degrees: Sequence[int] = (3, 5, 8),
    max_weights: Sequence[int] = (1, 2, 4),
    num_nodes: int = 48,
    tasks_per_node: int = 24,
    max_speed: int = 3,
    seed: int = 11,
) -> List[Dict[str, object]]:
    """Validate Theorem 3: Algorithm 1 with weighted tasks and speeds.

    For every (degree, w_max) combination the workload is placed on a random
    regular graph with heterogeneous speeds, padded with the balanced base
    load ``d * w_max * s_i`` required by Theorem 3(2), and Algorithm 1 runs
    until the continuous FOS process balances.  The row records the measured
    discrepancies against the ``2 d w_max + 2`` bound.
    """
    from ..tasks.task import TaskFactory

    rows: List[Dict[str, object]] = []
    padding_factory = TaskFactory(start_id=10**9)
    for degree in degrees:
        base = topologies.random_regular(num_nodes, degree, seed=seed)
        speeds = random_integer_speeds(base, max_speed=max_speed, seed=seed + degree)
        network = base.with_speeds(speeds)
        for w_max in max_weights:
            assignment = weighted_assignment(
                network, num_tasks=tasks_per_node * num_nodes, max_weight=w_max,
                placement="uniform", seed=seed + 13 * w_max,
            )
            base_level = int(math.ceil(theorem3_required_base_load(network.max_degree, w_max)))
            for node, count in enumerate(balanced_load(network, base_level)):
                for task in padding_factory.create_many(int(count), weight=1.0, origin=node):
                    assignment.add(node, task)
            result = run_algorithm(
                "algorithm1", network, assignment=assignment, continuous_kind="fos",
                seed=seed,
            )
            bound = theorem3_discrepancy_bound(network.max_degree, w_max)
            rows.append({
                "degree": network.max_degree,
                "w_max": w_max,
                "n": network.num_nodes,
                "rounds": result.rounds,
                "max_min": result.final_max_min,
                "max_avg": result.final_max_avg,
                "bound": bound,
                "used_infinite_source": result.used_infinite_source,
            })
    return rows


def theorem8_rows(
    dimensions: Sequence[int] = (4, 5, 6),
    tokens_per_node: int = 64,
    seeds: Sequence[int] = (3, 5, 7),
) -> List[Dict[str, object]]:
    """Validate Theorem 8: Algorithm 2 on hypercubes of growing dimension.

    For each hypercube dimension ``d`` the base load satisfies the Theorem
    8(2) condition and Algorithm 2 runs until the FOS substrate balances; the
    row reports the mean and worst measured discrepancies over the seeds
    together with the ``d/4 + sqrt(d log n)`` reference shape.
    """
    rows: List[Dict[str, object]] = []
    for dimension in dimensions:
        network = topologies.hypercube(dimension)
        required = int(math.ceil(theorem8_required_base_load(network.max_degree,
                                                             network.num_nodes)))
        load = point_load(network, tokens_per_node * network.num_nodes)
        load = load + balanced_load(network, required + tokens_per_node)
        max_min_samples = []
        max_avg_samples = []
        used_source = False
        rounds = 0
        for seed in seeds:
            result = run_algorithm(
                "algorithm2", network, initial_load=load, continuous_kind="fos",
                seed=seed,
            )
            max_min_samples.append(result.final_max_min)
            max_avg_samples.append(result.final_max_avg)
            used_source = used_source or result.used_infinite_source
            rounds = result.rounds
        shape = theorem8_max_avg_bound(network.max_degree, network.num_nodes)
        rows.append({
            "graph": network.name,
            "n": network.num_nodes,
            "degree": network.max_degree,
            "rounds": rounds,
            "max_min_mean": summarize_samples(max_min_samples).mean,
            "max_min_worst": max(max_min_samples),
            "max_avg_mean": summarize_samples(max_avg_samples).mean,
            "reference_shape": shape,
            "used_infinite_source": used_source,
        })
    return rows


def scaling_in_n_rows(
    family: str = "torus",
    sizes: Sequence[int] = (16, 36, 64, 100),
    algorithms: Sequence[str] = ("round-down", "algorithm1", "algorithm2"),
    tokens_per_node: int = 32,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Figure-style experiment: final max-min discrepancy as ``n`` grows at fixed degree.

    The paper's headline claim for Algorithm 1 is that its discrepancy is
    independent of ``n`` (and of the graph expansion), whereas round-down
    grows with the diameter.
    """
    rows: List[Dict[str, object]] = []
    for size in sizes:
        network = topologies.named_topology(family, size, seed=seed)
        load = _point_load_instance(network, tokens_per_node)
        results = compare_algorithms(network, load, algorithms,
                                     continuous_kind="fos", seed=seed)
        for result in results:
            rows.append(_result_row(family, network, result))
    return rows


def convergence_trace_rows(
    network: Network,
    algorithms: Sequence[str] = ("round-down", "algorithm1", "algorithm2"),
    tokens_per_node: int = 32,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Figure-style experiment: per-round max-min discrepancy traces."""
    load = _point_load_instance(network, tokens_per_node)
    results = compare_algorithms(network, load, algorithms, continuous_kind="fos",
                                 seed=seed, record_trace=True)
    rows: List[Dict[str, object]] = []
    for result in results:
        trace = result.trace_max_min or []
        for round_index, value in enumerate(trace):
            rows.append({
                "algorithm": result.algorithm,
                "round": round_index,
                "max_min": value,
            })
    return rows


def continuous_convergence_rows(
    tokens_per_node: int = 32,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Measure continuous balancing times against the spectral predictions of Section 2.1."""
    rows: List[Dict[str, object]] = []
    for family, network in table1_graph_families(seed=seed).items():
        load = _point_load_instance(network, tokens_per_node)
        summary = spectral_summary(network)
        for kind in ("fos", "sos", "periodic-matching", "random-matching"):
            schedule = make_schedule(kind, network, seed=seed)
            process = make_continuous(kind, network, load, schedule=schedule, seed=seed)
            measured = measure_balancing_time(process, max_rounds=200_000)
            rows.append({
                "graph": family,
                "n": network.num_nodes,
                "kind": kind,
                "measured_T": measured,
                "lambda": summary.lambda_value,
                "spectral_gap": summary.gap,
                "gamma": summary.gamma,
            })
    return rows


def initial_load_condition_rows(
    network: Optional[Network] = None,
    base_levels: Sequence[int] = (0, 1, 2, 4, 8),
    tokens_on_hotspot: int = 256,
    algorithm: str = "algorithm1",
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Sweep the balanced base load and record when the infinite source is needed.

    Theorem 3(2) (Algorithm 1) / Theorem 8(2) (Algorithm 2) require a base
    load of ``d * w_max`` (resp. ``d/4 + O(sqrt(d log n))``) per speed unit
    for the max-min bound to hold without dummy tokens; ``required_level``
    is the threshold of ``algorithm``'s theorem, and every row records
    whether the source was used.
    """
    if network is None:
        network = topologies.torus(6, dims=2)
    if algorithm == "algorithm2":
        required = theorem8_required_base_load(network.max_degree, network.num_nodes)
    else:
        required = theorem3_required_base_load(network.max_degree, 1.0)
    rows: List[Dict[str, object]] = []
    for level in base_levels:
        load = point_load(network, tokens_on_hotspot) + balanced_load(network, level)
        result = run_algorithm(algorithm, network, initial_load=load,
                               continuous_kind="fos", seed=seed)
        rows.append({
            "base_level": level,
            "required_level": required,
            "dummy_tokens": result.dummy_tokens,
            "used_infinite_source": result.used_infinite_source,
            "max_min": result.final_max_min,
            "max_avg_no_dummies": result.final_max_avg_no_dummies,
        })
    return rows


# ---------------------------------------------------------------------- #
# formatting helpers
# ---------------------------------------------------------------------- #


def _result_row(family: str, network: Network, result: RunResult) -> Dict[str, object]:
    return {
        "graph": family,
        "n": network.num_nodes,
        "degree": network.max_degree,
        "algorithm": result.algorithm,
        "rounds": result.rounds,
        "max_min": result.final_max_min,
        "max_avg": result.final_max_avg,
        "dummy_tokens": result.dummy_tokens,
        "went_negative": result.went_negative,
    }


def format_table(rows: Iterable[Dict[str, object]],
                 columns: Optional[Sequence[str]] = None,
                 float_format: str = "{:.2f}") -> str:
    """Render a list of dictionaries as an aligned plain-text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    table = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), max(len(row[index]) for row in table))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(widths[index]) for index, column in enumerate(columns))
    separator = "  ".join("-" * widths[index] for index in range(len(columns)))
    body = "\n".join(
        "  ".join(row[index].ljust(widths[index]) for index in range(len(columns)))
        for row in table
    )
    return "\n".join([header, separator, body])
