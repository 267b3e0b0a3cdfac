"""Workload and speed-profile generators used by tests, examples and benches.

Two kinds of objects are generated:

* **integer load vectors** (for unit-token experiments): how many tokens each
  node starts with.  The classical worst case used throughout the load
  balancing literature — and the one implicit in the initial discrepancy
  ``K`` of the paper's convergence bounds — is the *point load*, where all
  tokens start on a single node.
* **task assignments** (for weighted-task experiments): concrete
  :class:`~repro.tasks.assignment.TaskAssignment` objects whose tasks carry
  integer weights drawn from a chosen distribution.

Speed profiles generate the heterogeneous-speed vectors of Section 3
(integers, minimum speed 1).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..exceptions import TaskError
from ..network.graph import Network
from .assignment import TaskAssignment
from .task import TaskFactory

__all__ = [
    "point_load",
    "two_point_load",
    "uniform_random_load",
    "balanced_load",
    "half_nodes_load",
    "linear_gradient_load",
    "unit_token_assignment",
    "weighted_assignment",
    "uniform_speeds",
    "random_integer_speeds",
    "power_of_two_speeds",
    "proportional_to_degree_speeds",
]


# ---------------------------------------------------------------------- #
# integer load vectors (unit tokens)
# ---------------------------------------------------------------------- #


def point_load(network: Network, total_tokens: int, node: int = 0) -> np.ndarray:
    """All ``total_tokens`` tokens start on a single node (worst-case discrepancy)."""
    _check_total(total_tokens)
    loads = np.zeros(network.num_nodes, dtype=int)
    if not 0 <= node < network.num_nodes:
        raise TaskError(f"node {node} outside the network")
    loads[node] = total_tokens
    return loads


def two_point_load(network: Network, total_tokens: int) -> np.ndarray:
    """Tokens split evenly between the first and the last node."""
    _check_total(total_tokens)
    loads = np.zeros(network.num_nodes, dtype=int)
    loads[0] = total_tokens // 2
    loads[-1] = total_tokens - total_tokens // 2
    return loads


def uniform_random_load(network: Network, total_tokens: int,
                        seed: Optional[int] = None) -> np.ndarray:
    """Each token is placed on a node chosen independently and uniformly at random."""
    _check_total(total_tokens)
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, network.num_nodes, size=total_tokens)
    return np.bincount(nodes, minlength=network.num_nodes).astype(int)


def balanced_load(network: Network, tokens_per_speed_unit: int) -> np.ndarray:
    """A perfectly balanced integer load: ``tokens_per_speed_unit * s_i`` tokens on node ``i``.

    This is the ``x'' = l * (s_1, ..., s_n)`` padding of Theorems 3(2) and
    8(2); adding it to any other load vector guarantees the "sufficient
    initial load" condition when ``l`` is large enough.
    """
    if tokens_per_speed_unit < 0:
        raise TaskError("tokens_per_speed_unit must be non-negative")
    speeds = network.speeds
    if not np.allclose(speeds, np.round(speeds), rtol=0, atol=1e-9):
        raise TaskError("balanced integer loads require integer speeds")
    return (tokens_per_speed_unit * np.round(speeds)).astype(int)


def half_nodes_load(network: Network, tokens_per_loaded_node: int,
                    seed: Optional[int] = None) -> np.ndarray:
    """A random half of the nodes start with a fixed number of tokens each."""
    if tokens_per_loaded_node < 0:
        raise TaskError("tokens_per_loaded_node must be non-negative")
    rng = np.random.default_rng(seed)
    n = network.num_nodes
    loaded = rng.choice(n, size=max(1, n // 2), replace=False)
    loads = np.zeros(n, dtype=int)
    loads[loaded] = tokens_per_loaded_node
    return loads


def linear_gradient_load(network: Network, max_tokens: int) -> np.ndarray:
    """Load decreasing linearly with the node index, from ``max_tokens`` down to 0."""
    if max_tokens < 0:
        raise TaskError("max_tokens must be non-negative")
    n = network.num_nodes
    if n == 1:
        return np.array([max_tokens], dtype=int)
    return np.round(np.linspace(max_tokens, 0, n)).astype(int)


# ---------------------------------------------------------------------- #
# task assignments
# ---------------------------------------------------------------------- #


def unit_token_assignment(network: Network, loads: Sequence[int],
                          factory: Optional[TaskFactory] = None) -> TaskAssignment:
    """Wrap an integer load vector into a unit-token :class:`TaskAssignment`."""
    return TaskAssignment.from_unit_loads(network, loads, factory=factory)


def weighted_assignment(
    network: Network,
    num_tasks: int,
    max_weight: int = 4,
    placement: str = "point",
    seed: Optional[int] = None,
    factory: Optional[TaskFactory] = None,
) -> TaskAssignment:
    """Generate ``num_tasks`` tasks with integer weights in ``[1, max_weight]``.

    Parameters
    ----------
    placement:
        ``"point"`` (all tasks on node 0), ``"uniform"`` (each task placed on
        a uniformly random node) or ``"proportional"`` (placement probability
        proportional to node speed — a "speed-aware but unbalanced" start).
    """
    if num_tasks < 0:
        raise TaskError("num_tasks must be non-negative")
    if max_weight < 1:
        raise TaskError("max_weight must be at least 1")
    rng = np.random.default_rng(seed)
    factory = factory or TaskFactory()
    assignment = TaskAssignment(network)

    if placement == "point":
        nodes = np.zeros(num_tasks, dtype=int)
    elif placement == "uniform":
        nodes = rng.integers(0, network.num_nodes, size=num_tasks)
    elif placement == "proportional":
        probabilities = network.speeds / network.total_speed
        nodes = rng.choice(network.num_nodes, size=num_tasks, p=probabilities)
    else:
        raise TaskError(
            f"unknown placement {placement!r}; expected 'point', 'uniform' or 'proportional'"
        )

    weights = rng.integers(1, max_weight + 1, size=num_tasks)
    for node, weight in zip(nodes, weights):
        assignment.add(int(node), factory.create(weight=float(weight), origin=int(node)))
    return assignment


# ---------------------------------------------------------------------- #
# speed profiles
# ---------------------------------------------------------------------- #


def uniform_speeds(network: Network) -> np.ndarray:
    """All nodes have speed 1 (the uniform-resource model)."""
    return np.ones(network.num_nodes, dtype=int)


def random_integer_speeds(network: Network, max_speed: int = 4,
                          seed: Optional[int] = None) -> np.ndarray:
    """Integer speeds drawn uniformly from ``{1, ..., max_speed}``."""
    if max_speed < 1:
        raise TaskError("max_speed must be at least 1")
    rng = np.random.default_rng(seed)
    return rng.integers(1, max_speed + 1, size=network.num_nodes).astype(int)


def power_of_two_speeds(network: Network, max_exponent: int = 3,
                        seed: Optional[int] = None) -> np.ndarray:
    """Speeds of the form ``2^k`` with ``k`` uniform in ``{0, ..., max_exponent}``."""
    if max_exponent < 0:
        raise TaskError("max_exponent must be non-negative")
    rng = np.random.default_rng(seed)
    exponents = rng.integers(0, max_exponent + 1, size=network.num_nodes)
    return (2 ** exponents).astype(int)


def proportional_to_degree_speeds(network: Network) -> np.ndarray:
    """Speed equal to the node degree (minimum 1) — models fatter links at hubs."""
    return np.maximum(network.degrees, 1).astype(int)


def _check_total(total: int) -> None:
    if total < 0:
        raise TaskError("the total number of tokens must be non-negative")
