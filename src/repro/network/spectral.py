"""Spectral toolkit: diffusion matrices, eigenvalues and predicted balancing times.

The convergence of every continuous process in the paper is governed by the
spectrum of its diffusion matrix ``P`` (Section 2.1):

* first-order diffusion (FOS) balances in ``T = O(log(K n) / (1 - lambda))``
  rounds, where ``lambda`` is the second largest eigenvalue of ``P`` in
  absolute value and ``K`` the initial discrepancy;
* the second-order scheme (SOS) with the optimal relaxation parameter
  ``beta = 2 / (1 + sqrt(1 - lambda^2))`` balances in
  ``T = O(log(K n) / sqrt(1 - lambda))`` rounds;
* the random matching model balances in ``T = O(d log(K n) / gamma)`` rounds,
  where ``gamma`` is the second smallest eigenvalue of the Laplacian.

This module builds the (speed-aware) diffusion matrices, extracts ``lambda``
and ``gamma`` and evaluates the predicted balancing times, which the
benchmarks compare against the empirically measured convergence of the
continuous processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple, Union

import numpy as np

from ..exceptions import NetworkError, ProcessError
from .graph import Edge, Network

__all__ = [
    "AlphaScheme",
    "compute_alphas",
    "alpha_array",
    "alpha_entries",
    "alphas_to_array",
    "node_alpha_sums",
    "diffusion_matrix",
    "second_largest_eigenvalue",
    "laplacian_second_smallest",
    "spectral_gap",
    "optimal_sos_beta",
    "sos_beta",
    "SpectralSummary",
    "spectral_summary",
    "predicted_fos_rounds",
    "predicted_sos_rounds",
    "predicted_random_matching_rounds",
]


class AlphaScheme:
    """Named schemes for the symmetric edge weights ``alpha_{i,j}``.

    The FOS/SOS round equations (Equations (1), (2) and (4) of the paper)
    are parameterised by symmetric values ``alpha_{i,j} = alpha_{j,i}``
    subject to ``sum_{j in N(i)} alpha_{i,j} < s_i``.  The schemes below
    generalise the two "common choices" quoted in the paper to heterogeneous
    speeds by scaling with ``min(s_i, s_j)``; for uniform speeds they reduce
    exactly to the textbook values.
    """

    #: ``alpha_{i,j} = min(s_i, s_j) / (max(d_i, d_j) + 1)``
    MAX_DEGREE_PLUS_ONE = "max-degree-plus-one"
    #: ``alpha_{i,j} = min(s_i, s_j) / (2 * max(d_i, d_j))``
    HALF_MAX_DEGREE = "half-max-degree"
    #: ``alpha_{i,j} = min(s_i, s_j) / (d + 1)`` with ``d`` the global max degree
    GLOBAL_DEGREE = "global-degree"

    ALL = (MAX_DEGREE_PLUS_ONE, HALF_MAX_DEGREE, GLOBAL_DEGREE)


def compute_alphas(network: Network, scheme: str = AlphaScheme.MAX_DEGREE_PLUS_ONE) -> Dict[Edge, float]:
    """Compute the symmetric diffusion weights ``alpha_{i,j}`` for every edge.

    Parameters
    ----------
    network:
        The network (its speeds and degrees determine the weights).
    scheme:
        One of the :class:`AlphaScheme` names.

    Returns
    -------
    dict
        Mapping from canonical edge ``(u, v)`` (``u < v``) to ``alpha_{u,v}``;
        the values of :func:`alpha_array` in edge order.
    """
    return dict(zip(network.edges, alpha_array(network, scheme).tolist()))


def alpha_array(network: Network, scheme: str = AlphaScheme.MAX_DEGREE_PLUS_ONE) -> np.ndarray:
    """The weights of :func:`compute_alphas` as one float array aligned with ``network.edges``."""
    u, v = network.edge_endpoints
    degrees = network.degrees
    speeds = network.speeds
    if scheme == AlphaScheme.MAX_DEGREE_PLUS_ONE:
        denominators = np.maximum(degrees[u], degrees[v]) + 1
    elif scheme == AlphaScheme.HALF_MAX_DEGREE:
        denominators = 2 * np.maximum(degrees[u], degrees[v])
    elif scheme == AlphaScheme.GLOBAL_DEGREE:
        denominators = np.full(u.size, network.max_degree + 1)
    else:
        raise ProcessError(
            f"unknown alpha scheme {scheme!r}; valid schemes: {AlphaScheme.ALL}"
        )
    alphas = np.minimum(speeds[u], speeds[v]) / denominators.astype(float)
    _validate_alphas(network, alphas)
    return alphas


def _validate_alphas(network: Network, alphas: np.ndarray) -> None:
    """Check ``alpha_{i,j} > 0`` and ``sum_{j in N(i)} alpha_{i,j} < s_i`` (edge order)."""
    nonpositive = np.flatnonzero(alphas <= 0)
    if nonpositive.size:
        edge = int(nonpositive[0])
        raise ProcessError(
            f"alpha for edge {network.edges[edge]} must be positive, got {alphas[edge]}")
    sums = node_alpha_sums(network.num_nodes, *network.edge_endpoints, alphas)
    speeds = network.speeds
    bad = np.nonzero(sums >= speeds)[0]
    if bad.size > 0:
        node = int(bad[0])
        raise ProcessError(
            f"alpha weights violate sum_j alpha_ij < s_i at node {node}: "
            f"sum={sums[node]:.4f} >= s={speeds[node]:.4f}"
        )


def node_alpha_sums(n: int, u: np.ndarray, v: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """``sum_{j in N(i)} alpha_{i,j}`` per node, added edge by edge (``u`` then ``v``).

    ``bincount`` adds its weights in input order, so interleaving the two
    endpoints gives the float sums of the scalar loop exactly.
    """
    return np.bincount(np.stack((u, v), axis=1).ravel(), weights=np.repeat(alphas, 2),
                       minlength=n)


def alpha_entries(network: Network, alphas: Mapping[Edge, float],
                  check_positive: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """The edge indices and values of an ``{edge: alpha}`` mapping, in mapping order.

    Raises :class:`NetworkError` (from :meth:`Network.edge_index`) for the
    first key that is not an edge or, with ``check_positive``,
    :class:`ProcessError` for the first non-positive value, whichever entry
    comes first.
    """
    keys = list(alphas)
    values = np.fromiter(alphas.values(), dtype=float, count=len(keys))
    ends = np.array(keys, dtype=np.int64).reshape(-1, 2)
    edges = network.edge_ids(ends[:, 0], ends[:, 1])
    nonpositive = (values <= 0) & check_positive
    bad = np.flatnonzero(nonpositive | (edges < 0))
    if bad.size:
        u, v = keys[bad[0]]
        if nonpositive[bad[0]]:
            raise ProcessError(f"alpha for edge {(u, v)} must be positive")
        network.edge_index(u, v)
    return edges, values


def alphas_to_array(network: Network, alphas: Mapping[Edge, float]) -> np.ndarray:
    """Convert an alpha mapping into an array aligned with the network edge order."""
    edges, values = alpha_entries(network, alphas)
    array = np.zeros(network.num_edges, dtype=float)
    array[edges] = values
    if np.any(array == 0):
        missing = [edge for edge in network.edges if alphas.get(edge, 0) == 0]
        raise ProcessError(f"alphas missing for edges {missing[:5]}")
    return array


def diffusion_matrix(
    network: Network,
    alphas: Union[None, Mapping[Edge, float], np.ndarray] = None,
    scheme: str = AlphaScheme.MAX_DEGREE_PLUS_ONE,
) -> np.ndarray:
    """Return the dense diffusion matrix ``P`` of the FOS process.

    ``P_{i,j} = alpha_{i,j} / s_i`` for neighbours, ``P_{i,i} = 1 - sum_j
    alpha_{i,j} / s_i`` and zero elsewhere.  ``P`` is row-stochastic, and the
    vector of speeds is a left fixed point, so repeatedly applying ``x P``
    converges to the speed-proportional balanced allocation.  ``alphas`` is
    an ``{edge: alpha}`` mapping or an array aligned with ``network.edges``;
    by default it is derived from ``scheme``.
    """
    if alphas is None:
        alphas = alpha_array(network, scheme)
    if isinstance(alphas, np.ndarray):
        u, v = network.edge_endpoints
        values = alphas
    else:
        ends = np.array(list(alphas), dtype=np.int64).reshape(-1, 2)
        u, v = ends[:, 0], ends[:, 1]
        values = np.fromiter(alphas.values(), dtype=float, count=len(ends))
    n = network.num_nodes
    speeds = network.speeds
    matrix = np.zeros((n, n), dtype=float)
    matrix[u, v] = values / speeds[u]
    matrix[v, u] = values / speeds[v]
    np.fill_diagonal(matrix, 1.0 - matrix.sum(axis=1))
    return matrix


def second_largest_eigenvalue(matrix: np.ndarray) -> float:
    """Return ``lambda``: the second largest eigenvalue of ``matrix`` in absolute value.

    For non-symmetric matrices (heterogeneous speeds) we symmetrise with the
    similarity transform ``D^{1/2} P D^{-1/2}`` where ``D`` is the diagonal of
    the stationary distribution; eigenvalues are preserved and real.
    Falls back to a general eigen-decomposition when the matrix is not
    reversible.
    """
    n = matrix.shape[0]
    if n == 1:
        return 0.0
    if np.allclose(matrix, matrix.T, atol=1e-12):
        eigenvalues = np.linalg.eigvalsh(matrix)
    else:
        eigenvalues = np.linalg.eigvals(matrix)
    magnitudes = np.sort(np.abs(eigenvalues))[::-1]
    # The largest is 1 (stochastic matrix); guard against numerical noise.
    return float(min(magnitudes[1], 1.0))


def laplacian_second_smallest(network: Network) -> float:
    """Return ``gamma``: the algebraic connectivity (second smallest Laplacian eigenvalue)."""
    if network.num_nodes == 1:
        return 0.0
    eigenvalues = np.linalg.eigvalsh(network.laplacian_matrix())
    return float(np.sort(eigenvalues)[1])


def spectral_gap(matrix: np.ndarray) -> float:
    """Return ``1 - lambda`` for the given diffusion matrix."""
    return 1.0 - second_largest_eigenvalue(matrix)


def optimal_sos_beta(lambda_value: float) -> float:
    """Return the optimal SOS relaxation parameter ``beta = 2 / (1 + sqrt(1 - lambda^2))``."""
    if not 0.0 <= lambda_value < 1.0:
        raise ProcessError(f"lambda must lie in [0, 1), got {lambda_value}")
    return 2.0 / (1.0 + math.sqrt(1.0 - lambda_value**2))


def sos_beta(network: Network, alpha_array: np.ndarray) -> float:
    """The optimal SOS ``beta`` of the diffusion matrix with these edge weights.

    ``alpha_array`` is aligned with ``network.edges``; ``lambda`` is capped
    just below 1 so :func:`optimal_sos_beta` stays defined.
    """
    lam = second_largest_eigenvalue(diffusion_matrix(network, alphas=alpha_array))
    return optimal_sos_beta(min(lam, 1.0 - 1e-12))


@dataclass(frozen=True)
class SpectralSummary:
    """Summary of the spectral quantities governing convergence.

    Attributes
    ----------
    lambda_value:
        Second largest eigenvalue (absolute value) of the diffusion matrix.
    gap:
        ``1 - lambda_value``.
    gamma:
        Second smallest eigenvalue of the graph Laplacian.
    optimal_beta:
        The optimal SOS relaxation parameter for this ``lambda``.
    """

    lambda_value: float
    gap: float
    gamma: float
    optimal_beta: float


def spectral_summary(network: Network, scheme: str = AlphaScheme.MAX_DEGREE_PLUS_ONE) -> SpectralSummary:
    """Compute the :class:`SpectralSummary` of ``network`` under an alpha scheme."""
    network.require_connected()
    matrix = diffusion_matrix(network, scheme=scheme)
    lam = second_largest_eigenvalue(matrix)
    gamma = laplacian_second_smallest(network)
    beta = optimal_sos_beta(min(lam, 1.0 - 1e-12))
    return SpectralSummary(lambda_value=lam, gap=1.0 - lam, gamma=gamma, optimal_beta=beta)


def _log_term(initial_discrepancy: float, n: int) -> float:
    return math.log(max(initial_discrepancy, 2.0) * max(n, 2))


def predicted_fos_rounds(network: Network, initial_discrepancy: float,
                         scheme: str = AlphaScheme.MAX_DEGREE_PLUS_ONE) -> float:
    """Predicted FOS balancing time ``log(K n) / (1 - lambda)`` (up to constants)."""
    summary = spectral_summary(network, scheme)
    if summary.gap <= 0:
        raise ConvergenceWarningError(network)
    return _log_term(initial_discrepancy, network.num_nodes) / summary.gap


def predicted_sos_rounds(network: Network, initial_discrepancy: float,
                         scheme: str = AlphaScheme.MAX_DEGREE_PLUS_ONE) -> float:
    """Predicted SOS balancing time ``log(K n) / sqrt(1 - lambda)`` (up to constants)."""
    summary = spectral_summary(network, scheme)
    if summary.gap <= 0:
        raise ConvergenceWarningError(network)
    return _log_term(initial_discrepancy, network.num_nodes) / math.sqrt(summary.gap)


def predicted_random_matching_rounds(network: Network, initial_discrepancy: float) -> float:
    """Predicted random-matching balancing time ``d log(K n) / gamma`` (up to constants)."""
    gamma = laplacian_second_smallest(network)
    if gamma <= 0:
        raise ConvergenceWarningError(network)
    return network.max_degree * _log_term(initial_discrepancy, network.num_nodes) / gamma


class ConvergenceWarningError(NetworkError):
    """Raised when a spectral prediction is requested for a non-ergodic network."""

    def __init__(self, network: Network) -> None:
        super().__init__(
            f"network {network.name!r} has a zero spectral gap; "
            "the continuous process does not converge"
        )
