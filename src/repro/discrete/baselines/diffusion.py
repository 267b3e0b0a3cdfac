"""Discrete diffusion baselines from the prior literature (Section 2.2 / 2.3).

All baselines work on identical unit-weight tokens.  Each round they compute
the flow the continuous FOS process *would* send given the **current discrete
load vector** and round it:

* :class:`RoundDownDiffusion` — the classical scheme analysed by Rabani,
  Sinclair & Wanka [37]: round the per-edge net flow down.  Final max-min
  discrepancy ``O(d log n / (1 - lambda))``; lower bound ``Omega(d diam(G))``.
* :class:`QuasirandomDiffusion` — the deterministic rounding of Friedrich,
  Gairing & Sauerwald [26]: per edge, keep the accumulated rounding error
  bounded by choosing floor or ceiling (may create negative load).
* :class:`RandomizedRoundingDiffusion` — randomized rounding [26]: round the
  per-edge net flow up with probability equal to its fractional part (may
  create negative load).
* :class:`ExcessTokenDiffusion` — Berenbrink et al. [9]: round every directed
  flow down and forward the node's excess tokens to neighbours chosen at
  random without replacement (never creates negative load).

Except for :class:`ExcessTokenDiffusion` (whose mechanism is inherently
per-direction) the implementations round the *net* flow of each edge, i.e.
``alpha_{i,j} (x_i/s_i - x_j/s_j)`` is rounded by the endpoint with the larger
makespan.  This matches the "standard diffusion algorithm" described in the
paper's introduction and the framework of [37].
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...counter_rng import (
    OFFSET_STREAM as _OFFSET_STREAM,
    RNG_MODES,
    edge_scores,
    normalize_counter_seed,
    philox_generator as _philox_generator,
    validate_rng_mode,
)
from ...exceptions import ProcessError
from ...network.graph import Edge, Network
from ...network.spectral import AlphaScheme, alpha_array, alpha_entries
from ...obs.kernels import kernel_phase
from ..base import IntegerLoadBalancer

__all__ = [
    "RNG_MODES",
    "DiffusionBaseline",
    "RoundDownDiffusion",
    "RoundDownSecondOrder",
    "QuasirandomDiffusion",
    "RandomizedRoundingDiffusion",
    "ExcessTokenDiffusion",
]


class DiffusionBaseline(IntegerLoadBalancer):
    """Shared FOS bookkeeping for the diffusion baselines.

    Parameters
    ----------
    network:
        The network to balance on.
    initial_load:
        Integer token counts per node.
    alphas / scheme:
        FOS edge weights, as in :class:`~repro.continuous.fos.FirstOrderDiffusion`.
    """

    def __init__(
        self,
        network: Network,
        initial_load: Sequence[int],
        alphas: Optional[Dict[Edge, float]] = None,
        scheme: str = AlphaScheme.MAX_DEGREE_PLUS_ONE,
    ) -> None:
        super().__init__(network, initial_load)
        if alphas is None:
            self._alpha_array = alpha_array(network, scheme)
        else:
            edges, values = alpha_entries(network, alphas, check_positive=False)
            self._alpha_array = np.zeros(network.num_edges, dtype=float)
            self._alpha_array[edges] = values
        if np.any(self._alpha_array <= 0):
            raise ProcessError("every edge needs a positive alpha weight")
        self._sources, self._targets = network.edge_endpoints

    @property
    def alphas(self) -> Dict[Edge, float]:
        """The symmetric FOS edge weights in use (a fresh dict)."""
        return dict(zip(self.network.edges, self._alpha_array.tolist()))

    def _net_continuous_flows(self) -> np.ndarray:
        """Per-edge continuous net flow ``alpha_e (x_u/s_u - x_v/s_v)`` (canonical direction)."""
        speeds = self.network.speeds
        spans = self._loads.astype(float) / speeds
        return self._alpha_array * (spans[self._sources] - spans[self._targets])

    def _apply_net_moves(self, sent: np.ndarray) -> None:
        """Apply integer net moves (canonical direction, may be negative)."""
        sent = np.asarray(sent, dtype=np.int64)
        np.subtract.at(self._loads, self._sources, sent)
        np.add.at(self._loads, self._targets, sent)
        if np.any(self._loads < 0):
            self._went_negative = True


class RoundDownDiffusion(DiffusionBaseline):
    """Rabani et al. [37]: round the net continuous flow of every edge down.

    The sender of each edge is the endpoint with the larger makespan; it sends
    ``floor`` of the continuous net amount, which can never exceed its load,
    so negative load is impossible.
    """

    def _execute_round(self) -> None:
        net = self._net_continuous_flows()
        sent = np.where(net >= 0, np.floor(net + 1e-12), -np.floor(-net + 1e-12))
        self._apply_net_moves(sent.astype(int))


class RoundDownSecondOrder(DiffusionBaseline):
    """Discrete second-order scheme with round-down (Elsässer & Monien [18]).

    The continuous SOS flow is computed from the **discrete** load vector,
    using the same recursion as Equation (4) but applied to the net per-edge
    flow, and rounded down by the sending endpoint.  The (real-valued)
    previous-round flow is carried along so the momentum term matches the
    continuous scheme.  Like continuous SOS, the momentum can make the
    outgoing demand exceed a node's load, so the process may create negative
    load; the paper's Section 2.2 discusses the resulting analysis.
    """

    def __init__(self, network: Network, initial_load: Sequence[int],
                 beta: Optional[float] = None,
                 alphas: Optional[Dict[Edge, float]] = None,
                 scheme: str = AlphaScheme.MAX_DEGREE_PLUS_ONE) -> None:
        super().__init__(network, initial_load, alphas=alphas, scheme=scheme)
        if beta is None:
            from ...network.spectral import (
                diffusion_matrix,
                optimal_sos_beta,
                second_largest_eigenvalue,
            )

            lam = second_largest_eigenvalue(diffusion_matrix(network, alphas=self._alpha_array))
            beta = optimal_sos_beta(min(lam, 1.0 - 1e-12))
        if not 0.0 < beta <= 2.0:
            raise ProcessError(f"beta must lie in (0, 2], got {beta}")
        self._beta = float(beta)
        self._previous_net = np.zeros(network.num_edges, dtype=float)

    def _reset_state(self, seed) -> None:
        self._previous_net[:] = 0.0  # beta and alphas are topology data: kept

    @property
    def beta(self) -> float:
        """The SOS relaxation parameter in use."""
        return self._beta

    def _execute_round(self) -> None:
        first_order = self._net_continuous_flows()
        if self.round_index == 0:
            net = first_order
        else:
            net = (self._beta - 1.0) * self._previous_net + self._beta * first_order
        self._previous_net = net
        sent = np.where(net >= 0, np.floor(net + 1e-12), -np.floor(-net + 1e-12))
        self._apply_net_moves(sent.astype(int))


class QuasirandomDiffusion(DiffusionBaseline):
    """Friedrich, Gairing & Sauerwald [26], deterministic rounding.

    Per edge the process keeps the accumulated rounding error
    ``hat_delta_e(t) = sum_{l <= t} (y_e(l) - sent_e(l))`` and each round sends
    the rounding (floor or ceiling) of the continuous amount that minimises
    the absolute accumulated error.  The process has the *bounded error
    property*; it may create negative load on some nodes.
    """

    def __init__(self, network: Network, initial_load: Sequence[int],
                 alphas: Optional[Dict[Edge, float]] = None,
                 scheme: str = AlphaScheme.MAX_DEGREE_PLUS_ONE) -> None:
        super().__init__(network, initial_load, alphas=alphas, scheme=scheme)
        self._accumulated_error = np.zeros(network.num_edges, dtype=float)

    def _reset_state(self, seed) -> None:
        self._accumulated_error[:] = 0.0

    @property
    def accumulated_errors(self) -> np.ndarray:
        """The per-edge accumulated rounding error (copy)."""
        return self._accumulated_error.copy()

    def _execute_round(self) -> None:
        net = self._net_continuous_flows()
        floor = np.floor(net)
        ceiling = np.ceil(net)
        error_floor = np.abs(self._accumulated_error + net - floor)
        error_ceiling = np.abs(self._accumulated_error + net - ceiling)
        sent = np.where(error_floor <= error_ceiling, floor, ceiling)
        self._accumulated_error += net - sent
        self._apply_net_moves(sent.astype(int))


class RandomizedRoundingDiffusion(DiffusionBaseline):
    """Friedrich, Gairing & Sauerwald [26], randomized rounding.

    The net continuous amount of every edge is rounded up with probability
    equal to its fractional part, so the expected discrete flow matches the
    continuous flow.  Rounding up on too many edges can create negative load.

    The rounding randomness comes in two **rng modes** (see
    :mod:`repro.counter_rng`):

    * ``"sequential"`` (default) — one shared ``numpy`` generator whose
      stream advances by ``m`` draws per round; the draw an edge receives is
      tied to its position in that stream.
    * ``"counter"`` — Philox keyed on ``(seed, round)``: edge ``e``'s draw is
      entry ``e`` of the per-round score block, a pure function of
      ``(seed, round, edge)``.  Rounding the edges in any order — or all at
      once — consumes identical values, so trajectories are replayable
      independently of edge iteration order.
    """

    def __init__(self, network: Network, initial_load: Sequence[int],
                 alphas: Optional[Dict[Edge, float]] = None,
                 scheme: str = AlphaScheme.MAX_DEGREE_PLUS_ONE,
                 seed: Optional[int] = None,
                 rng_mode: str = "sequential") -> None:
        super().__init__(network, initial_load, alphas=alphas, scheme=scheme)
        self._rng_mode = validate_rng_mode(rng_mode)
        self._reset_state(seed)

    def _reset_state(self, seed) -> None:
        if self._rng_mode == "counter":
            self._counter_key = normalize_counter_seed(seed)
        else:
            self._rng = np.random.default_rng(seed)

    @property
    def rng_mode(self) -> str:
        """How per-edge rounding randomness is drawn ("sequential" or "counter")."""
        return self._rng_mode

    def _rounding_draws(self) -> np.ndarray:
        """This round's per-edge uniform draws (edge-keyed in counter mode)."""
        if self._rng_mode == "counter":
            return edge_scores(self._counter_key, self._round, self.network.num_edges)
        return self._rng.random(self.network.num_edges)

    def _execute_round(self) -> None:
        net = self._net_continuous_flows()
        magnitude = np.abs(net)
        base = np.floor(magnitude)
        fraction = magnitude - base
        round_up = self._rounding_draws() < fraction
        sent_magnitude = base + round_up.astype(float)
        sent = np.sign(net) * sent_magnitude
        self._apply_net_moves(sent.astype(int))


class ExcessTokenDiffusion(DiffusionBaseline):
    """Berenbrink et al. [9]: round directed flows down, then spread excess tokens.

    Every node computes its directed FOS flows ``y_{i,j} = alpha_{i,j}/s_i x_i``,
    rounds each down, and forwards the remaining *excess tokens* (the integer
    number of tokens left over after all floors, including the floor of the
    load it keeps) to neighbours chosen without replacement.  The node never
    promises more than it holds, so negative load cannot occur.

    Two distribution strategies are supported (both analysed in the follow-up
    work cited as [5] in the paper):

    * ``"random"`` — neighbours chosen uniformly at random without replacement
      (the original scheme of [9]);
    * ``"round-robin"`` — neighbours served in round-robin order starting from
      a random offset that advances every round.

    Per-node randomness comes in two **rng modes**:

    * ``"sequential"`` (default) — one shared ``numpy`` generator consumed in
      node order, exactly the original scheme.  The draw a node receives
      depends on how many draws earlier nodes consumed, so the trajectory is
      tied to the node iteration order and cannot be vectorised.
    * ``"counter"`` — a *counter-based* (Philox) generator keyed on
      ``(seed, round)``; node ``i``'s draws are the ``i``-th row of the
      per-round score block and the ``excess`` candidates with the smallest
      scores are selected (a uniform random subset, stable-sorted so ties are
      deterministic).  Every node's draw is a pure function of
      ``(seed, round, node, candidate-slot)`` — order-free, so one batched
      round computes every node's selection at once.
    """

    STRATEGIES = ("random", "round-robin")

    def __init__(self, network: Network, initial_load: Sequence[int],
                 alphas: Optional[Dict[Edge, float]] = None,
                 scheme: str = AlphaScheme.MAX_DEGREE_PLUS_ONE,
                 seed: Optional[int] = None, strategy: str = "random",
                 rng_mode: str = "sequential") -> None:
        super().__init__(network, initial_load, alphas=alphas, scheme=scheme)
        if strategy not in self.STRATEGIES:
            raise ProcessError(
                f"unknown excess-token strategy {strategy!r}; valid: {self.STRATEGIES}"
            )
        self._strategy = strategy
        self._rng_mode = validate_rng_mode(rng_mode)
        self._dir_offsets = None  # built lazily, on the first round
        self._reset_state(seed)

    def _reset_state(self, seed) -> None:
        if self._rng_mode == "counter":
            self._counter_key = normalize_counter_seed(seed)
            offsets_rng = _philox_generator(self._counter_key, _OFFSET_STREAM)
            self._round_robin_offsets = offsets_rng.integers(
                0, np.maximum(self.network.degrees, 1))
        else:
            self._rng = np.random.default_rng(seed)
            self._round_robin_offsets = self._rng.integers(
                0, np.maximum(self.network.degrees, 1))

    @property
    def strategy(self) -> str:
        """The excess-token distribution strategy in use."""
        return self._strategy

    @property
    def rng_mode(self) -> str:
        """How per-node randomness is drawn ("sequential" or "counter")."""
        return self._rng_mode

    def _ensure_directed_arrays(self) -> None:
        """Gather the directed-edge arrays (the network's ``(sender,
        receiver)`` planning order) shared by both rng modes.

        Topology data, built once on first use."""
        if self._dir_offsets is not None:
            return
        network = self.network
        order = network.directed_order
        self._dir_offsets, self._dir_dst = network.csr
        self._dir_src = network.directed_endpoints[0][order]
        self._dir_alpha = np.concatenate((self._alpha_array, self._alpha_array))[order]

    def _counter_flow_plan(self):
        """Vectorised directed floors and per-node excess token counts."""
        self._ensure_directed_arrays()
        speeds = self.network.speeds
        loads = self._loads.astype(float)
        amounts = self._dir_alpha / speeds[self._dir_src] * loads[self._dir_src]
        floors = np.floor(amounts + 1e-12).astype(np.int64)
        outgoing = np.add.reduceat(amounts, self._dir_offsets[:-1])
        kept_floor = np.floor(loads - outgoing + 1e-12).astype(np.int64)
        total_floor = np.add.reduceat(floors, self._dir_offsets[:-1])
        excess = np.rint(loads - total_floor - kept_floor).astype(np.int64)
        excess = np.where(self._loads > 0, np.maximum(excess, 0), 0)
        return floors, excess

    def _counter_scores(self, round_index: int) -> np.ndarray:
        """The per-round ``(n, max_degree + 1)`` uniform score block.

        Entry ``(i, j)`` is a pure function of ``(seed, round, i, j)`` — the
        counter-RNG keying that makes per-node draws order-free.
        """
        rng = _philox_generator(self._counter_key, round_index)
        return rng.random((self.network.num_nodes, self.network.max_degree + 1))

    def _execute_round(self) -> None:
        if self._rng_mode == "counter":
            with kernel_phase("baseline/excess-array"):
                self._execute_round_counter()
        else:
            self._execute_round_sequential()

    def _execute_round_counter(self) -> None:
        """One batched round: every node's floors, excess and selection at once.

        Node ``i`` forwards its excess tokens to the candidate slots with the
        ``excess`` smallest entries of row ``i`` of the per-round score block
        (one stable argsort for all rows), or to the next round-robin slots.
        """
        floors, excess = self._counter_flow_plan()
        degrees = self.network.degrees
        num_candidates = degrees + 1  # every node may also keep a token
        counts = np.minimum(excess, num_candidates)

        max_candidates = int(num_candidates.max())
        columns = np.arange(max_candidates)[np.newaxis, :]
        valid = columns < num_candidates[:, np.newaxis]
        if self._strategy == "random":
            scores = self._counter_scores(self._round)
            scores = np.where(valid, scores, np.inf)
            order = np.argsort(scores, axis=1, kind="stable")
            ranks = np.empty_like(order)
            np.put_along_axis(ranks, order,
                              np.broadcast_to(columns, order.shape).copy(), axis=1)
            chosen = ranks < counts[:, np.newaxis]
        else:  # round-robin: slots offset..offset+count-1 modulo the candidate count
            relative = (columns - self._round_robin_offsets[:, np.newaxis]) \
                % num_candidates[:, np.newaxis]
            chosen = valid & (relative < counts[:, np.newaxis])
            self._round_robin_offsets = (self._round_robin_offsets + counts) \
                % num_candidates

        # Column j < degree(i) is node i's j-th neighbour; column degree(i)
        # is the node itself (a token "sent to itself" is simply kept).
        neighbor_mask = columns < degrees[:, np.newaxis]
        extra = (chosen & neighbor_mask)[neighbor_mask].astype(np.int64)
        self._apply_edge_moves(np.column_stack(
            (self._dir_src, self._dir_dst, floors + extra)))

    def _execute_round_sequential(self) -> None:
        self._ensure_directed_arrays()
        directed_alphas = self._dir_alpha.tolist()
        offsets = self._dir_offsets.tolist()
        speeds = self.network.speeds
        loads = self._loads.astype(float)
        moves: List[Tuple[int, int, int]] = []
        for node in self.network.nodes:
            load = loads[node]
            if load <= 0:
                continue
            neighbors = self.network.neighbors(node)
            alphas = directed_alphas[offsets[node]:offsets[node + 1]]
            directed = []
            total_floor = 0
            for neighbor, alpha in zip(neighbors, alphas):
                amount = alpha / speeds[node] * load
                floor_amount = int(math.floor(amount + 1e-12))
                directed.append((neighbor, floor_amount))
                total_floor += floor_amount
            kept = load - sum(alpha / speeds[node] * load for alpha in alphas)
            kept_floor = int(math.floor(kept + 1e-12))
            excess = int(round(load - total_floor - kept_floor))
            for neighbor, floor_amount in directed:
                if floor_amount > 0:
                    moves.append((node, neighbor, floor_amount))
            if excess > 0:
                # Distribute the excess tokens among N(i) plus the node itself,
                # without replacement; a token "sent to itself" is simply kept.
                candidates = list(neighbors) + [node]
                count = min(excess, len(candidates))
                if self._strategy == "random":
                    chosen = self._rng.choice(len(candidates), size=count, replace=False)
                else:
                    offset = int(self._round_robin_offsets[node])
                    chosen = [(offset + k) % len(candidates) for k in range(count)]
                    self._round_robin_offsets[node] = (offset + count) % len(candidates)
                for index in chosen:
                    target = candidates[int(index)]
                    if target != node:
                        moves.append((node, target, 1))
        self._apply_edge_moves(moves)
