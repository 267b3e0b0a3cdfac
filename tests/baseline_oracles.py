"""Scalar oracles for the literature baselines and the matching substrate.

Each class here is a per-edge (or per-node) Python loop that the library
once ran itself and has since replaced by whole-array operations:

* :class:`ScalarMoves` applies moves one at a time, as
  ``IntegerLoadBalancer._apply_edge_moves`` did, and builds the per-edge
  move list of the diffusion baselines' ``_apply_net_moves``;
* the ``Scalar*Diffusion`` classes are the diffusion baselines on that
  move path; :class:`ScalarExcessTokenDiffusion` also visits the nodes one
  by one in counter rng mode, selecting each node's excess targets with
  :meth:`~ScalarExcessTokenDiffusion._counter_chosen`;
* :class:`ScalarDimensionExchange` and the ``Scalar*Matching`` classes walk
  the round's matching edge by edge, drawing one scalar per rounded edge;
* :class:`ScalarRandomMatchingSchedule` is the greedy random matching over
  edge tuples, validated like any user-supplied matching.

The differential suite (``tests/property/test_baseline_differential.py``)
and the unit tests compare the library against them round by round.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.continuous.base import RoundFlows
from repro.continuous.dimension_exchange import DimensionExchange
from repro.discrete.baselines.diffusion import (
    ExcessTokenDiffusion,
    QuasirandomDiffusion,
    RandomizedRoundingDiffusion,
    RoundDownDiffusion,
    RoundDownSecondOrder,
)
from repro.discrete.baselines.matching import RandomizedRoundingMatching, RoundDownMatching
from repro.exceptions import ProcessError
from repro.network.matchings import MatchingSchedule, RandomMatchingSchedule

Move = Tuple[int, int, int]


class ScalarMoves:
    """Per-move application and the per-edge net-move list."""

    def _apply_edge_moves(self, moves) -> None:
        for source, destination, tokens in moves:
            if tokens < 0:
                raise ProcessError("token moves must be non-negative")
            self._loads[source] -= tokens
            self._loads[destination] += tokens
        if np.any(self._loads < 0):
            self._went_negative = True

    def _apply_net_moves(self, sent) -> None:
        moves: List[Move] = []
        moving = np.flatnonzero(sent)
        for u, v, amount in zip(self._sources[moving].tolist(),
                                self._targets[moving].tolist(),
                                np.asarray(sent)[moving].tolist()):
            if amount > 0:
                moves.append((u, v, amount))
            else:
                moves.append((v, u, -amount))
        self._apply_edge_moves(moves)


class ScalarRoundDownDiffusion(ScalarMoves, RoundDownDiffusion):
    pass


class ScalarRoundDownSecondOrder(ScalarMoves, RoundDownSecondOrder):
    pass


class ScalarQuasirandomDiffusion(ScalarMoves, QuasirandomDiffusion):
    pass


class ScalarRandomizedRoundingDiffusion(ScalarMoves, RandomizedRoundingDiffusion):
    pass


class ScalarExcessTokenDiffusion(ScalarMoves, ExcessTokenDiffusion):
    """Excess tokens with a per-node loop in counter rng mode too."""

    def _counter_chosen(self, node: int, num_candidates: int, count: int,
                        scores: np.ndarray):
        """Candidate slots ``node`` forwards its excess tokens to."""
        if self._strategy == "random":
            order = np.argsort(scores[node, :num_candidates], kind="stable")
            return order[:count]
        offset = int(self._round_robin_offsets[node])
        chosen = [(offset + k) % num_candidates for k in range(count)]
        self._round_robin_offsets[node] = (offset + count) % num_candidates
        return chosen

    def _execute_round_counter(self) -> None:
        floors, excess = self._counter_flow_plan()
        scores = self._counter_scores(self._round) if self._strategy == "random" else None
        moves: List[Move] = []
        for node in self.network.nodes:
            neighbors = self.network.neighbors(node)
            base = int(self._dir_offsets[node])
            for j, neighbor in enumerate(neighbors):
                amount = int(floors[base + j])
                if amount > 0:
                    moves.append((node, neighbor, amount))
            count = min(int(excess[node]), len(neighbors) + 1)
            if count > 0:
                for index in self._counter_chosen(node, len(neighbors) + 1,
                                                  count, scores):
                    index = int(index)
                    if index < len(neighbors):
                        moves.append((node, neighbors[index], 1))
        self._apply_edge_moves(moves)


class ScalarDimensionExchange(DimensionExchange):
    """Dimension exchange computing each matched edge's flows in turn."""

    def _compute_flows(self) -> RoundFlows:
        flows = RoundFlows(self.network)
        speeds = self.network.speeds
        load = self._load
        for (u, v) in self._schedule.matching(self.round_index):
            index = self.network.edge_index(u, v)
            total_speed = speeds[u] + speeds[v]
            flows.forward[index] = speeds[v] / total_speed * load[u]
            flows.backward[index] = speeds[u] / total_speed * load[v]
        return flows


class ScalarMatchedDeltas(ScalarMoves):
    """``(sender, receiver, delta)`` for every matched edge, one at a time."""

    def _matched_deltas(self) -> List[Tuple[int, int, float]]:
        speeds = self.network.speeds
        loads = self._loads.astype(float)
        result = []
        for (u, v) in self._schedule.matching(self.round_index):
            delta = (speeds[v] * loads[u] - speeds[u] * loads[v]) / (speeds[u] + speeds[v])
            if delta > 0:
                result.append((u, v, delta))
            elif delta < 0:
                result.append((v, u, -delta))
        return result


class ScalarRoundDownMatching(ScalarMatchedDeltas, RoundDownMatching):
    def _execute_round(self) -> None:
        moves = []
        for sender, receiver, delta in self._matched_deltas():
            amount = int(math.floor(delta + 1e-12))
            if amount > 0:
                moves.append((sender, receiver, amount))
        self._apply_edge_moves(moves)


class ScalarRandomizedRoundingMatching(ScalarMatchedDeltas, RandomizedRoundingMatching):
    def _execute_round(self) -> None:
        moves = []
        for sender, receiver, delta in self._matched_deltas():
            base = int(math.floor(delta))
            fraction = delta - base
            if fraction == 0.0:
                amount = base
            elif self._probability == "half":
                amount = base + (1 if self._rng.random() < 0.5 else 0)
            else:
                amount = base + (1 if self._rng.random() < fraction else 0)
            if amount > 0:
                moves.append((sender, receiver, amount))
        self._apply_edge_moves(moves)


class ScalarRandomMatchingSchedule(RandomMatchingSchedule):
    """The greedy random matching over edge tuples, validated every round."""

    def _generate_ids(self, round_index: int) -> np.ndarray:
        return MatchingSchedule._generate_ids(self, round_index)

    def _generate(self, round_index: int):
        edges = self._network.edges
        order = self._rng.permutation(len(edges))
        used = set()
        matching = []
        for index in order:
            u, v = edges[index]
            if u in used or v in used:
                continue
            used.add(u)
            used.add(v)
            matching.append((u, v))
        return matching
