"""Counter-based (Philox) randomness shared by every randomized process.

Every randomized process draws from a *counter-based* generator
(Philox4x64) keyed on ``(seed, round)``: the draw of entity ``k`` in round
``t`` is entry ``k`` of the per-round score block, a pure function of
``(seed, round, k)``.  Draws are therefore **order-free** — iterating the
entities in any order, or computing all of them at once in a vectorised
kernel, yields bit-identical values — which is what makes the array kernels
in :mod:`repro.backend` possible and what keeps trajectories replayable
across sharded, resumed or asynchronous drivers.  Theorem 8 needs only an
independent coin per (round, edge) or (round, node), which this keying
gives.

Three keying schemes share this module:

* **per-node** rows — :class:`~repro.discrete.baselines.diffusion.ExcessTokenDiffusion`
  scores the candidates of node ``i`` with row ``i`` of an
  ``(n, max_degree + 1)`` block;
* **per-edge** entries — Algorithm 2
  (:class:`~repro.core.algorithm2.RandomizedFlowImitation`) and
  :class:`~repro.discrete.baselines.diffusion.RandomizedRoundingDiffusion`
  round edge ``e`` with entry ``e`` of a length-``m`` block
  (:func:`edge_scores`);
* a reserved stream (:data:`OFFSET_STREAM`) for one-off draws such as the
  round-robin starting offsets (round indices never reach it).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "RNG_MODES",
    "OFFSET_STREAM",
    "require_counter_rng",
    "philox_generator",
    "normalize_counter_seed",
    "edge_scores",
]

#: Valid values of the ``rng_mode`` fields and keywords that recorded
#: formats (scenarios, sweep configurations, stream configs) still name.
RNG_MODES = ("counter",)


def require_counter_rng(rng_mode: str, error: type) -> str:
    """Return ``rng_mode`` or raise ``error`` naming the only valid mode.

    The single validation behind every entry point that still accepts an
    ``rng_mode``, so the accepted modes cannot diverge between them.
    """
    if rng_mode not in RNG_MODES:
        raise error(f"unknown rng mode {rng_mode!r}; the only rng mode is 'counter'")
    return rng_mode


_MASK64 = (1 << 64) - 1

#: Philox stream id reserved for one-off draws (rounds never reach it).
OFFSET_STREAM = _MASK64


def philox_generator(key: int, stream: int) -> np.random.Generator:
    """A counter-based generator keyed on ``(key, stream)`` (Philox4x64)."""
    words = np.array([key & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=words))


def normalize_counter_seed(seed: Optional[int]) -> int:
    """The integer Philox key for ``seed`` (a fresh random key for ``None``)."""
    if seed is None:
        return int(np.random.default_rng().integers(1 << 63))
    return int(seed)


def edge_scores(key: int, round_index: int, num_edges: int) -> np.ndarray:
    """The per-round uniform score of every edge.

    Entry ``e`` is a pure function of ``(key, round_index, e)`` — the
    edge-keyed counter-RNG contract: scalar references that look entries up
    one edge at a time (in any order) and vectorised kernels that fancy-index
    the whole block consume bit-identical values.
    """
    return philox_generator(key, round_index).random(num_edges)
