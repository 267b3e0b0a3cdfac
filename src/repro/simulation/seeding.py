"""Per-purpose seed derivation for sweeps and parallel grids.

A sweep run historically passed **one integer seed** to every randomized
component: the topology sample, the workload placement, the matching
schedule and the algorithm's internal randomness all consumed the same
number.  That re-correlates components that the experiment design treats as
independent — adding seeds adds replicas of the *same* coupling between,
say, a random topology and a random workload, instead of sampling the two
independently.

:func:`purpose_seeds` fixes this with :class:`numpy.random.SeedSequence`:
the run seed spawns one child stream per purpose, so each component draws
from an independent, well-mixed stream while the whole run stays a pure
function of ``(seed,)``.  Because the derivation is deterministic and
order-free it is also what makes sharded parallel sweeps
(:mod:`repro.simulation.parallel`) bit-identical to serial ones — a worker
only needs the run seed to reconstruct every component stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

__all__ = ["SEED_PURPOSES", "PurposeSeeds", "purpose_seeds"]

#: The independent randomness consumers of one run, in spawn order.  New
#: purposes are appended: SeedSequence children are keyed by spawn index, so
#: extending the tuple never changes the seeds of existing purposes.
SEED_PURPOSES = ("topology", "workload", "schedule", "algorithm", "events")


@dataclass(frozen=True)
class PurposeSeeds:
    """Independent child seeds for the components of one (cell, seed) run.

    ``events`` seeds the dynamic-scenario event generator; it defaults to
    ``None`` because static runs have no event stream.
    """

    topology: Optional[int]
    workload: Optional[int]
    schedule: Optional[int]
    algorithm: Optional[int]
    events: Optional[int] = None

    @classmethod
    def legacy(cls, seed: Optional[int]) -> "PurposeSeeds":
        """The historical behaviour: every purpose reuses the same integer."""
        return cls(topology=seed, workload=seed, schedule=seed, algorithm=seed,
                   events=seed)


# A scenario derives its seeds once for each component it builds; the
# SeedSequence spawn costs ~0.1 ms, a third of a tiny cell's set-up.
@lru_cache(maxsize=64)
def purpose_seeds(seed: Optional[int], legacy: bool = False) -> PurposeSeeds:
    """Derive one independent child seed per purpose from a run seed.

    ``None`` (fresh OS entropy everywhere) and ``legacy=True`` (the
    historical reuse of one integer) pass the seed through unchanged so
    existing call sites and recorded trajectories stay reproducible.
    """
    if seed is None or legacy:
        return PurposeSeeds.legacy(seed)
    children = np.random.SeedSequence(int(seed)).spawn(len(SEED_PURPOSES))
    values = [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]
    return PurposeSeeds(*values)
