"""Discrete baselines from the prior literature, used for the comparison tables."""

from .diffusion import (
    DiffusionBaseline,
    ExcessTokenDiffusion,
    QuasirandomDiffusion,
    RandomizedRoundingDiffusion,
    RoundDownDiffusion,
    RoundDownSecondOrder,
)
from .matching import (
    MatchingBaseline,
    RandomizedRoundingMatching,
    RoundDownMatching,
)
from .random_walk import RandomWalkFineBalancer, TwoPhaseRandomWalkBalancer

__all__ = [
    "DiffusionBaseline",
    "RoundDownDiffusion",
    "RoundDownSecondOrder",
    "QuasirandomDiffusion",
    "RandomizedRoundingDiffusion",
    "ExcessTokenDiffusion",
    "MatchingBaseline",
    "RoundDownMatching",
    "RandomizedRoundingMatching",
    "RandomWalkFineBalancer",
    "TwoPhaseRandomWalkBalancer",
]
