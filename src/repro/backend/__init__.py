"""Load-state backends: object-per-token vs one columnar numpy state.

See :mod:`repro.backend.base` for how the ``backend=`` parameter threaded
through the simulation engine, the dynamic streaming engine and the CLI is
resolved, :mod:`repro.backend.weighted` for the columnar state and
:mod:`repro.backend.flow` for the one array round of Algorithms 1 and 2.
The literature baselines have no backend-specific code: each has one
implementation in :mod:`repro.discrete.baselines`.
"""

from .base import BACKEND_KINDS, BackendChoice, resolve_backend
from .flow import (
    ArrayDeterministicFlowImitation,
    ArrayFlowImitation,
    ArrayRandomizedFlowImitation,
)
from .weighted import WeightedRunState

__all__ = [
    "BACKEND_KINDS",
    "BackendChoice",
    "resolve_backend",
    "ArrayFlowImitation",
    "ArrayDeterministicFlowImitation",
    "ArrayRandomizedFlowImitation",
    "WeightedRunState",
]
