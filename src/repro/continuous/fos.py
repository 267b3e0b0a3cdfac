"""First-order diffusion (FOS) with heterogeneous speeds.

The first order schedule (Cybenko; Boillat; generalised to speeds by
Elsässer, Monien & Preis) transfers, in every round and over every edge,

    ``y_{i,j}(t) = (alpha_{i,j} / s_i) * x_i(t)``            (Equation (1))

so that the load evolves as ``x(t+1) = x(t) P`` for the diffusion matrix
``P`` built in :mod:`repro.network.spectral`.  FOS is additive and
terminating (Lemma 1) and never induces negative load because
``sum_j alpha_{i,j} < s_i``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..network.graph import Edge, Network
from ..network.spectral import AlphaScheme, alpha_array, alphas_to_array
from .base import ContinuousProcess, RoundFlows

__all__ = ["FirstOrderDiffusion"]


class FirstOrderDiffusion(ContinuousProcess):
    """The first-order diffusion process (FOS).

    Parameters
    ----------
    network:
        The network to balance on.
    initial_load:
        Initial load vector ``x(0)``.
    alphas:
        Optional explicit symmetric edge weights ``alpha_{i,j}`` (mapping from
        canonical edge to value).  When omitted they are derived from
        ``scheme``.
    scheme:
        One of the :class:`~repro.network.spectral.AlphaScheme` names; ignored
        when ``alphas`` is given.
    """

    def __init__(
        self,
        network: Network,
        initial_load: Sequence[float],
        alphas: Optional[Dict[Edge, float]] = None,
        scheme: str = AlphaScheme.MAX_DEGREE_PLUS_ONE,
        check_negative_load: bool = False,
    ) -> None:
        super().__init__(network, initial_load, check_negative_load=check_negative_load)
        self._alpha_array = (alpha_array(network, scheme) if alphas is None
                             else alphas_to_array(network, alphas))
        speeds = network.speeds
        sources, targets = self.network.edge_endpoints
        # Pre-compute the per-edge transfer rates alpha_e / s_u and alpha_e / s_v.
        self._rate_forward = self._alpha_array / speeds[sources]
        self._rate_backward = self._alpha_array / speeds[targets]

    @property
    def alphas(self) -> Dict[Edge, float]:
        """The symmetric edge weights used by this process (a fresh dict)."""
        return dict(zip(self.network.edges, self._alpha_array.tolist()))

    def _compute_flows(self) -> RoundFlows:
        sources, targets = self.network.edge_endpoints
        load = self._load
        forward = self._rate_forward * load[sources]
        backward = self._rate_backward * load[targets]
        return RoundFlows(self.network, forward=forward, backward=backward)

