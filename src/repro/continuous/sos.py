"""Second-order diffusion (SOS) with heterogeneous speeds.

The second order schedule (Muthukrishnan, Ghosh & Schultz; generalised to
speeds by Elsässer, Monien & Preis) is inspired by successive over-relaxation.
The first round is identical to FOS; subsequent rounds use

    ``y_{i,j}(t) = (beta - 1) * y_{i,j}(t-1) + beta * (alpha_{i,j}/s_i) * x_i(t)``

(Equation (4) of the paper), which yields the round equation
``x(t+1) = beta * x(t) P + (1 - beta) * x(t-1)``.  For the optimal
``beta = 2 / (1 + sqrt(1 - lambda^2))`` SOS converges in
``O(log(Kn) / sqrt(1 - lambda))`` rounds — quadratically faster than FOS in
terms of the spectral gap.

Unlike FOS, SOS *may* induce negative load (its outgoing demand can exceed
the available load); Definition 1 and the corresponding pre-condition of
Theorems 3 and 8 exist precisely because of this process.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..exceptions import ProcessError
from ..network.graph import Edge, Network
from ..network.spectral import AlphaScheme, alpha_array, alphas_to_array, sos_beta
from .base import ContinuousProcess, RoundFlows

__all__ = ["SecondOrderDiffusion"]


class SecondOrderDiffusion(ContinuousProcess):
    """The second-order diffusion process (SOS).

    Parameters
    ----------
    network:
        The network to balance on.
    initial_load:
        Initial load vector ``x(0)``.
    beta:
        Relaxation parameter in ``(0, 2]``.  ``None`` (default) selects the
        optimal value ``2 / (1 + sqrt(1 - lambda^2))`` from the spectrum of
        the diffusion matrix.
    alphas / scheme:
        Edge weights, as for :class:`~repro.continuous.fos.FirstOrderDiffusion`.
    """

    def __init__(
        self,
        network: Network,
        initial_load: Sequence[float],
        beta: Optional[float] = None,
        alphas: Optional[Dict[Edge, float]] = None,
        scheme: str = AlphaScheme.MAX_DEGREE_PLUS_ONE,
        check_negative_load: bool = False,
    ) -> None:
        super().__init__(network, initial_load, check_negative_load=check_negative_load)
        self._alpha_array = (alpha_array(network, scheme) if alphas is None
                             else alphas_to_array(network, alphas))
        if beta is None:
            beta = sos_beta(network, self._alpha_array)
        if not 0.0 < beta <= 2.0:
            raise ProcessError(f"beta must lie in (0, 2], got {beta}")
        self._beta = float(beta)
        speeds = network.speeds
        sources, targets = self.network.edge_endpoints
        self._rate_forward = self._alpha_array / speeds[sources]
        self._rate_backward = self._alpha_array / speeds[targets]

    @property
    def beta(self) -> float:
        """The relaxation parameter ``beta`` in use."""
        return self._beta

    @property
    def alphas(self) -> Dict[Edge, float]:
        """The symmetric edge weights used by this process (a fresh dict)."""
        return dict(zip(self.network.edges, self._alpha_array.tolist()))

    def _compute_flows(self) -> RoundFlows:
        sources, targets = self.network.edge_endpoints
        load = self._load
        fos_forward = self._rate_forward * load[sources]
        fos_backward = self._rate_backward * load[targets]
        if self.round_index == 0 or self.last_flows is None:
            forward = fos_forward
            backward = fos_backward
        else:
            beta = self._beta
            forward = (beta - 1.0) * self.last_flows.forward + beta * fos_forward
            backward = (beta - 1.0) * self.last_flows.backward + beta * fos_backward
        return RoundFlows(self.network, forward=forward, backward=backward)
