"""Per-round probes: turn a live balancer into a stream of telemetry events.

A :class:`RoundProbe` attaches to any :class:`~repro.discrete.base.DiscreteBalancer`
via :meth:`~repro.discrete.base.DiscreteBalancer.attach_probe`.  The balancer
calls :meth:`RoundProbe.after_round` once per executed round, handing over the
in-worker kernel time of that round; the probe reads the post-round state and
emits one ``"round"`` event on its :class:`~repro.obs.bus.MetricsBus`.

The probe is strictly read-only: it computes discrepancies from a copy of the
load vector and reads the already-recorded
:class:`~repro.core.flow_imitation.RoundReport` counters, so attaching it can
never change a trajectory.  When the bus has no subscriber the balancer skips
the probe bookkeeping entirely (see ``DiscreteBalancer.advance``), keeping
uninstrumented runs at a single attribute-check of overhead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..tasks.load import max_min_discrepancy
from .bus import MetricsBus
from .kernels import drain_round_phases

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..discrete.base import DiscreteBalancer

__all__ = ["RoundProbe"]


class RoundProbe:
    """Emit one structured ``"round"`` event per executed balancer round.

    Parameters
    ----------
    bus:
        The bus to publish on.
    source:
        Producer tag for the emitted events (``"engine"`` for static runs,
        ``"stream"`` for dynamic ones).
    context:
        Run-level constants replicated into every round payload (backend,
        rng mode, algorithm) so a subscriber can demultiplex interleaved runs
        without tracking ``run_start`` events.
    """

    def __init__(self, bus: MetricsBus, source: str = "engine",
                 context: Optional[Dict[str, object]] = None) -> None:
        self._bus = bus
        self._source = source
        self._context = dict(context or {})
        self._rounds_seen = 0
        self._kernel_seconds = 0.0

    @property
    def bus(self) -> MetricsBus:
        """The bus this probe publishes on."""
        return self._bus

    @property
    def rounds_seen(self) -> int:
        """How many rounds this probe has observed."""
        return self._rounds_seen

    @property
    def kernel_seconds(self) -> float:
        """Total in-kernel wall-clock of the observed rounds."""
        return self._kernel_seconds

    def wants_events(self) -> bool:
        """Whether emitting is worth the payload work right now."""
        return self._bus.active

    def after_round(self, balancer: "DiscreteBalancer", seconds: float) -> None:
        """Observe one executed round of ``balancer`` (read-only) and emit."""
        # imported here, not at module top: the kernels wrap their hot
        # sections in repro.obs.kernels phase blocks, so the core modules
        # import this package — a top-level import back into core would be
        # circular
        from ..core.flow_imitation import FlowCoupledBalancer

        self._rounds_seen += 1
        self._kernel_seconds += seconds
        if not self._bus.active:
            return
        loads = balancer.loads()
        payload: Dict[str, object] = dict(self._context)
        payload.update(
            kernel_seconds=seconds,
            max_min=max_min_discrepancy(loads, balancer.network),
            total_load=float(loads.sum()),
        )
        phases = drain_round_phases()
        if phases is not None:
            payload["kernel_phases"] = phases
        if isinstance(balancer, FlowCoupledBalancer):
            report = balancer._reports[-1] if balancer._reports else None
            if report is not None and report.round_index == balancer.round_index - 1:
                payload.update(
                    transfers=report.transfers,
                    tasks_moved=report.tasks_moved,
                    weight_moved=report.weight_moved,
                    dummy_tokens_round=report.dummy_tokens_created,
                )
            payload.update(
                dummy_tokens_total=balancer.dummy_tokens_created,
                used_infinite_source=balancer.used_infinite_source,
            )
        else:
            payload["went_negative"] = balancer.went_negative
        self._bus.emit("round", self._source,
                       round_index=balancer.round_index - 1, **payload)
