"""Runtime invariant auditing for flow-imitation runs.

The correctness argument of the paper rests on a small number of per-round
invariants (Observations 4, 5 and 9; Lemmas 2 and 6).  The
:class:`FlowImitationAuditor` re-checks them after every round of a live run,
which serves two purposes:

* **validation** — the test-suite and the benchmarks can assert that an
  entire run never violated an invariant, not just its final state;
* **debugging** — users who plug their own continuous process into the
  framework (via :class:`~repro.continuous.general.GeneralLinearProcess`)
  get an immediate, localised report if that process breaks the assumptions
  (e.g. it is not additive, or it induces negative load).

The auditor is intentionally non-intrusive: it wraps an existing balancer and
observes it; it never changes the run.  The audited driver is
:func:`repro.simulation.engine.run_algorithm` with ``audit=True``, which
calls :meth:`FlowImitationAuditor.check_round` after every round; callers who
drive their own balancer call it themselves.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..exceptions import ProcessError
from .flow_imitation import FlowCoupledBalancer

__all__ = ["InvariantViolation", "AuditReport", "FlowImitationAuditor"]


@dataclass(frozen=True)
class InvariantViolation:
    """One detected violation of a paper invariant."""

    round_index: int
    invariant: str
    detail: str
    magnitude: float


@dataclass
class AuditReport:
    """Aggregate outcome of auditing a run."""

    rounds_checked: int = 0
    violations: List[InvariantViolation] = field(default_factory=list)
    max_flow_error: float = 0.0
    max_load_deviation: float = 0.0
    dummy_tokens: int = 0

    @property
    def clean(self) -> bool:
        """Whether no invariant was violated over the audited rounds."""
        return not self.violations

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "clean" if self.clean else f"{len(self.violations)} violation(s)"
        return (f"audited {self.rounds_checked} rounds: {status}; "
                f"max |flow error| = {self.max_flow_error:.3f}, "
                f"max |load deviation| = {self.max_load_deviation:.3f}, "
                f"dummy tokens = {self.dummy_tokens}")

    def as_extra(self) -> Dict[str, object]:
        """JSON-friendly view for ``RunResult.extra["audit"]``."""
        return {
            "rounds_checked": self.rounds_checked,
            "clean": self.clean,
            "max_flow_error": self.max_flow_error,
            "max_load_deviation": self.max_load_deviation,
            "dummy_tokens": self.dummy_tokens,
            "violations": [asdict(violation) for violation in self.violations],
        }


class FlowImitationAuditor:
    """Checks the paper's per-round invariants on a live flow-imitation run.

    Parameters
    ----------
    balancer:
        The :class:`~repro.core.flow_imitation.FlowCoupledBalancer` to audit
        — either backend: the audited quantities (flow errors, load
        deviation, dummy counters) are representation-agnostic.
    tolerance:
        Numerical slack added to every bound before reporting a violation.
    bus:
        Optional :class:`~repro.obs.bus.MetricsBus`: every violation found by
        :meth:`check_round` is additionally emitted as an
        ``"audit_violation"`` telemetry event.

    The audited invariants:

    * **Observation 4 / 9** — per-edge flow error bounded by ``w_max``;
    * **Lemma 6** — per-node deviation from the continuous load bounded by
      ``d * w_max`` while the infinite source is unused, and equal to the sum
      of the incident edge errors;
    * **conservation** — the real (non-dummy) workload is conserved exactly;
    * **non-negativity** — discrete loads never go negative.
    """

    def __init__(self, balancer: FlowCoupledBalancer, tolerance: float = 1e-9,
                 bus=None) -> None:
        if not isinstance(balancer, FlowCoupledBalancer):
            raise ProcessError("the auditor only audits flow-imitation balancers")
        self._balancer = balancer
        self._tolerance = float(tolerance)
        self._bus = bus
        self._report = AuditReport()
        self._original_weight = balancer.original_weight

    @property
    def report(self) -> AuditReport:
        """The audit report accumulated so far."""
        return self._report

    def check_round(self) -> List[InvariantViolation]:
        """Check all invariants against the balancer's current state.

        Returns the violations found in this check (also appended to the
        report).  Call this after every :meth:`advance` of the balancer.
        """
        balancer = self._balancer
        network = balancer.network
        round_index = balancer.round_index
        found: List[InvariantViolation] = []

        # Observation 4 / 9: |e_{i,j}| <= w_max.
        errors = balancer.flow_errors()
        worst_error = float(np.max(np.abs(errors))) if errors.size else 0.0
        self._report.max_flow_error = max(self._report.max_flow_error, worst_error)
        if worst_error > balancer.w_max + self._tolerance:
            edge = network.edges[int(np.argmax(np.abs(errors)))]
            found.append(InvariantViolation(
                round_index, "flow-error-bound",
                f"|e{edge}| = {worst_error:.4f} > w_max = {balancer.w_max}", worst_error))

        # Lemma 6: node deviation equals the sum of incident edge errors and is
        # bounded by d * w_max, as long as the infinite source is unused.
        if not balancer.used_infinite_source:
            deviation = balancer.load_deviation()
            worst_deviation = float(np.max(np.abs(deviation))) if deviation.size else 0.0
            self._report.max_load_deviation = max(self._report.max_load_deviation,
                                                  worst_deviation)
            bound = network.max_degree * balancer.w_max
            if worst_deviation > bound + self._tolerance:
                node = int(np.argmax(np.abs(deviation)))
                found.append(InvariantViolation(
                    round_index, "load-deviation-bound",
                    f"|x^D_{node} - x^A_{node}| = {worst_deviation:.4f} > d*w_max = {bound}",
                    worst_deviation))
            reconstructed = self._deviation_from_edge_errors(errors)
            mismatch = float(np.max(np.abs(deviation - reconstructed)))
            if mismatch > 1e-6:
                found.append(InvariantViolation(
                    round_index, "lemma6-identity",
                    f"deviation differs from sum of incident edge errors by {mismatch:.4f}",
                    mismatch))

        # Conservation of the real workload.
        real_total = float(balancer.loads(include_dummies=False).sum())
        drift = abs(real_total - self._original_weight)
        if drift > 1e-6:
            found.append(InvariantViolation(
                round_index, "conservation",
                f"real workload drifted by {drift:.6f}", drift))

        # Discrete loads never negative.
        loads = balancer.loads()
        minimum = float(loads.min()) if loads.size else 0.0
        if minimum < -self._tolerance:
            node = int(np.argmin(loads))
            found.append(InvariantViolation(
                round_index, "non-negativity",
                f"node {node} has negative discrete load {minimum:.4f}", -minimum))

        self._report.rounds_checked += 1
        self._report.dummy_tokens = balancer.dummy_tokens_created
        self._report.violations.extend(found)
        if self._bus is not None and found:
            for violation in found:
                self._bus.emit("audit_violation", "auditor",
                               round_index=violation.round_index,
                               invariant=violation.invariant,
                               detail=violation.detail,
                               magnitude=violation.magnitude)
        return found

    def _deviation_from_edge_errors(self, errors: np.ndarray) -> np.ndarray:
        """Lemma 6(1): x^D_i - x^A_i = sum over incident edges of e_{i,j}."""
        network = self._balancer.network
        edge_u, edge_v = network.edge_endpoints
        # errors[k] is e_{u,v} (canonical direction); e_{v,u} = -e_{u,v}.
        # A positive e_{u,v} means the discrete process still owes flow to v,
        # i.e. node u currently retains more load than its continuous twin.
        n = network.num_nodes
        return (np.bincount(edge_u, weights=errors, minlength=n)
                - np.bincount(edge_v, weights=errors, minlength=n))
