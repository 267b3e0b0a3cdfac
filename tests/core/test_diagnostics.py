"""Tests for the flow-imitation invariant auditor (:mod:`repro.core.diagnostics`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.continuous.fos import FirstOrderDiffusion
from repro.core.algorithm1 import DeterministicFlowImitation
from repro.core.diagnostics import AuditReport, FlowImitationAuditor, InvariantViolation
from repro.exceptions import ExperimentError, ProcessError
from repro.network import topologies
from repro.simulation.engine import run_algorithm
from repro.tasks.assignment import TaskAssignment
from repro.tasks.generators import point_load, weighted_assignment


def build_algorithm1(network, loads):
    assignment = TaskAssignment.from_unit_loads(network, loads)
    continuous = FirstOrderDiffusion(network, assignment.loads())
    return DeterministicFlowImitation(continuous, assignment)


class TestCleanRuns:
    @pytest.mark.parametrize("builder", [
        lambda: topologies.torus(5, dims=2),
        lambda: topologies.hypercube(4),
        lambda: topologies.random_regular(20, 4, seed=2),
        lambda: topologies.star(9),
    ])
    def test_algorithm1_runs_are_clean(self, builder):
        network = builder()
        result = run_algorithm("algorithm1", network,
                               initial_load=point_load(network, 16 * network.num_nodes),
                               max_rounds=50_000, backend="object", audit=True)
        report = result.extra["audit"]
        assert report["clean"], report["violations"]
        assert report["rounds_checked"] == result.rounds
        assert report["max_flow_error"] <= result.max_task_weight + 1e-9
        assert (report["max_load_deviation"]
                <= network.max_degree * result.max_task_weight + 1e-9)

    def test_algorithm2_runs_are_clean(self):
        network = topologies.torus(5, dims=2)
        result = run_algorithm("algorithm2", network,
                               initial_load=point_load(network, 25 * 32), rounds=30,
                               seed=3, backend="object", audit=True)
        assert result.extra["audit"]["clean"], result.extra["audit"]["violations"]

    def test_weighted_run_is_clean(self):
        network = topologies.random_regular(16, 4, seed=3)
        assignment = weighted_assignment(network, num_tasks=200, max_weight=4,
                                         placement="uniform", seed=5)
        result = run_algorithm("algorithm1", network, assignment=assignment, rounds=20,
                               backend="object", audit=True)
        assert result.extra["audit"]["clean"], result.extra["audit"]["violations"]

    def test_summary_mentions_rounds(self):
        """A caller driving its own balancer audits with ``check_round``."""
        network = topologies.cycle(8)
        balancer = build_algorithm1(network, point_load(network, 64))
        auditor = FlowImitationAuditor(balancer)
        for _ in range(5):
            balancer.advance()
            auditor.check_round()
        text = auditor.report.summary()
        assert "5 rounds" in text
        assert "clean" in text


class TestViolationDetection:
    def test_corrupted_bookkeeping_is_detected(self):
        """Tampering with the discrete cumulative flow must trip the auditor."""
        network = topologies.cycle(8)
        balancer = build_algorithm1(network, point_load(network, 64))
        auditor = FlowImitationAuditor(balancer)
        balancer.advance()
        balancer._discrete_cumulative[0] += 10.0  # corrupt the bookkeeping
        violations = auditor.check_round()
        assert violations
        kinds = {violation.invariant for violation in violations}
        assert "flow-error-bound" in kinds

    def test_conservation_violation_detected(self):
        network = topologies.cycle(8)
        balancer = build_algorithm1(network, point_load(network, 64))
        auditor = FlowImitationAuditor(balancer)
        balancer.advance()
        # Secretly remove a real task from the assignment.
        node = int(np.argmax(balancer.loads()))
        task = balancer.assignment.tasks_at(node)[0]
        balancer.assignment.remove(node, task)
        violations = auditor.check_round()
        assert any(violation.invariant == "conservation" for violation in violations)
        assert not auditor.report.clean

    def test_sos_violating_definition1_shows_up_as_dummy_usage_not_violation(self):
        """When the substrate induces negative load the auditor reports dummies, not bugs."""
        network = topologies.cycle(24)
        result = run_algorithm("algorithm1", network,
                               initial_load=point_load(network, 24 * 64),
                               continuous_kind="sos", rounds=40, backend="object",
                               audit=True)
        report = result.extra["audit"]
        # The flow-error bound (Observation 4) holds regardless of the substrate.
        assert all(violation["invariant"] != "flow-error-bound"
                   for violation in report["violations"])
        assert all(violation["invariant"] != "non-negativity"
                   for violation in report["violations"])
        assert report["dummy_tokens"] == result.dummy_tokens


class TestValidation:
    def test_only_flow_imitation_accepted(self):
        from repro.discrete.baselines.diffusion import RoundDownDiffusion

        network = topologies.cycle(6)
        baseline = RoundDownDiffusion(network, [6] * 6)
        with pytest.raises(ProcessError):
            FlowImitationAuditor(baseline)  # type: ignore[arg-type]

    def test_negative_rounds_rejected(self):
        network = topologies.cycle(6)
        with pytest.raises(ExperimentError, match="rounds must be non-negative"):
            run_algorithm("algorithm1", network, initial_load=[6] * 6, rounds=-1,
                          backend="object", audit=True)

    def test_report_dataclasses(self):
        report = AuditReport()
        assert report.clean
        violation = InvariantViolation(round_index=3, invariant="x", detail="d", magnitude=1.0)
        report.violations.append(violation)
        assert not report.clean


class TestAuditorTelemetry:
    """The auditor as a telemetry producer (satellite of the obs subsystem)."""

    def test_violations_emitted_on_the_bus(self):
        from repro.obs import EventLog, MetricsBus

        network = topologies.cycle(8)
        balancer = build_algorithm1(network, point_load(network, 64))
        bus = MetricsBus()
        auditor = FlowImitationAuditor(balancer, bus=bus)
        with EventLog(bus, kinds=["audit_violation"]) as log:
            balancer.advance()
            balancer._discrete_cumulative[0] += 10.0  # corrupt the bookkeeping
            violations = auditor.check_round()
        assert violations
        assert len(log.events) == len(violations)
        payload = log.events[0].payload
        assert payload["invariant"] == violations[0].invariant
        assert payload["magnitude"] == violations[0].magnitude
        assert log.events[0].round_index == violations[0].round_index

    def test_clean_rounds_emit_nothing(self):
        from repro.obs import EventLog, MetricsBus

        network = topologies.cycle(8)
        balancer = build_algorithm1(network, point_load(network, 64))
        bus = MetricsBus()
        auditor = FlowImitationAuditor(balancer, bus=bus)
        with EventLog(bus) as log:
            balancer.advance()
            assert auditor.check_round() == []
        assert log.events == []

    def test_array_backend_balancers_auditable(self):
        """The loosened FlowCoupledBalancer bound admits the array backend."""
        from repro.simulation.engine import run_algorithm

        network = topologies.cycle(8)
        result = run_algorithm("algorithm1", network,
                               initial_load=point_load(network, 64),
                               rounds=10, seed=3, backend="array", audit=True)
        assert result.extra["backend"] == "array"
        audit = result.extra["audit"]
        assert audit["clean"] is True
        assert audit["rounds_checked"] == 10

    def test_as_extra_round_trips_to_json(self):
        import json

        report = AuditReport()
        report.rounds_checked = 5
        report.violations.append(InvariantViolation(
            round_index=2, invariant="conservation", detail="d", magnitude=1.5))
        extra = report.as_extra()
        assert extra["clean"] is False
        assert extra["rounds_checked"] == 5
        assert extra["violations"][0]["invariant"] == "conservation"
        json.dumps(extra)  # JSON-friendly by construction


class TestEngineAuditIntegration:
    """run_algorithm(audit=True): the auditor rides the engine's record loop."""

    def test_audit_summary_lands_in_extra(self):
        from repro.simulation.engine import run_algorithm

        network = topologies.torus(4, dims=2)
        result = run_algorithm("algorithm1", network,
                               initial_load=point_load(network, 256),
                               rounds=10, seed=3, audit=True)
        audit = result.extra["audit"]
        assert audit["clean"] is True
        assert audit["rounds_checked"] == 10
        assert audit["violations"] == []

    def test_audit_does_not_change_the_trajectory(self):
        from repro.simulation.engine import run_algorithm

        network = topologies.torus(4, dims=2)
        kwargs = dict(initial_load=point_load(network, 256), rounds=10,
                      seed=3, record_trace=True)
        plain = run_algorithm("algorithm2", network, **kwargs)
        audited = run_algorithm("algorithm2", network, audit=True, **kwargs)
        assert audited.trace_max_min == plain.trace_max_min

    def test_audit_with_probe_interplay(self):
        """Auditor and probe share one bus without interfering."""
        from repro.obs import EventLog, MetricsBus
        from repro.simulation.engine import run_algorithm

        network = topologies.torus(4, dims=2)
        bus = MetricsBus()
        with EventLog(bus) as log:
            result = run_algorithm("algorithm1", network,
                                   initial_load=point_load(network, 256),
                                   rounds=8, seed=3, bus=bus, audit=True)
        assert len(log.of_kind("round")) == 8
        assert log.of_kind("audit_violation") == []
        assert result.extra["audit"]["clean"] is True
        assert result.extra["kernel_seconds"] > 0.0

    def test_audit_rejected_for_baselines(self):
        from repro.exceptions import ExperimentError
        from repro.simulation.engine import run_algorithm

        network = topologies.torus(4, dims=2)
        with pytest.raises(ExperimentError, match="audit=True requires"):
            run_algorithm("round-down", network,
                          initial_load=point_load(network, 256),
                          rounds=5, audit=True)
