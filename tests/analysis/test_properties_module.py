"""Tests for the property-checking utilities themselves (:mod:`repro.analysis.properties`).

The Lemma 1 checks for the real processes live in
``tests/continuous/test_lemma1_properties.py``; here we verify that the
checkers correctly *detect violations* by feeding them deliberately broken
processes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.properties import (
    PropertyReport,
    is_additive,
    is_terminating,
    max_additivity_violation,
    max_termination_violation,
)
from repro.continuous.base import ContinuousProcess, RoundFlows
from repro.continuous.fos import FirstOrderDiffusion
from repro.exceptions import ProcessError
from repro.network import topologies


class NonAdditiveProcess(ContinuousProcess):
    """Sends sqrt(x_u) over every edge — deliberately not additive."""

    def _compute_flows(self) -> RoundFlows:
        flows = RoundFlows(self.network)
        sources, targets = self.network.edge_endpoints
        flows.forward = 0.1 * np.sqrt(np.maximum(self._load[sources], 0.0))
        flows.backward = 0.1 * np.sqrt(np.maximum(self._load[targets], 0.0))
        return flows


class NonTerminatingProcess(ContinuousProcess):
    """Always sends one unit over every edge, even when balanced."""

    def _compute_flows(self) -> RoundFlows:
        flows = RoundFlows(self.network)
        flows.forward = np.ones(self.network.num_edges)
        return flows


class TestDetection:
    def test_detects_non_additive(self):
        net = topologies.cycle(6)
        factory = lambda load: NonAdditiveProcess(net, load)
        report = is_additive(factory, [9.0] * 6, [16.0] * 6, rounds=3)
        assert not report.holds
        assert report.max_violation > 0.01

    def test_detects_non_terminating(self):
        net = topologies.cycle(6)
        factory = lambda load: NonTerminatingProcess(net, load)
        report = is_terminating(factory, net, level=5.0, rounds=3)
        assert not report.holds

    def test_fos_passes_both(self):
        net = topologies.cycle(6)
        factory = lambda load: FirstOrderDiffusion(net, load)
        assert is_additive(factory, [3.0] * 6, [9.0, 0, 0, 0, 0, 0], rounds=5).holds
        assert is_terminating(factory, net, level=4.0, rounds=5).holds


class TestValidation:
    def test_rounds_must_be_positive(self):
        net = topologies.cycle(6)
        factory = lambda load: FirstOrderDiffusion(net, load)
        with pytest.raises(ProcessError):
            max_additivity_violation(factory, [1.0] * 6, [1.0] * 6, rounds=0)
        with pytest.raises(ProcessError):
            max_termination_violation(factory, net, level=1.0, rounds=0)

    def test_negative_level_rejected(self):
        net = topologies.cycle(6)
        factory = lambda load: FirstOrderDiffusion(net, load)
        with pytest.raises(ProcessError):
            max_termination_violation(factory, net, level=-1.0, rounds=2)

    def test_property_report_holds_respects_tolerance(self):
        report = PropertyReport("x", max_violation=0.5, tolerance=1.0)
        assert report.holds
        report2 = PropertyReport("x", max_violation=2.0, tolerance=1.0)
        assert not report2.holds
