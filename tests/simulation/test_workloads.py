"""Tests for the shared workload registry (:mod:`repro.simulation.workloads`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network import topologies
from repro.simulation import scenario as scenario_module
from repro.simulation import sweep as sweep_module
from repro.simulation.scenario import Scenario
from repro.simulation.sweep import SweepConfiguration, run_sweep
from repro.simulation.workloads import WORKLOADS

EXPECTED_NAMES = {"point", "two-point", "uniform", "half-nodes", "gradient", "balanced"}


class TestSharedRegistry:
    def test_registry_names(self):
        assert set(WORKLOADS) == EXPECTED_NAMES

    def test_sweep_and_scenario_share_one_registry(self):
        """The two entry points must select from the same object — no drift."""
        assert sweep_module.WORKLOADS is WORKLOADS
        assert scenario_module.WORKLOADS is WORKLOADS

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_every_workload_generates_integer_loads(self, name):
        network = topologies.torus(4, dims=2)
        load = WORKLOADS[name](network, 4, 7)
        load = np.asarray(load)
        assert load.shape == (network.num_nodes,)
        assert np.all(load >= 0)
        assert np.allclose(load, np.round(load))


class TestBothEntryPointsAcceptEveryName:
    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_sweep_accepts(self, name):
        config = SweepConfiguration(algorithm="algorithm1", topology="cycle",
                                    num_nodes=8, tokens_per_node=4, workload=name)
        result = run_sweep(config, seeds=[1])
        assert result.num_runs == 1

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_scenario_accepts(self, name):
        scenario = Scenario(name=f"w-{name}", algorithm="algorithm1",
                            topology="cycle", num_nodes=8, tokens_per_node=4,
                            workload=name)
        network = scenario.build_network()
        assert scenario.build_load(network).shape == (network.num_nodes,)
