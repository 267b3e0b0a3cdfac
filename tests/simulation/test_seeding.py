"""Tests for per-purpose seed derivation (:mod:`repro.simulation.seeding`)."""

from __future__ import annotations

from dataclasses import replace

from repro.network import topologies
from repro.simulation.engine import run_algorithm
from repro.simulation.seeding import SEED_PURPOSES, PurposeSeeds, purpose_seeds
from repro.simulation.scenario import run_scenario
from repro.simulation.sweep import WORKLOADS, SweepConfiguration, run_sweep


class TestPurposeSeeds:
    def test_deterministic(self):
        assert purpose_seeds(42) == purpose_seeds(42)

    def test_all_purposes_distinct(self):
        seeds = purpose_seeds(7)
        values = [getattr(seeds, purpose) for purpose in SEED_PURPOSES]
        assert len(set(values)) == len(SEED_PURPOSES)

    def test_different_run_seeds_share_nothing(self):
        a, b = purpose_seeds(1), purpose_seeds(2)
        values_a = {a.topology, a.workload, a.schedule, a.algorithm}
        values_b = {b.topology, b.workload, b.schedule, b.algorithm}
        assert not values_a & values_b

    def test_none_passes_through(self):
        seeds = purpose_seeds(None)
        assert seeds == PurposeSeeds(None, None, None, None, None)

    def test_legacy_reuses_the_integer(self):
        assert purpose_seeds(5, legacy=True) == PurposeSeeds(5, 5, 5, 5, 5)

    def test_extending_purposes_kept_existing_streams(self):
        """Adding the "events" purpose must not move the first four seeds.

        SeedSequence children are keyed by spawn index, so the derived
        topology/workload/schedule/algorithm seeds are pinned forever; this
        guards the recorded-trajectory replay contract across purpose-tuple
        extensions.
        """
        import numpy as np

        children = np.random.SeedSequence(9).spawn(4)
        expected = [int(child.generate_state(1, dtype=np.uint64)[0])
                    for child in children]
        seeds = purpose_seeds(9)
        assert [seeds.topology, seeds.workload,
                seeds.schedule, seeds.algorithm] == expected


class TestSweepSeeding:
    CONFIG = SweepConfiguration(algorithm="algorithm2", topology="expander",
                                num_nodes=16, tokens_per_node=8, workload="uniform")

    def legacy_run(self, seed):
        return run_scenario(replace(self.CONFIG.scenario(seed), seeding="legacy"))

    def test_legacy_seeding_reproduces_the_historical_composition(self):
        """``seeding="legacy"`` must equal the old single-integer pipeline."""
        seed = 3
        run = self.legacy_run(seed)
        network = topologies.named_topology(self.CONFIG.topology,
                                            self.CONFIG.num_nodes, seed=seed)
        load = WORKLOADS[self.CONFIG.workload](network,
                                               self.CONFIG.tokens_per_node, seed)
        reference = run_algorithm(self.CONFIG.algorithm, network,
                                  initial_load=load, seed=seed)
        assert run.final_max_min == reference.final_max_min
        assert run.rounds == reference.rounds

    def test_hygienic_seeding_changes_the_draws(self):
        legacy = [self.legacy_run(seed) for seed in [1, 2, 3, 4]]
        hygienic = run_sweep(self.CONFIG, seeds=[1, 2, 3, 4])
        # Identical seeds, different component streams: at least one metric of
        # the four random runs should differ (same values would mean the
        # seeding mode is a no-op).
        assert ([run.final_max_min for run in legacy]
                != [run.final_max_min for run in hygienic.runs]
                or [run.rounds for run in legacy]
                != [run.rounds for run in hygienic.runs])

    def test_hygienic_seeding_reproducible(self):
        a = run_sweep(self.CONFIG, seeds=[5, 6])
        b = run_sweep(self.CONFIG, seeds=[5, 6])
        assert [run.final_max_min for run in a.runs] == \
            [run.final_max_min for run in b.runs]

    def test_matching_schedule_gets_its_own_stream(self):
        config = SweepConfiguration(algorithm="matching-round-down",
                                    topology="hypercube", num_nodes=16,
                                    tokens_per_node=8,
                                    continuous_kind="random-matching")
        a = run_sweep(config, seeds=[1, 2])
        b = run_sweep(config, seeds=[1, 2])
        assert [run.final_max_min for run in a.runs] == \
            [run.final_max_min for run in b.runs]
