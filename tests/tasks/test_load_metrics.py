"""Unit tests for :mod:`repro.tasks.load` (makespans, discrepancies, potential)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TaskError
from repro.network import topologies
from repro.tasks.load import (
    as_load_vector,
    as_token_counts,
    balanced_allocation,
    makespans,
    max_avg_discrepancy,
    max_min_discrepancy,
    min_avg_discrepancy,
    quadratic_potential,
    summarize_loads,
)


@pytest.fixture
def net():
    return topologies.cycle(4)


@pytest.fixture
def speedy():
    return topologies.cycle(4).with_speeds([1, 1, 2, 4])


class TestValidation:
    def test_as_load_vector_roundtrip(self, net):
        vector = as_load_vector([1, 2, 3, 4], net)
        np.testing.assert_array_equal(vector, [1, 2, 3, 4])

    def test_wrong_length(self, net):
        with pytest.raises(TaskError):
            as_load_vector([1, 2], net)

    def test_token_counts_reject_large_fractional_loads(self, net):
        """The integer check is absolute: no relative slack at scale."""
        with pytest.raises(TaskError, match="integer token loads"):
            as_token_counts([2_000_000.3, 0, 0, 0], net)
        counts = as_token_counts([2_000_000.0, 0, 0, 1], net)
        assert counts.dtype == np.int64 and counts.tolist() == [2_000_000, 0, 0, 1]

    def test_token_counts_keep_every_token_above_2_to_the_53(self):
        """Integer counts are taken exactly, not through float64."""
        torus = topologies.torus(3)
        counts = as_token_counts(np.full(9, 2**53 + 1), torus)
        assert counts.dtype == np.int64 and counts.tolist() == [2**53 + 1] * 9
        assert as_token_counts([2**62 + 1] + [0] * 8, torus).tolist() == [2**62 + 1] + [0] * 8

    @pytest.mark.parametrize("loads", [np.arange(4, dtype=np.int32), np.arange(4, dtype=np.uint8),
                                       np.arange(4, dtype=np.int64), [0, 1, 2, 3]])
    def test_integer_token_counts_come_back_as_a_fresh_int64_array(self, net, loads):
        counts = as_token_counts(loads, net)
        assert counts.dtype == np.int64 and counts.tolist() == [0, 1, 2, 3]
        counts[0] = 7
        assert loads[0] == 0

    @pytest.mark.parametrize("loads", [np.array([1, -1, 0, 0]), [1, -1, 0, 0],
                                       np.array([2**64 - 1, 0, 0, 0], dtype=np.uint64)])
    def test_negative_integer_token_counts_rejected(self, net, loads):
        with pytest.raises(TaskError, match="non-negative"):
            as_token_counts(loads, net)

    def test_integer_token_counts_of_the_wrong_length_rejected(self, net):
        with pytest.raises(TaskError, match="length 4"):
            as_token_counts(np.arange(3), net)

    def test_non_finite(self, net):
        with pytest.raises(TaskError):
            as_load_vector([1, np.nan, 2, 3], net)


class TestBalancedAllocation:
    def test_uniform(self, net):
        np.testing.assert_allclose(balanced_allocation(8, net), [2, 2, 2, 2])

    def test_with_speeds(self, speedy):
        np.testing.assert_allclose(balanced_allocation(16, speedy), [2, 2, 4, 8])


class TestDiscrepancies:
    def test_makespans(self, speedy):
        np.testing.assert_allclose(makespans([1, 2, 4, 8], speedy), [1, 2, 2, 2])

    def test_max_min_uniform(self, net):
        assert max_min_discrepancy([5, 1, 3, 3], net) == 4.0

    def test_max_min_balanced_is_zero(self, speedy):
        balanced = balanced_allocation(24, speedy)
        assert max_min_discrepancy(balanced, speedy) == pytest.approx(0.0)

    def test_max_avg(self, net):
        # total 12 over capacity 4 -> average 3; max load 6.
        assert max_avg_discrepancy([6, 2, 2, 2], net) == pytest.approx(3.0)

    def test_max_avg_with_reference_weight(self, net):
        # Reported loads include 4 units of padding that the average should ignore.
        value = max_avg_discrepancy([6, 2, 2, 2], net, total_weight=8)
        assert value == pytest.approx(4.0)

    def test_min_avg(self, net):
        assert min_avg_discrepancy([6, 2, 2, 2], net) == pytest.approx(1.0)

    def test_max_avg_le_max_min_plus_avg_identity(self, speedy):
        """max-avg <= max-min always (the average lies between min and max makespan)."""
        loads = [7, 3, 5, 9]
        assert max_avg_discrepancy(loads, speedy) <= max_min_discrepancy(loads, speedy) + 1e-12


class TestPotential:
    def test_balanced_potential_zero(self, speedy):
        balanced = balanced_allocation(32, speedy)
        assert quadratic_potential(balanced, speedy) == pytest.approx(0.0)

    def test_point_load_potential(self, net):
        # loads (4,0,0,0): target 1 each, Phi = 9 + 1 + 1 + 1 = 12.
        assert quadratic_potential([4, 0, 0, 0], net) == pytest.approx(12.0)

    def test_potential_decreases_toward_balance(self, net):
        assert quadratic_potential([4, 0, 0, 0], net) > quadratic_potential([2, 1, 1, 0], net)


class TestSummary:
    def test_summary_consistency(self, speedy):
        loads = [3, 1, 6, 6]
        summary = summarize_loads(loads, speedy)
        assert summary.total_weight == 16
        assert summary.max_makespan == pytest.approx(3.0)
        assert summary.min_makespan == pytest.approx(1.0)
        assert summary.max_min_discrepancy == pytest.approx(2.0)
        assert summary.average_makespan == pytest.approx(2.0)
        assert summary.max_avg_discrepancy == pytest.approx(1.0)
        assert summary.potential == pytest.approx(quadratic_potential(loads, speedy))

    def test_summary_as_dict_keys(self, net):
        summary = summarize_loads([1, 1, 1, 1], net)
        data = summary.as_dict()
        assert set(data) == {
            "total_weight", "max_makespan", "min_makespan", "average_makespan",
            "max_min_discrepancy", "max_avg_discrepancy", "potential",
        }
