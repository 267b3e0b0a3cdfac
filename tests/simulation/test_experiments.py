"""Tests for the experiment harness (:mod:`repro.simulation.experiments`)."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import ExperimentError
from repro.network import topologies
from repro.simulation.experiments import (
    DEFAULT_TABLE1_ALGORITHMS,
    DEFAULT_TABLE2_ALGORITHMS,
    continuous_convergence_rows,
    convergence_trace_rows,
    format_table,
    initial_load_condition_rows,
    scaling_in_n_rows,
    table1_graph_families,
    table1_rows,
    table2_rows,
    theorem3_rows,
    theorem8_rows,
)


class TestGraphFamilies:
    def test_small_families(self):
        families = table1_graph_families(seed=1)
        assert set(families) == {"arbitrary (geometric)", "expander (4-regular)",
                                 "hypercube", "torus (2d)"}
        assert all(net.is_connected() for net in families.values())


class TestTableRows:
    def test_table1_rows_structure(self):
        rows = table1_rows(algorithms=("round-down", "algorithm1"),
                           tokens_per_node=8, seed=3)
        assert len(rows) == 4 * 2  # four graph families, two algorithms
        for row in rows:
            assert {"graph", "n", "degree", "algorithm", "rounds",
                    "max_min", "max_avg"} <= set(row)
            assert row["max_min"] >= 0

    def test_table2_rows_structure(self):
        rows = table2_rows(algorithms=("matching-round-down", "algorithm1"),
                           matching_kind="periodic-matching", tokens_per_node=8, seed=3)
        assert len(rows) == 4 * 2
        assert all(row["matching_kind"] == "periodic-matching" for row in rows)

    def test_table2_invalid_matching_kind(self):
        with pytest.raises(ExperimentError):
            table2_rows(matching_kind="quantum-matching")

    def test_default_algorithm_lists(self):
        assert "algorithm1" in DEFAULT_TABLE1_ALGORITHMS
        assert "algorithm2" in DEFAULT_TABLE1_ALGORITHMS
        assert "matching-round-down" in DEFAULT_TABLE2_ALGORITHMS


class TestTheoremRows:
    def test_theorem3_rows_within_bound(self):
        rows = theorem3_rows(degrees=(3,), max_weights=(1, 2), num_nodes=16,
                             tasks_per_node=8, max_speed=2, seed=5)
        assert len(rows) == 2
        for row in rows:
            assert not row["used_infinite_source"]
            assert row["max_min"] <= row["bound"] + 1e-9

    def test_theorem8_rows_structure(self):
        rows = theorem8_rows(dimensions=(3, 4), tokens_per_node=16, seeds=(1, 2))
        assert len(rows) == 2
        for row in rows:
            assert row["max_min_worst"] >= row["max_min_mean"] - 1e-12
            assert not row["used_infinite_source"]


class TestFigureRows:
    def test_scaling_rows(self):
        rows = scaling_in_n_rows(family="cycle", sizes=(8, 16),
                                 algorithms=("round-down", "algorithm1"),
                                 tokens_per_node=8, seed=1)
        assert len(rows) == 4
        ns = sorted({row["n"] for row in rows})
        assert ns == [8, 16]

    def test_convergence_trace_rows(self):
        net = topologies.torus(4, dims=2)
        rows = convergence_trace_rows(net, algorithms=("round-down", "algorithm1"),
                                      tokens_per_node=8, seed=1)
        algorithms = {row["algorithm"] for row in rows}
        assert algorithms == {"round-down", "algorithm1"}
        # The trace starts at the point-load discrepancy and is recorded per round.
        first = [row for row in rows if row["round"] == 0]
        assert all(row["max_min"] == pytest.approx(8 * 16) for row in first)

    def test_continuous_convergence_rows(self):
        rows = continuous_convergence_rows(tokens_per_node=8, seed=2)
        kinds = {row["kind"] for row in rows}
        assert kinds == {"fos", "sos", "periodic-matching", "random-matching"}
        assert all(row["measured_T"] > 0 for row in rows)
        assert all(0 <= row["lambda"] < 1 for row in rows)

    @pytest.mark.parametrize("algorithm,required", [
        ("algorithm1", 4.0),  # Theorem 3(2): d * w_max on the 6x6 torus
        ("algorithm2", 1.0 + 2.0 * math.sqrt(4 * math.log(36))),  # Theorem 8(2): 8.57
    ])
    def test_initial_load_condition_rows(self, algorithm, required):
        rows = initial_load_condition_rows(base_levels=(0, 4), tokens_on_hotspot=64,
                                           algorithm=algorithm, seed=1)
        assert len(rows) == 2
        assert [row["required_level"] for row in rows] == pytest.approx([required] * 2)
        # At (or above) the required level the infinite source must stay unused.
        above = [row for row in rows if row["base_level"] >= row["required_level"]]
        assert all(not row["used_infinite_source"] for row in above)


class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_alignment_and_floats(self):
        rows = [{"name": "a", "value": 1.23456, "flag": True},
                {"name": "bbbb", "value": 7.0, "flag": False}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.23" in text
        assert "yes" in text and "no" in text

    def test_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]
