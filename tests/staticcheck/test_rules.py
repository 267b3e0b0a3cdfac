"""Positive/negative fixture snippets for every rule (R001-R007)."""

from staticcheck_helpers import rule_ids


# --------------------------------------------------------------------- #
# R001 nondeterministic-rng
# --------------------------------------------------------------------- #


class TestNondeterministicRng:
    def test_global_random_module_draw_fires(self, check_snippet):
        report = check_snippet("""
            import random

            def jitter():
                return random.random()
        """)
        assert rule_ids(report) == ["R001"]
        assert "process-global RNG" in report.findings[0].message

    def test_np_random_module_draw_fires(self, check_snippet):
        report = check_snippet("""
            import numpy as np

            def noise(n):
                return np.random.rand(n)
        """)
        assert rule_ids(report) == ["R001"]

    def test_unseeded_default_rng_fires(self, check_snippet):
        report = check_snippet("""
            from numpy.random import default_rng

            def build():
                return default_rng()
        """)
        assert rule_ids(report) == ["R001"]

    def test_literal_seed_fires(self, check_snippet):
        report = check_snippet("""
            import numpy as np

            def build():
                return np.random.default_rng(1234)
        """)
        assert rule_ids(report) == ["R001"]

    def test_from_import_draw_fires(self, check_snippet):
        report = check_snippet("""
            from random import shuffle

            def scramble(items):
                shuffle(items)
        """)
        assert rule_ids(report) == ["R001"]

    def test_unseeded_random_class_fires(self, check_snippet):
        report = check_snippet("""
            import random

            def build():
                return random.Random()
        """)
        assert rule_ids(report) == ["R001"]

    def test_threaded_seed_is_clean(self, check_snippet):
        report = check_snippet("""
            import numpy as np

            def build(seed):
                return np.random.default_rng(seed)
        """)
        assert rule_ids(report) == []

    def test_derived_seed_expression_is_clean(self, check_snippet):
        report = check_snippet("""
            import random

            def backoff(position, attempt):
                return random.Random(position * 1000003 + attempt).random()
        """)
        assert rule_ids(report) == []

    def test_counter_rng_generators_are_clean(self, check_snippet):
        report = check_snippet("""
            import numpy as np

            def philox(key):
                return np.random.Generator(np.random.Philox(key=key))

            def spawn(seed, n):
                return np.random.SeedSequence(seed).spawn(n)
        """)
        assert rule_ids(report) == []

    def test_counter_rng_module_is_exempt(self, check_snippet):
        report = check_snippet("""
            import numpy as np

            def entropy():
                return int(np.random.default_rng().integers(1 << 63))
        """, relpath="src/repro/counter_rng.py")
        assert rule_ids(report) == []

    def test_faults_module_is_exempt(self, check_snippet):
        report = check_snippet("""
            import random

            def plan():
                return random.Random()
        """, relpath="src/repro/faults.py")
        assert rule_ids(report) == []

    def test_tests_are_exempt(self, check_snippet):
        report = check_snippet("""
            import random

            def test_something():
                assert random.random() >= 0
        """, relpath="tests/test_probe.py")
        assert rule_ids(report) == []


# --------------------------------------------------------------------- #
# R002 wall-clock-in-logic
# --------------------------------------------------------------------- #


class TestWallClockInLogic:
    def test_time_time_fires(self, check_snippet):
        report = check_snippet("""
            import time

            def stamp():
                return time.time()
        """)
        assert rule_ids(report) == ["R002"]

    def test_datetime_now_fires(self, check_snippet):
        report = check_snippet("""
            from datetime import datetime

            def stamp():
                return datetime.now()
        """)
        assert rule_ids(report) == ["R002"]

    def test_datetime_module_attribute_fires(self, check_snippet):
        report = check_snippet("""
            import datetime

            def stamp():
                return datetime.datetime.utcnow()
        """)
        assert rule_ids(report) == ["R002"]

    def test_from_import_perf_counter_fires(self, check_snippet):
        report = check_snippet("""
            from time import perf_counter

            def tick():
                return perf_counter()
        """)
        assert rule_ids(report) == ["R002"]

    def test_obs_layer_is_exempt(self, check_snippet):
        report = check_snippet("""
            import time

            def tick():
                return time.perf_counter()
        """, relpath="src/repro/obs/clock.py")
        assert rule_ids(report) == []

    def test_store_layer_is_exempt(self, check_snippet):
        report = check_snippet("""
            import time

            def stamp():
                return time.time()
        """, relpath="src/repro/store/meta.py")
        assert rule_ids(report) == []

    def test_sleep_is_not_a_clock_read(self, check_snippet):
        report = check_snippet("""
            import time

            def wait():
                time.sleep(0.1)
        """)
        assert rule_ids(report) == []

    def test_marked_timing_envelope_is_suppressed(self, check_snippet):
        report = check_snippet("""
            import time

            def timed(fn):
                start = time.perf_counter()  # repro: allow[R002] timing envelope
                fn()
                # repro: allow[R002] timing envelope
                return time.perf_counter() - start
        """)
        assert rule_ids(report) == []
        assert [f.rule_id for f in report.suppressed] == ["R002", "R002"]
        assert all(f.suppression_reason == "timing envelope"
                   for f in report.suppressed)


# --------------------------------------------------------------------- #
# R003 unordered-iteration-feeding-draws
# --------------------------------------------------------------------- #


class TestUnorderedIteration:
    def test_dict_view_loop_touching_rng_fires(self, check_snippet):
        report = check_snippet("""
            def round_step(requests, rng):
                for node in requests.keys():
                    rng.shuffle(node)
        """, relpath="src/repro/backend/kernel.py")
        assert rule_ids(report) == ["R003"]

    def test_set_call_loop_emitting_flow_fires(self, check_snippet):
        report = check_snippet("""
            def push(assignment, nodes):
                for node in set(nodes):
                    assignment.move(node, 0, 1)
        """, relpath="src/repro/core/push.py")
        assert rule_ids(report) == ["R003"]

    def test_set_literal_loop_updating_cumulative_flow_fires(self, check_snippet):
        report = check_snippet("""
            def accumulate(self):
                for edge in {1, 2, 3}:
                    self.cumulative_flows += edge
        """, relpath="src/repro/discrete/acc.py")
        assert rule_ids(report) == ["R003"]

    def test_comprehension_over_set_drawing_fires(self, check_snippet):
        report = check_snippet("""
            def draws(rng, edges):
                return [rng.random() for edge in set(edges)]
        """, relpath="src/repro/backend/comp.py")
        assert rule_ids(report) == ["R003"]

    def test_sorted_iteration_is_clean(self, check_snippet):
        report = check_snippet("""
            def round_step(requests, rng):
                for node in sorted(requests.keys()):
                    rng.shuffle(node)
        """, relpath="src/repro/backend/kernel.py")
        assert rule_ids(report) == []

    def test_unordered_loop_without_draws_is_clean(self, check_snippet):
        report = check_snippet("""
            def census(nodes):
                total = 0
                for node in set(nodes):
                    total += 1
                return total
        """, relpath="src/repro/backend/kernel.py")
        assert rule_ids(report) == []

    def test_list_iteration_with_rng_is_clean(self, check_snippet):
        report = check_snippet("""
            def round_step(edges, rng):
                for edge in edges:
                    rng.shuffle(edge)
        """, relpath="src/repro/backend/kernel.py")
        assert rule_ids(report) == []

    def test_outside_scoped_directories_is_clean(self, check_snippet):
        report = check_snippet("""
            def summarize(rows, rng):
                for row in set(rows):
                    rng.shuffle(row)
        """, relpath="src/repro/simulation/summary.py")
        assert rule_ids(report) == []


# --------------------------------------------------------------------- #
# R004 process-boundary-purity
# --------------------------------------------------------------------- #


class TestProcessBoundaryPurity:
    def test_callable_field_on_boundary_type_fires(self, check_snippet):
        report = check_snippet("""
            from dataclasses import dataclass
            from typing import Callable, Optional

            @dataclass(frozen=True)
            class GridCell:
                index: int
                on_done: Optional[Callable[[], None]] = None
        """, relpath="src/repro/simulation/cells.py")
        assert rule_ids(report) == ["R004"]
        assert "on_done" in report.findings[0].message

    def test_generator_field_fires(self, check_snippet):
        report = check_snippet("""
            from dataclasses import dataclass
            from typing import Iterator

            @dataclass
            class Scenario:
                name: str
                stream: Iterator[int]
        """, relpath="src/repro/simulation/spec.py")
        assert rule_ids(report) == ["R004"]

    def test_quoted_annotation_fires(self, check_snippet):
        report = check_snippet("""
            from dataclasses import dataclass

            @dataclass
            class FaultPlan:
                hook: "Callable[[int], None]"
        """, relpath="src/repro/plans.py")
        assert rule_ids(report) == ["R004"]

    def test_lambda_default_fires(self, check_snippet):
        report = check_snippet("""
            from dataclasses import dataclass

            @dataclass
            class StreamCheckpoint:
                transform: object = lambda state: state
        """, relpath="src/repro/snap.py")
        assert rule_ids(report) == ["R004"]

    def test_plain_data_fields_are_clean(self, check_snippet):
        report = check_snippet("""
            from dataclasses import dataclass, field
            from typing import Dict, List, Optional

            @dataclass(frozen=True)
            class GridCell:
                kind: str
                index: int
                seed: Optional[int] = None
                tags: List[str] = field(default_factory=list)
                extra: Dict[str, object] = field(default_factory=dict)
        """, relpath="src/repro/simulation/cells.py")
        assert rule_ids(report) == []

    def test_unregistered_class_is_ignored(self, check_snippet):
        report = check_snippet("""
            from dataclasses import dataclass
            from typing import Callable

            @dataclass
            class LocalHelper:
                fn: Callable[[], None]
        """)
        assert rule_ids(report) == []

    def test_non_dataclass_is_ignored(self, check_snippet):
        report = check_snippet("""
            from typing import Callable

            class GridCell:
                fn: Callable[[], None]
        """)
        assert rule_ids(report) == []


# --------------------------------------------------------------------- #
# R005 kernel-phase-coverage
# --------------------------------------------------------------------- #


class TestKernelPhaseCoverage:
    def test_unwrapped_execute_round_fires(self, check_snippet):
        report = check_snippet("""
            class Kernel:
                def _execute_round(self):
                    self._do_work()
        """, relpath="src/repro/backend/kern.py")
        assert rule_ids(report) == ["R005"]

    def test_unwrapped_advance_fires(self, check_snippet):
        report = check_snippet("""
            class Kernel:
                def advance(self):
                    self._step()
        """, relpath="src/repro/backend/kern.py")
        assert rule_ids(report) == ["R005"]

    def test_core_flow_imitation_is_in_scope(self, check_snippet):
        report = check_snippet("""
            class Balancer:
                def _execute_round(self):
                    self._imitate_round()
        """, relpath="src/repro/core/flow_imitation.py")
        assert rule_ids(report) == ["R005"]

    def test_kernel_phase_block_is_clean(self, check_snippet):
        report = check_snippet("""
            from repro.obs.kernels import kernel_phase

            class Kernel:
                def _execute_round(self):
                    with kernel_phase("flow/test-round"):
                        self._do_work()
        """, relpath="src/repro/backend/kern.py")
        assert rule_ids(report) == []

    def test_abstract_round_is_clean(self, check_snippet):
        report = check_snippet("""
            from abc import ABC, abstractmethod

            class Base(ABC):
                @abstractmethod
                def _execute_round(self):
                    ...
        """, relpath="src/repro/backend/base.py")
        assert rule_ids(report) == []

    def test_stub_body_is_clean(self, check_snippet):
        report = check_snippet("""
            class Declared:
                def _execute_round(self):
                    \"\"\"Subclasses override.\"\"\"
                    raise NotImplementedError
        """, relpath="src/repro/backend/decl.py")
        assert rule_ids(report) == []

    def test_other_core_modules_are_out_of_scope(self, check_snippet):
        report = check_snippet("""
            class Helper:
                def _execute_round(self):
                    self._do_work()
        """, relpath="src/repro/core/diagnostics.py")
        assert rule_ids(report) == []

    def test_other_method_names_are_clean(self, check_snippet):
        report = check_snippet("""
            class Kernel:
                def _plan_round(self):
                    self._do_work()
        """, relpath="src/repro/backend/kern.py")
        assert rule_ids(report) == []


# --------------------------------------------------------------------- #
# R006 edge-list-rebuild
# --------------------------------------------------------------------- #


class TestEdgeListRebuild:
    def test_fromiter_over_edges_fires(self, check_snippet):
        report = check_snippet("""
            import numpy as np

            def endpoints(network):
                return np.fromiter((u for u, _ in network.edges), dtype=np.int64,
                                   count=network.num_edges)
        """, relpath="src/repro/backend/kern.py")
        assert rule_ids(report) == ["R006"]
        assert "edge_endpoints" in report.findings[0].message

    def test_fromiter_over_an_edges_alias_fires(self, check_snippet):
        report = check_snippet("""
            import numpy as np

            def endpoints(network):
                edges = network.edges
                return np.fromiter((v for _, v in edges), dtype=int, count=len(edges))
        """, relpath="src/repro/continuous/proc.py")
        assert rule_ids(report) == ["R006"]

    def test_edges_subscript_in_for_loop_fires(self, check_snippet):
        report = check_snippet("""
            def requests(network, residual):
                out = []
                for index, value in enumerate(residual):
                    u, v = network.edges[index]
                    out.append((u, v, value))
                return out
        """, relpath="src/repro/core/plan.py")
        assert rule_ids(report) == ["R006"]
        assert "inside a loop" in report.findings[0].message

    def test_edges_subscript_in_while_and_comprehension_fire(self, check_snippet):
        report = check_snippet("""
            def pick(self, indices):
                firsts = [self.network.edges[i][0] for i in indices]
                while indices:
                    firsts.append(self.network.edges[indices.pop()])
                return firsts
        """, relpath="src/repro/discrete/pick.py")
        assert rule_ids(report) == ["R006", "R006"]

    def test_cached_endpoint_arrays_are_clean(self, check_snippet):
        report = check_snippet("""
            import numpy as np

            def requests(network, residual):
                edge_u, edge_v = network.edge_endpoints
                active = np.flatnonzero(residual)
                return list(zip(edge_u[active].tolist(), edge_v[active].tolist()))
        """, relpath="src/repro/core/plan.py")
        assert rule_ids(report) == []

    def test_single_lookup_outside_a_loop_is_clean(self, check_snippet):
        report = check_snippet("""
            import numpy as np

            def worst_edge(network, errors):
                return network.edges[int(np.argmax(np.abs(errors)))]
        """, relpath="src/repro/core/diag.py")
        assert rule_ids(report) == []

    def test_loop_iterable_is_evaluated_once(self, check_snippet):
        report = check_snippet("""
            def head(network):
                for u, v in network.edges[:4]:
                    print(u, v)
        """, relpath="src/repro/core/diag.py")
        assert rule_ids(report) == []

    def test_networkx_edges_call_is_clean(self, check_snippet):
        report = check_snippet("""
            import numpy as np

            def sources(graph):
                return np.fromiter((u for u, _ in graph.edges()), dtype=int)
        """, relpath="src/repro/dynamic/stream.py")
        assert rule_ids(report) == []

    def test_network_package_is_out_of_scope(self, check_snippet):
        report = check_snippet("""
            import numpy as np

            def endpoints(network):
                return np.fromiter((u for u, _ in network.edges), dtype=np.int64)
        """, relpath="src/repro/network/graph.py")
        assert rule_ids(report) == []

    def test_tests_are_out_of_scope(self, check_snippet):
        report = check_snippet("""
            def test_lookup(network):
                for index in range(network.num_edges):
                    assert network.edges[index]
        """, relpath="tests/network/test_lookup.py")
        assert rule_ids(report) == []


# --------------------------------------------------------------------- #
# R007 networkx-on-run-path
# --------------------------------------------------------------------- #


class TestNetworkxOnRunPath:
    def test_import_networkx_fires(self, check_snippet):
        report = check_snippet("""
            import networkx as nx

            def connected(network):
                return nx.is_connected(network.graph)
        """, relpath="src/repro/core/check.py")
        assert rule_ids(report) == ["R007"]
        assert "Network.graph" in report.findings[0].message

    def test_submodule_and_from_imports_fire(self, check_snippet):
        report = check_snippet("""
            import networkx.algorithms
            from networkx import is_connected
            from networkx.algorithms import coloring
        """, relpath="src/repro/simulation/sweep.py")
        assert rule_ids(report) == ["R007", "R007", "R007"]

    def test_lookalike_modules_are_clean(self, check_snippet):
        report = check_snippet("""
            import networkxx
            from .networkx import helper
            from repro.network import topologies
        """, relpath="src/repro/simulation/sweep.py")
        assert rule_ids(report) == []

    def test_marked_line_is_suppressed(self, check_snippet):
        report = check_snippet("""
            import networkx as nx  # repro: allow[R007] analysis helper
        """, relpath="src/repro/simulation/locality.py")
        assert rule_ids(report) == []

    def test_adapter_generators_and_tests_are_out_of_scope(self, check_snippet):
        source = """
            import networkx as nx
        """
        assert rule_ids(check_snippet(source, relpath="src/repro/network/graph.py")) == []
        assert rule_ids(check_snippet(source, relpath="src/repro/network/topologies.py")) == []
        assert rule_ids(check_snippet(source, relpath="tests/network/test_graph.py")) == []

    def test_rest_of_network_package_fires(self, check_snippet):
        # the edge colouring is built from Network's arrays; networkx is its
        # test oracle only
        report = check_snippet("""
            import networkx as nx

            def line_graph(network):
                return nx.line_graph(network.graph)
        """, relpath="src/repro/network/matchings.py")
        assert rule_ids(report) == ["R007"]
        assert "network/graph.py" in report.findings[0].message
