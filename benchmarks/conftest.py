"""Shared helpers for the pytest-benchmark entry points of the CI gate scripts.

``bench_backend_speedup.py``, ``bench_parallel_scaling.py`` and
``bench_fault_recovery.py`` each run their measurement once under
``pytest-benchmark`` and print the rows as a plain-text table.  The paper's
tables and claims are evaluated by ``repro claims`` (:mod:`repro.simulation.claims`).
"""

from __future__ import annotations

from typing import Callable, Dict, List

import pytest


def run_once(benchmark, function: Callable[[], List[Dict[str, object]]]):
    """Execute an experiment exactly once under pytest-benchmark and return its rows."""
    return benchmark.pedantic(function, rounds=1, iterations=1, warmup_rounds=0)


def print_table(title: str, text: str) -> None:
    """Print a titled table so it shows up in the benchmark output."""
    print(f"\n=== {title} ===")
    print(text)
