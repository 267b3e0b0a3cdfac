"""Experiment run store: append-only JSONL records plus regression reports.

Layer two and three of the observability subsystem (:mod:`repro.obs` is
layer one).  :mod:`repro.store.runstore` persists runs — configuration hash,
seeds, environment fingerprint, git revision, full result (trajectories
included) and timing envelope — as one JSONL line each;
:mod:`repro.store.report` renders cross-run comparison tables / trace charts
and gates CI on drift via :func:`check_store_regression`.  Performance is
recorded elsewhere: ``perfbench/`` (declared in ``BENCHMARK.json``) is the
end-to-end record, and ``tests/backend/test_speed_floors.py`` holds the
array-backend speed floors.
"""

from .report import (
    RegressionOutcome,
    RegressionViolation,
    check_regression,
    check_store_regression,
    comparison_rows,
    diff_rows,
    render_comparison,
)
from .runstore import (
    RunRecord,
    RunStore,
    canonical_json,
    config_hash,
    env_fingerprint,
    git_revision,
    record_run,
    record_sweep_outcomes,
    result_payload,
)

__all__ = [
    "RunRecord",
    "RunStore",
    "canonical_json",
    "config_hash",
    "env_fingerprint",
    "git_revision",
    "record_run",
    "record_sweep_outcomes",
    "result_payload",
    "RegressionOutcome",
    "RegressionViolation",
    "check_regression",
    "check_store_regression",
    "comparison_rows",
    "diff_rows",
    "render_comparison",
]
