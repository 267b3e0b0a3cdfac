"""Static determinism-and-invariants analysis (``repro check``).

The dynamic test suite proves this library's replayability guarantees by
*running* the code — permutation tests for order-free counter draws,
worker-count invariance for parallel merges, kill-at-every-round
checkpoint/resume identity.  This package is their static counterpart: an
AST pass that makes the same invariants reviewable at diff time, before one
unseeded draw or stray clock read silently breaks replay.

Usage::

    repro check src                  # text report, exit 0/1/2
    repro check src --format json    # machine-readable findings
    repro check --list-rules         # the rule registry

Suppress an intentional finding with a trailing (or immediately preceding,
standalone) comment naming the rule and the reason::

    start = time.perf_counter()  # repro: allow[R002] cell timing envelope

See :mod:`repro.staticcheck.rules` for the rule registry (R001-R007) and
:mod:`repro.staticcheck.engine` for the visitor framework.
"""

from .engine import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    CheckReport,
    ModuleContext,
    Rule,
    RuleVisitor,
    Suppression,
    VisitorRule,
    check_paths,
    parse_suppressions,
    render_json,
    render_text,
)
from .findings import Finding
from .rules import ALL_RULES, BOUNDARY_TYPES, RULES_BY_ID
from .runner import rule_table, run_check

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_ERROR",
    "Finding",
    "CheckReport",
    "ModuleContext",
    "Rule",
    "RuleVisitor",
    "Suppression",
    "VisitorRule",
    "check_paths",
    "parse_suppressions",
    "render_json",
    "render_text",
    "ALL_RULES",
    "RULES_BY_ID",
    "BOUNDARY_TYPES",
    "rule_table",
    "run_check",
]
