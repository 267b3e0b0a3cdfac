"""Simulation engine, result records and the experiment harness."""

from .engine import (
    ALL_ALGORITHMS,
    BACKEND_KINDS,
    CONTINUOUS_KINDS,
    DIFFUSION_BASELINES,
    FLOW_IMITATION_ALGORITHMS,
    MATCHING_BASELINES,
    compare_algorithms,
    determine_balancing_time,
    make_balancer,
    make_continuous,
    make_schedule,
    run_algorithm,
)
from .locality import DisplacementSummary, summarize_displacements, task_displacements
from .parallel import CellOutcome, GridCell, merge_sweeps, run_cells, sweep_cells
from .results import RunResult
from .scenario import Scenario, expand_seeds, load_scenario, run_scenario
from .seeding import PurposeSeeds, purpose_seeds
from .sweep import SweepConfiguration, SweepResult, run_sweep
from .workloads import WORKLOADS
from . import experiments, reporting

__all__ = [
    "DisplacementSummary",
    "summarize_displacements",
    "task_displacements",
    "Scenario",
    "load_scenario",
    "run_scenario",
    "expand_seeds",
    "SweepConfiguration",
    "SweepResult",
    "run_sweep",
    "WORKLOADS",
    "PurposeSeeds",
    "purpose_seeds",
    "GridCell",
    "CellOutcome",
    "run_cells",
    "sweep_cells",
    "merge_sweeps",
    "reporting",
    "ALL_ALGORITHMS",
    "BACKEND_KINDS",
    "CONTINUOUS_KINDS",
    "DIFFUSION_BASELINES",
    "FLOW_IMITATION_ALGORITHMS",
    "MATCHING_BASELINES",
    "compare_algorithms",
    "determine_balancing_time",
    "make_continuous",
    "make_schedule",
    "make_balancer",
    "run_algorithm",
    "RunResult",
    "experiments",
]
