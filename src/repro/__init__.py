"""repro: discrete neighbourhood load balancing via continuous-flow imitation.

This package reproduces "A Simple Approach for Adapting Continuous Load
Balancing Processes to Discrete Settings" (Akbari, Berenbrink & Sauerwald,
PODC 2012).  The public API is re-exported here; see ``README.md`` for a
quickstart, the repository layout and the reproduction record
(``CLAIMS.json``, written by ``repro claims``).
"""

from .backend import (
    BACKEND_KINDS,
    ArrayDeterministicFlowImitation,
    ArrayRandomizedFlowImitation,
    BackendChoice,
    resolve_backend,
)
from .counter_rng import RNG_MODES
from .core import (
    DeterministicFlowImitation,
    FlowCoupledBalancer,
    RandomizedFlowImitation,
    TaskSelectionPolicy,
    theorem3_discrepancy_bound,
    theorem8_max_avg_bound,
)
from .continuous import (
    DimensionExchange,
    FirstOrderDiffusion,
    SecondOrderDiffusion,
    periodic_dimension_exchange,
    random_matching_exchange,
)
from .network import (
    AlphaScheme,
    Network,
    PeriodicMatchingSchedule,
    RandomMatchingSchedule,
    spectral_summary,
    topologies,
)
from .simulation import (
    ALL_ALGORITHMS,
    GridCell,
    RunResult,
    Scenario,
    SweepConfiguration,
    SweepResult,
    compare_algorithms,
    determine_balancing_time,
    expand_seeds,
    make_balancer,
    merge_sweeps,
    run_algorithm,
    run_cells,
    run_scenario,
    run_sweep,
    sweep_cells,
)
from .dynamic import (
    EVENT_PROFILES,
    DynamicEvent,
    EventBatch,
    EventGenerator,
    make_event_generator,
    run_stream,
    summarize_dynamic,
)
from .obs import ConsoleSubscriber, EventLog, MetricsBus, RoundProbe, TelemetryEvent
from .store import (
    RunRecord,
    RunStore,
    check_store_regression,
    config_hash,
    record_run,
    record_sweep_outcomes,
)
from .tasks import (
    Task,
    TaskAssignment,
    TaskFactory,
    WeightedLoads,
    generators,
    max_avg_discrepancy,
    max_min_discrepancy,
    summarize_loads,
    weighted_loads_from_task_counts,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core contribution
    "DeterministicFlowImitation",
    "RandomizedFlowImitation",
    "FlowCoupledBalancer",
    "TaskSelectionPolicy",
    # load-state backends
    "BACKEND_KINDS",
    "BackendChoice",
    "ArrayDeterministicFlowImitation",
    "ArrayRandomizedFlowImitation",
    "RNG_MODES",
    "resolve_backend",
    "theorem3_discrepancy_bound",
    "theorem8_max_avg_bound",
    # continuous substrates
    "FirstOrderDiffusion",
    "SecondOrderDiffusion",
    "DimensionExchange",
    "periodic_dimension_exchange",
    "random_matching_exchange",
    # network substrate
    "Network",
    "AlphaScheme",
    "PeriodicMatchingSchedule",
    "RandomMatchingSchedule",
    "spectral_summary",
    "topologies",
    # tasks and metrics
    "Task",
    "TaskFactory",
    "TaskAssignment",
    "WeightedLoads",
    "weighted_loads_from_task_counts",
    "generators",
    "max_min_discrepancy",
    "max_avg_discrepancy",
    "summarize_loads",
    # simulation
    "ALL_ALGORITHMS",
    "RunResult",
    "Scenario",
    "run_algorithm",
    "run_scenario",
    "expand_seeds",
    "compare_algorithms",
    "determine_balancing_time",
    "make_balancer",
    # sweeps and sharded grids
    "SweepConfiguration",
    "SweepResult",
    "run_sweep",
    "GridCell",
    "run_cells",
    "sweep_cells",
    "merge_sweeps",
    # dynamic workloads
    "EVENT_PROFILES",
    "DynamicEvent",
    "EventBatch",
    "EventGenerator",
    "make_event_generator",
    "run_stream",
    "summarize_dynamic",
    # observability: telemetry bus + run store + regression reports
    "MetricsBus",
    "TelemetryEvent",
    "EventLog",
    "RoundProbe",
    "ConsoleSubscriber",
    "RunRecord",
    "RunStore",
    "config_hash",
    "record_run",
    "record_sweep_outcomes",
    "check_store_regression",
]
