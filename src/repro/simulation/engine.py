"""Simulation engine: build, couple and run balancing algorithms by name.

The engine provides a uniform, registry-style API used by the examples, the
experiment harness and the benchmarks:

* :func:`make_continuous` builds a continuous substrate ("fos", "sos",
  "periodic-matching", "random-matching");
* :func:`run_algorithm` runs one discrete algorithm (the paper's Algorithm 1
  or 2, or one of the literature baselines) on one workload and returns a
  :class:`~repro.simulation.results.RunResult`;
* :func:`compare_algorithms` measures the continuous balancing time ``T``
  once and runs every requested algorithm for exactly ``T`` rounds — the
  comparison the paper's Tables 1 and 2 are about.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..backend import BACKEND_KINDS, resolve_backend
from ..backend.flow import (
    ArrayDeterministicFlowImitation,
    ArrayRandomizedFlowImitation,
    Workload,
)
from ..continuous.base import BALANCE_TOLERANCE, ContinuousProcess
from ..continuous.dimension_exchange import DimensionExchange
from ..continuous.fos import FirstOrderDiffusion
from ..continuous.sos import SecondOrderDiffusion
from ..core.algorithm1 import DeterministicFlowImitation
from ..core.algorithm2 import RandomizedFlowImitation
from ..core.flow_imitation import FlowCoupledBalancer, TaskSelectionPolicy
from ..discrete.base import DiscreteBalancer, IntegerLoadBalancer
from ..discrete.baselines.diffusion import (
    ExcessTokenDiffusion,
    QuasirandomDiffusion,
    RandomizedRoundingDiffusion,
    RoundDownDiffusion,
    RoundDownSecondOrder,
)
from ..discrete.baselines.matching import RandomizedRoundingMatching, RoundDownMatching
from ..exceptions import ConvergenceError, ExperimentError
from ..network.graph import Network
from ..network.matchings import (
    MatchingSchedule,
    PeriodicMatchingSchedule,
    RandomMatchingSchedule,
)
from ..counter_rng import require_counter_rng
from ..obs.bus import MetricsBus
from ..obs.probe import RoundProbe
from ..tasks.assignment import TaskAssignment
from ..tasks.load import as_token_counts, max_avg_discrepancy, max_min_discrepancy
from ..tasks.weighted import WeightedLoads
from .results import RunResult

__all__ = [
    "CONTINUOUS_KINDS",
    "FLOW_IMITATION_ALGORITHMS",
    "DIFFUSION_BASELINES",
    "MATCHING_BASELINES",
    "ALL_ALGORITHMS",
    "BACKEND_KINDS",
    "check_substrate",
    "default_algorithms",
    "make_schedule",
    "make_continuous",
    "make_balancer",
    "determine_balancing_time",
    "run_algorithm",
    "summarize_balancer",
    "compare_algorithms",
]

CONTINUOUS_KINDS = ("fos", "sos", "periodic-matching", "random-matching")
FLOW_IMITATION_ALGORITHMS = ("algorithm1", "algorithm2")
DIFFUSION_BASELINES = ("round-down", "quasirandom", "randomized-rounding", "excess-tokens")
MATCHING_BASELINES = ("matching-round-down", "matching-randomized")
ALL_ALGORITHMS = FLOW_IMITATION_ALGORITHMS + DIFFUSION_BASELINES + MATCHING_BASELINES

_DIFFUSION_KINDS = ("fos", "sos")
_MATCHING_KINDS = ("periodic-matching", "random-matching")


def check_substrate(algorithm: str, continuous_kind: str) -> None:
    """Raise :class:`ExperimentError` unless ``algorithm`` runs on ``continuous_kind``.

    The flow-imitation algorithms run on every substrate; a diffusion
    baseline needs a diffusion kind and a matching baseline a matching kind.
    On ``"sos"`` only ``round-down`` has a second-order form
    (:class:`~repro.discrete.baselines.diffusion.RoundDownSecondOrder`).
    """
    if algorithm in DIFFUSION_BASELINES:
        kinds = _DIFFUSION_KINDS if algorithm == "round-down" else ("fos",)
        if continuous_kind == "sos" and continuous_kind not in kinds:
            raise ExperimentError(
                f"{algorithm!r} has no second-order form; use continuous_kind 'fos'")
        if continuous_kind not in kinds:
            raise ExperimentError(f"{algorithm!r} is a diffusion baseline; use "
                                  f"continuous_kind {' or '.join(map(repr, kinds))}")
    if algorithm in MATCHING_BASELINES and continuous_kind not in _MATCHING_KINDS:
        raise ExperimentError(
            f"{algorithm!r} is a matching baseline; use continuous_kind "
            "'periodic-matching' or 'random-matching'")


def default_algorithms(continuous_kind: str) -> Tuple[str, ...]:
    """The round-down baseline of ``continuous_kind`` plus Algorithms 1 and 2."""
    baseline = "matching-round-down" if continuous_kind in _MATCHING_KINDS else "round-down"
    return (baseline,) + FLOW_IMITATION_ALGORITHMS


def make_schedule(continuous_kind: str, network: Network,
                  seed: Optional[int] = None) -> Optional[MatchingSchedule]:
    """Build the matching schedule required by a matching-based continuous kind."""
    if continuous_kind == "periodic-matching":
        return PeriodicMatchingSchedule(network)
    if continuous_kind == "random-matching":
        return RandomMatchingSchedule(network, seed=seed)
    return None


def make_continuous(
    continuous_kind: str,
    network: Network,
    initial_load: Sequence[float],
    schedule: Optional[MatchingSchedule] = None,
    seed: Optional[int] = None,
    check_negative_load: bool = False,
) -> ContinuousProcess:
    """Construct a continuous process of the requested kind."""
    if continuous_kind == "fos":
        return FirstOrderDiffusion(network, initial_load,
                                   check_negative_load=check_negative_load)
    if continuous_kind == "sos":
        return SecondOrderDiffusion(network, initial_load,
                                    check_negative_load=check_negative_load)
    if continuous_kind in _MATCHING_KINDS:
        if schedule is None:
            schedule = make_schedule(continuous_kind, network, seed=seed)
        return DimensionExchange(network, initial_load, schedule,
                                 check_negative_load=check_negative_load)
    raise ExperimentError(
        f"unknown continuous kind {continuous_kind!r}; valid kinds: {CONTINUOUS_KINDS}"
    )


def determine_balancing_time(
    network: Network,
    initial_load: Sequence[float],
    continuous_kind: str = "fos",
    tolerance: float = BALANCE_TOLERANCE,
    schedule: Optional[MatchingSchedule] = None,
    seed: Optional[int] = None,
    max_rounds: int = 200_000,
) -> int:
    """Measure the balancing time ``T`` of the continuous substrate on this instance."""
    process = make_continuous(continuous_kind, network, initial_load,
                              schedule=schedule, seed=seed)
    return process.run_until_balanced(tolerance=tolerance, max_rounds=max_rounds)


def _build_flow_imitation(
    algorithm: str,
    network: Network,
    initial_load: Optional[Sequence[float]],
    assignment: Optional[TaskAssignment],
    weighted_load: Optional[WeightedLoads],
    continuous_kind: str,
    schedule: Optional[MatchingSchedule],
    seed: Optional[int],
    selection_policy: str,
    backend: str,
) -> FlowCoupledBalancer:
    # Ahead of the backend branch, so every backend raises the same error.
    if algorithm == "algorithm2" and (
            (weighted_load is not None and weighted_load.max_weight() > 1)
            or (assignment is not None and assignment.max_task_weight() > 1)):
        raise ExperimentError(
            "Algorithm 2 balances identical unit-weight tokens only; "
            "weighted workloads require algorithm1")
    counts = None
    if assignment is not None:
        reference_load = assignment.loads()
    elif weighted_load is not None:
        reference_load = weighted_load.load_vector().astype(float)
    else:
        counts = as_token_counts(initial_load, network, error=ExperimentError)
        reference_load = counts.astype(float)
    continuous = make_continuous(continuous_kind, network, reference_load,
                                 schedule=schedule, seed=seed)
    choice = resolve_backend(backend, assignment=assignment,
                             weighted=weighted_load, algorithm=algorithm)
    if choice.name == "object":
        if assignment is None:
            assignment = (weighted_load.to_assignment(network) if weighted_load is not None
                          else TaskAssignment.from_unit_loads(network, counts))
        if algorithm == "algorithm1":
            return DeterministicFlowImitation(continuous, assignment,
                                              selection_policy=selection_policy)
        return RandomizedFlowImitation(continuous, assignment, seed=seed)
    if assignment is not None and assignment.total_dummy_weight() > 0:
        # resolve_backend routes these to the object backend; the array
        # state would otherwise turn the dummies into real tasks.
        raise ExperimentError(
            "assignments that already contain dummy tasks require the "
            "object backend")
    workload: Workload
    if assignment is not None:
        workload = assignment
    elif weighted_load is not None:
        workload = weighted_load
    else:
        workload = counts
    if algorithm == "algorithm1":
        return ArrayDeterministicFlowImitation(continuous, workload,
                                               selection_policy=selection_policy)
    return ArrayRandomizedFlowImitation(continuous, workload, seed=seed)


_DIFFUSION_CLASSES: Dict[str, Type[IntegerLoadBalancer]] = {
    "round-down": RoundDownDiffusion,
    "quasirandom": QuasirandomDiffusion,
    "randomized-rounding": RandomizedRoundingDiffusion,
    "excess-tokens": ExcessTokenDiffusion,
}


def _build_baseline(
    algorithm: str,
    network: Network,
    initial_load: Sequence[float],
    continuous_kind: str,
    schedule: Optional[MatchingSchedule],
    seed: Optional[int],
    backend: str,
) -> DiscreteBalancer:
    # A clear error beats a silently rounded workload: the baselines balance
    # whole tokens, so fractional loads are a caller bug.
    loads = as_token_counts(initial_load, network, error=ExperimentError)
    resolve_backend(backend)  # checks the name: every backend runs the same class
    check_substrate(algorithm, continuous_kind)
    if algorithm in DIFFUSION_BASELINES:
        if continuous_kind == "sos":  # check_substrate lets only round-down through
            return RoundDownSecondOrder(network, loads)
        cls = _DIFFUSION_CLASSES[algorithm]
        if algorithm in ("round-down", "quasirandom"):
            return cls(network, loads)
        return cls(network, loads, seed=seed)
    if algorithm in MATCHING_BASELINES:
        if schedule is None:
            schedule = make_schedule(continuous_kind, network, seed=seed)
        if algorithm == "matching-round-down":
            return RoundDownMatching(network, loads, schedule)
        return RandomizedRoundingMatching(network, loads, schedule, seed=seed)
    raise ExperimentError(
        f"unknown algorithm {algorithm!r}; valid algorithms: {ALL_ALGORITHMS}"
    )


def make_balancer(
    algorithm: str,
    network: Network,
    initial_load: Optional[Sequence[float]] = None,
    assignment: Optional[TaskAssignment] = None,
    weighted_load: Optional[WeightedLoads] = None,
    continuous_kind: str = "fos",
    schedule: Optional[MatchingSchedule] = None,
    seed: Optional[int] = None,
    selection_policy: str = TaskSelectionPolicy.FIFO,
    backend: str = "auto",
    rng_mode: str = "counter",
) -> DiscreteBalancer:
    """Construct (and couple) a discrete balancer of the requested kind.

    This is the registry entry point shared by :func:`run_algorithm` and the
    dynamic streaming engine (:mod:`repro.dynamic.stream`), which rebuilds —
    "re-couples" — the balancer whenever events change the workload or the
    topology.  Exactly one of ``initial_load`` / ``assignment`` /
    ``weighted_load`` must be given; weighted workloads (assignments or
    :class:`~repro.tasks.weighted.WeightedLoads` buckets) are only supported
    by the flow-imitation algorithms.

    ``backend`` selects the load-state representation (see
    :mod:`repro.backend`): ``"auto"`` (default) uses the vectorised array
    backend for integer token loads, columnar weight buckets and
    integer-weight task assignments, falling back to the object backend only
    for workloads that need task objects (non-integer weights); the backends
    produce identical trajectories for any given seed, so the choice is
    purely about speed.  Each literature baseline has one implementation,
    which every backend builds.  The randomized processes — Algorithm 2,
    the randomized-rounding diffusion and the excess-token baseline — key
    every draw on ``(seed, round, edge-or-node)`` (see
    :mod:`repro.counter_rng`); ``rng_mode`` accepts only ``"counter"`` and
    is kept for callers that name it.
    """
    if algorithm not in ALL_ALGORITHMS:
        raise ExperimentError(
            f"unknown algorithm {algorithm!r}; valid algorithms: {ALL_ALGORITHMS}"
        )
    require_counter_rng(rng_mode, error=ExperimentError)
    workloads_given = sum(w is not None for w in (initial_load, assignment, weighted_load))
    if workloads_given != 1:
        raise ExperimentError(
            "provide exactly one of initial_load, assignment or weighted_load")
    if algorithm in FLOW_IMITATION_ALGORITHMS:
        return _build_flow_imitation(algorithm, network, initial_load, assignment,
                                     weighted_load, continuous_kind, schedule, seed,
                                     selection_policy, backend)
    if assignment is not None or weighted_load is not None:
        raise ExperimentError(
            "task assignments (weighted tasks) are only supported by the "
            "flow-imitation algorithms"
        )
    return _build_baseline(algorithm, network, initial_load,
                           continuous_kind, schedule, seed, backend)


def run_algorithm(
    algorithm: str,
    network: Network,
    initial_load: Optional[Sequence[float]] = None,
    assignment: Optional[TaskAssignment] = None,
    weighted_load: Optional[WeightedLoads] = None,
    continuous_kind: str = "fos",
    rounds: Optional[int] = None,
    tolerance: float = BALANCE_TOLERANCE,
    schedule: Optional[MatchingSchedule] = None,
    seed: Optional[int] = None,
    record_trace: bool = False,
    max_rounds: int = 200_000,
    selection_policy: str = TaskSelectionPolicy.FIFO,
    backend: str = "auto",
    bus: Optional[MetricsBus] = None,
    audit: bool = False,
) -> RunResult:
    """Run a single discrete balancing algorithm and summarize the outcome.

    Parameters
    ----------
    algorithm:
        One of :data:`ALL_ALGORITHMS`.
    initial_load / assignment / weighted_load:
        Provide exactly one: an integer token load vector, a
        :class:`TaskAssignment`, or columnar
        :class:`~repro.tasks.weighted.WeightedLoads` buckets (weighted tasks
        are only supported by ``"algorithm1"``).
    continuous_kind:
        The continuous substrate to imitate / round.
    rounds:
        How many rounds to run.  ``None`` means "until the continuous
        substrate is balanced" — measured internally for flow imitation, and
        via :func:`determine_balancing_time` for baselines.
    record_trace:
        When ``True``, the per-round max-min discrepancy trace is stored in
        the result.
    backend:
        Load-state backend (see :mod:`repro.backend`); ``"auto"`` picks the
        vectorised array backend whenever the workload allows it.  The
        backend actually used — and why — is recorded in
        ``result.extra["backend"]`` / ``extra["backend_reason"]``.
    bus:
        Optional :class:`~repro.obs.bus.MetricsBus`: the run emits
        ``run_start`` / per-round ``round`` / ``run_end`` telemetry events
        through an attached :class:`~repro.obs.probe.RoundProbe`.
        Instrumentation is read-only — trajectories are bit-identical with
        and without a subscriber — and the accumulated kernel wall-clock is
        recorded in ``result.extra["kernel_seconds"]``.
    audit:
        Check the paper's per-round invariants with a
        :class:`~repro.core.diagnostics.FlowImitationAuditor` after every
        round (flow-imitation algorithms only).  The audit summary lands in
        ``result.extra["audit"]``; violations are also emitted on ``bus`` as
        ``audit_violation`` events.
    """
    if rounds is not None and rounds < 0:
        raise ExperimentError("rounds must be non-negative")
    choice = resolve_backend(backend, assignment=assignment,
                             weighted=weighted_load, algorithm=algorithm)
    if schedule is None and continuous_kind in _MATCHING_KINDS:
        schedule = make_schedule(continuous_kind, network, seed=seed)
    # Pass the resolved concrete backend so the object path does not repeat
    # the per-task integer-weight scan of the resolution.
    balancer = make_balancer(
        algorithm, network, initial_load=initial_load, assignment=assignment,
        weighted_load=weighted_load, continuous_kind=continuous_kind,
        schedule=schedule, seed=seed, selection_policy=selection_policy,
        backend=choice.name,
    )
    flow = balancer if isinstance(balancer, FlowCoupledBalancer) else None
    if flow is None and rounds is None:
        # A baseline carries no substrate: measure T on the shared schedule.
        rounds = determine_balancing_time(
            network, initial_load, continuous_kind, tolerance=tolerance,
            schedule=schedule, seed=seed, max_rounds=max_rounds,
        )
    original_weight = (flow.original_weight if flow is not None
                       else balancer.total_weight())

    auditor = None
    if audit:
        if flow is None:
            raise ExperimentError(
                "audit=True requires a flow-imitation algorithm "
                "(the audited invariants are about the coupled processes)")
        from ..core.diagnostics import FlowImitationAuditor

        auditor = FlowImitationAuditor(flow, bus=bus)

    probe: Optional[RoundProbe] = None
    if bus is not None:
        probe = RoundProbe(bus, source="engine", context={
            "algorithm": algorithm, "backend": choice.name, "rng_mode": "counter"})
        balancer.attach_probe(probe)
        bus.emit("run_start", "engine", algorithm=algorithm,
                 network=network.name, n=network.num_nodes,
                 max_degree=network.max_degree, continuous=continuous_kind,
                 backend=choice.name, rng_mode="counter", seed=seed,
                 rounds=rounds, total_weight=original_weight)

    trace: Optional[List[float]] = [] if record_trace else None

    def record() -> None:
        if auditor is not None:
            auditor.check_round()
        if trace is not None:
            trace.append(max_min_discrepancy(balancer.loads(), network))

    if trace is not None:
        trace.append(max_min_discrepancy(balancer.loads(), network))
    executed = 0
    if rounds is not None:
        for _ in range(rounds):
            balancer.advance()
            executed += 1
            record()
    else:
        # Flow imitation with an adaptive horizon: run until the internal
        # continuous process reaches its balancing time T.
        assert flow is not None
        while not flow.continuous.is_balanced(tolerance):
            if executed >= max_rounds:
                raise ConvergenceError(
                    f"continuous substrate did not balance within {max_rounds} rounds"
                )
            flow.advance()
            executed += 1
            record()

    result = summarize_balancer(balancer, algorithm, continuous_kind, executed,
                                original_weight, trace_max_min=trace)
    result.extra["backend"] = choice.name
    result.extra["backend_reason"] = choice.reason
    if auditor is not None:
        result.extra["audit"] = auditor.report.as_extra()
    if probe is not None:
        balancer.attach_probe(None)
        result.extra["kernel_seconds"] = probe.kernel_seconds
        bus.emit("run_end", "engine", round_index=executed,
                 algorithm=algorithm, rounds=executed,
                 max_min=result.final_max_min, max_avg=result.final_max_avg,
                 kernel_seconds=probe.kernel_seconds)
    return result


def summarize_balancer(balancer: DiscreteBalancer, algorithm: str, continuous_kind: str,
                       rounds: int, total_weight: float, **fields) -> RunResult:
    """The :class:`RunResult` of ``balancer``'s current state after ``rounds`` rounds.

    ``total_weight`` is the real workload the max-avg discrepancies refer
    to; ``fields`` are further :class:`RunResult` fields (traces, the event
    timeline).  A flow-imitation balancer also reports its discrepancies
    without dummy tokens and its failure-mode counters; a baseline reports
    whether a load went negative.
    """
    network = balancer.network
    loads = balancer.loads()
    result = RunResult(
        algorithm=algorithm,
        continuous_kind=continuous_kind,
        network_name=network.name,
        num_nodes=network.num_nodes,
        max_degree=network.max_degree,
        rounds=rounds,
        total_weight=total_weight,
        max_task_weight=1.0,
        final_max_min=max_min_discrepancy(loads, network),
        final_max_avg=max_avg_discrepancy(loads, network, total_weight=total_weight),
        **fields,
    )
    if isinstance(balancer, FlowCoupledBalancer):
        result.max_task_weight = balancer.w_max
        real_loads = balancer.loads(include_dummies=False)
        result.final_max_min_no_dummies = max_min_discrepancy(real_loads, network)
        result.final_max_avg_no_dummies = max_avg_discrepancy(
            real_loads, network, total_weight=total_weight)
        result.dummy_tokens = balancer.dummy_tokens_created
        result.used_infinite_source = balancer.used_infinite_source
    else:
        result.went_negative = bool(getattr(balancer, "went_negative", False))
    return result


def compare_algorithms(
    network: Network,
    initial_load: Sequence[float],
    algorithms: Sequence[str],
    continuous_kind: str = "fos",
    tolerance: float = BALANCE_TOLERANCE,
    seed: Optional[int] = None,
    rounds: Optional[int] = None,
    record_trace: bool = False,
    max_rounds: int = 200_000,
    backend: str = "auto",
) -> List[RunResult]:
    """Run several algorithms on the same instance for the same number of rounds.

    The number of rounds defaults to the balancing time ``T`` of the
    continuous substrate on this instance (the horizon at which the paper's
    theorems bound the discrepancy).  Matching-based runs share a single
    matching schedule so every algorithm observes the same matchings.
    """
    for algorithm in algorithms:
        if algorithm not in ALL_ALGORITHMS:
            raise ExperimentError(f"unknown algorithm {algorithm!r}")
        check_substrate(algorithm, continuous_kind)
    schedule = make_schedule(continuous_kind, network, seed=seed)
    if rounds is None:
        rounds = determine_balancing_time(
            network, initial_load, continuous_kind, tolerance=tolerance,
            schedule=schedule, seed=seed, max_rounds=max_rounds,
        )
    results = []
    for index, algorithm in enumerate(algorithms):
        run_seed = None if seed is None else seed + 1000 * (index + 1)
        results.append(
            run_algorithm(
                algorithm,
                network,
                initial_load=initial_load,
                continuous_kind=continuous_kind,
                rounds=rounds,
                tolerance=tolerance,
                schedule=schedule,
                seed=run_seed,
                record_trace=record_trace,
                max_rounds=max_rounds,
                backend=backend,
            )
        )
    return results
