"""Declarative experiment scenarios: the one experiment spec and its runner.

A :class:`Scenario` is a complete, serialisable description of one balancing
experiment: the topology (and optional speed profile), the workload, the
continuous substrate, the algorithm and the horizon.  Setting ``events`` to
one of the event profiles of :data:`repro.dynamic.events.EVENT_PROFILES`
turns it into a dynamic (streaming) experiment observed for ``rounds``
rounds.  Scenarios round-trip through plain dictionaries (and therefore JSON
files), which makes experiments shareable and lets the CLI run a whole
experiment from a single config file:

    repro-loadbalance scenario --file my_experiment.json

:func:`run_scenario` is the one cell runner: sweep cells
(:meth:`repro.simulation.sweep.SweepConfiguration.scenario`), scenario grids
and dynamic streams all execute through it, so every algorithm and substrate
available to :func:`repro.simulation.engine.run_algorithm` can be driven
this way.
"""

from __future__ import annotations

import json
import numbers
import pathlib
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..exceptions import ExperimentError, TopologyError
from ..network import topologies
from ..network.graph import Network
from ..tasks import generators
from ..counter_rng import require_counter_rng
from .engine import (ALL_ALGORITHMS, BACKEND_KINDS, CONTINUOUS_KINDS,
                     check_substrate, make_schedule, run_algorithm)
from .results import RunResult
from .seeding import PurposeSeeds, purpose_seeds
from .workloads import WORKLOADS

__all__ = [
    "Scenario",
    "load_scenario",
    "run_scenario",
    "expand_seeds",
]

#: Speed profiles selectable by name.
_SPEED_PROFILES = {
    "uniform": lambda network, seed: generators.uniform_speeds(network),
    "random": lambda network, seed: generators.random_integer_speeds(network, max_speed=4,
                                                                     seed=seed),
    "power-of-two": lambda network, seed: generators.power_of_two_speeds(network,
                                                                         max_exponent=3,
                                                                         seed=seed),
    "degree": lambda network, seed: generators.proportional_to_degree_speeds(network),
}

#: Valid values of the ``seeding`` field: ``"legacy"`` reuses the scenario
#: seed for every randomized component (the historical replay contract);
#: ``"per-purpose"`` spawns independent child seeds per component (see
#: :mod:`repro.simulation.seeding`).
SEEDING_MODES = ("legacy", "per-purpose")

#: Fields that are omitted from :meth:`Scenario.to_dict` for event scenarios,
#: which cannot set them (a stream always records its trace).
_STATIC_ONLY = ("base_load", "record_trace")


def _type_matches(value: object, annotation: str) -> bool:
    """Whether ``value`` fits a field annotation (``int``, ``Optional[str]``, ...)."""
    if annotation.startswith("Optional["):
        return value is None or _type_matches(value, annotation[len("Optional["):-1])
    if annotation == "int":
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return isinstance(value, {"str": str, "bool": bool}[annotation])


@dataclass(frozen=True)
class Scenario:
    """A complete, serialisable description of one balancing experiment.

    Attributes
    ----------
    name:
        Free-form identifier used in reports.
    algorithm:
        One of :data:`repro.simulation.engine.ALL_ALGORITHMS`.
    topology:
        Named topology family (see :func:`repro.network.topologies.named_topology`).
    num_nodes:
        Approximate network size.
    tokens_per_node:
        Workload density (total tokens = ``tokens_per_node * n`` for most workloads).
    workload:
        One of :data:`~repro.simulation.workloads.WORKLOADS` (``point``,
        ``two-point``, ``uniform``, ``half-nodes``, ``gradient``, ``balanced``).
    speed_profile:
        One of ``uniform``, ``random``, ``power-of-two``, ``degree``.
    continuous_kind:
        Continuous substrate ("fos", "sos", "periodic-matching", "random-matching").
    events:
        ``None`` for a static run; otherwise the name of an event profile of
        :data:`repro.dynamic.events.EVENT_PROFILES`, and the scenario is a
        stream that re-couples the substrate after every event.  With
        ``max_task_weight > 1`` the stream starts from a weighted workload
        while events keep streaming unit tokens.
    base_load:
        Extra balanced load (tokens per speed unit) added on top of the
        workload — the Theorem 3(2)/8(2) padding.  Static scenarios only.
    rounds:
        Horizon; ``None`` means "until the continuous substrate balances".
        Event scenarios require it: a stream never "balances and stops", it
        is observed for a fixed window.
    seed:
        Master seed for topology sampling, workload placement, events and
        algorithm randomness.
    record_trace:
        Whether to record the per-round discrepancy trace.  Static scenarios
        only: a stream always records its trace.
    backend:
        Load-state backend ("auto", "object", "array"); see
        :mod:`repro.backend`.
    max_task_weight:
        When greater than 1 the workload vector counts *tasks* per node and
        every task draws an integer weight uniformly from
        ``[1, max_task_weight]`` (algorithm1 only) — the weighted-task
        setting of the paper's Theorem 3.
    rng_mode:
        Always ``"counter"``: the randomized processes key every draw on
        ``(seed, round, edge-or-node)`` (:mod:`repro.counter_rng`).  The
        field stays because stored configurations and checkpoints name it.
    seeding:
        How ``seed`` is distributed over the randomized components:
        ``"legacy"`` (default) reuses the one integer everywhere — the
        historical replay contract — while ``"per-purpose"`` spawns
        independent child seeds for the topology sample, workload placement,
        matching schedule, algorithm randomness and event stream
        (:mod:`repro.simulation.seeding`).
    """

    name: str
    algorithm: str
    topology: str = "torus"
    num_nodes: int = 64
    tokens_per_node: int = 32
    workload: str = "point"
    speed_profile: str = "uniform"
    continuous_kind: str = "fos"
    events: Optional[str] = None
    base_load: int = 0
    rounds: Optional[int] = None
    seed: int = 0
    record_trace: bool = False
    backend: str = "auto"
    max_task_weight: int = 1
    rng_mode: str = "counter"
    seeding: str = "legacy"

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            annotation = str(spec.type)
            if not _type_matches(value, annotation):
                expected = annotation.replace("Optional[", "").rstrip("]")
                if expected != annotation:
                    expected += " or null"
                raise ExperimentError(
                    f"scenario field {spec.name!r} must be {expected}, got {value!r}")
        choices: Dict[str, Sequence[str]] = {
            "algorithm": ALL_ALGORITHMS, "continuous_kind": CONTINUOUS_KINDS,
            "workload": sorted(WORKLOADS), "speed_profile": sorted(_SPEED_PROFILES),
            "backend": BACKEND_KINDS, "seeding": SEEDING_MODES}
        if self.events is not None:
            from ..dynamic.events import EVENT_PROFILES

            choices["events"] = sorted(EVENT_PROFILES)
        for name, valid in choices.items():
            if getattr(self, name) not in valid:
                raise ExperimentError(
                    f"unknown {name} {getattr(self, name)!r}; valid: {valid}")
        if self.topology.lower() not in topologies.TOPOLOGY_NAMES:
            raise ExperimentError(f"unknown topology {self.topology!r}; "
                                  f"valid: {list(topologies.TOPOLOGY_NAMES)}")
        require_counter_rng(self.rng_mode, error=ExperimentError)
        check_substrate(self.algorithm, self.continuous_kind)
        if self.max_task_weight < 1:
            raise ExperimentError("max_task_weight must be at least 1")
        if self.num_nodes < 2:
            raise ExperimentError("a scenario needs at least two nodes")
        try:
            topologies.check_named_size(self.topology, self.num_nodes)
        except TopologyError as exc:
            raise ExperimentError(f"topology {self.topology!r}: {exc}") from None
        if self.tokens_per_node < 0 or self.base_load < 0:
            raise ExperimentError("workload densities must be non-negative")
        if self.rounds is not None and self.rounds < 0:
            raise ExperimentError("rounds must be non-negative")
        if self.events is not None:
            if self.rounds is None:
                raise ExperimentError("an event scenario requires a fixed 'rounds' horizon")
            if self.base_load or self.record_trace:
                raise ExperimentError(
                    "event scenarios take no 'base_load' or 'record_trace' "
                    "(a stream always records its trace)")

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        """Return a plain-dictionary representation (JSON friendly).

        Omitted: ``seeding`` at its ``"legacy"`` default, ``events`` when
        ``None``, and for event scenarios ``base_load`` and
        ``record_trace``, which do not apply to them.  This keeps the run
        store's config hashes and the checkpoints' embedded scenarios equal
        to those written before these fields were added.
        """
        data = asdict(self)
        if data["seeding"] == "legacy":
            del data["seeding"]
        for key in (_STATIC_ONLY if self.events is not None else ("events",)):
            del data[key]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Scenario":
        """Build a scenario from a dictionary, rejecting unknown keys and wrong types."""
        unknown = set(data) - {spec.name for spec in fields(cls)}
        if unknown:
            raise ExperimentError(f"unknown scenario fields: {sorted(unknown)}")
        if "name" not in data or "algorithm" not in data:
            raise ExperimentError("a scenario requires at least 'name' and 'algorithm'")
        return cls(**data)

    def to_json(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the scenario to a JSON file and return the path."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #

    def _purpose_seeds(self) -> PurposeSeeds:
        """Per-component seeds under this scenario's ``seeding`` mode."""
        return purpose_seeds(self.seed, legacy=self.seeding == "legacy")

    def build_network(self) -> Network:
        """Instantiate the network (topology + speed profile) of this scenario."""
        seed = self._purpose_seeds().topology
        network = topologies.named_topology(self.topology, self.num_nodes, seed=seed)
        return network.with_speeds(_SPEED_PROFILES[self.speed_profile](network, seed))

    def build_load(self, network: Network) -> np.ndarray:
        """Instantiate the integer workload vector of this scenario."""
        load = WORKLOADS[self.workload](network, self.tokens_per_node,
                                        self._purpose_seeds().workload)
        if self.base_load:
            load = load + generators.balanced_load(network, self.base_load)
        return load

    def build_weighted_load(self, network: Network):
        """Instantiate the columnar weighted workload (``max_task_weight > 1``)."""
        from ..tasks.weighted import weighted_loads_from_task_counts

        return weighted_loads_from_task_counts(self.build_load(network), self.max_task_weight,
                                               seed=self._purpose_seeds().workload)


def load_scenario(path: Union[str, pathlib.Path]) -> Scenario:
    """Load a scenario from a JSON file."""
    path = pathlib.Path(path)
    if not path.exists():
        raise ExperimentError(f"no such scenario file: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ExperimentError("a scenario file must contain a JSON object")
    return Scenario.from_dict(data)


def run_scenario(scenario: Scenario, bus=None, checkpoint_every: Optional[int] = None,
                 checkpoint_path=None) -> RunResult:
    """Materialise and execute a scenario, returning the run result.

    The network and load are built once; an event scenario then runs as a
    stream (:func:`repro.dynamic.stream.run_stream`), a static one through
    :func:`repro.simulation.engine.run_algorithm`.  The matching schedule
    draws from the ``schedule`` purpose seed, which under the default
    ``"legacy"`` seeding is the algorithm seed, so historical trajectories
    are reproduced exactly.

    ``bus`` forwards a :class:`~repro.obs.bus.MetricsBus` for per-round
    telemetry (see :mod:`repro.obs`).  With ``checkpoint_every`` /
    ``checkpoint_path`` (event scenarios only) the stream snapshots itself
    periodically; the checkpoint embeds the scenario so ``repro resume`` (or
    :func:`repro.checkpoint.resume_stream`) can rebuild the event generator
    without further input.
    """
    if scenario.events is None and (checkpoint_every is not None
                                    or checkpoint_path is not None):
        raise ExperimentError("checkpoints apply to event scenarios only")
    seeds = scenario._purpose_seeds()
    network = scenario.build_network()
    weighted = scenario.max_task_weight > 1
    load = scenario.build_weighted_load(network) if weighted else scenario.build_load(network)
    common: Dict[str, Any] = dict(
        rounds=scenario.rounds, continuous_kind=scenario.continuous_kind,
        seed=seeds.algorithm, backend=scenario.backend, bus=bus)
    if scenario.events is not None:
        from ..dynamic.events import make_event_generator
        from ..dynamic.stream import run_stream

        generator = make_event_generator(scenario.events, network,
                                         scenario.tokens_per_node, seed=seeds.events)
        return run_stream(
            scenario.algorithm, network, load, generator,
            checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
            checkpoint_meta=({"scenario": scenario.to_dict()}
                             if checkpoint_every is not None else None),
            **common)
    return run_algorithm(
        scenario.algorithm, network,
        schedule=make_schedule(scenario.continuous_kind, network, seed=seeds.schedule),
        record_trace=scenario.record_trace,
        **{"weighted_load" if weighted else "initial_load": load}, **common)


def expand_seeds(scenario: Scenario, seeds: Sequence[int]) -> List[Scenario]:
    """Replicate a scenario once per seed (names suffixed ``-s{seed}``).

    The replicas are the natural grid for many-seed statistics (e.g.
    recovery times per spectral-gap point).  Wrap each replica in a
    ``GridCell(kind="scenario" | "dynamic", spec=replica, index=i)`` and run
    them with :func:`repro.simulation.parallel.run_cells`, which returns them
    in input order, bit-identical to serial :func:`run_scenario` calls.
    Each replica's ``seeding`` mode travels with it into the workers.
    """
    if not seeds:
        raise ExperimentError("at least one seed is required")
    return [replace(scenario, name=f"{scenario.name}-s{seed}", seed=int(seed))
            for seed in seeds]
