"""Declarative experiment scenarios.

A :class:`Scenario` is a complete, serialisable description of one balancing
experiment: the topology (and optional speed profile), the workload, the
continuous substrate, the algorithm and the horizon.  Scenarios can be
round-tripped through plain dictionaries (and therefore JSON files), which
makes experiments shareable and lets the CLI run a whole experiment from a
single config file:

    repro-loadbalance scenario --file my_experiment.json

The scenario runner reuses the engine registry, so every algorithm and
substrate available to :func:`repro.simulation.engine.run_algorithm` can be
driven this way.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..exceptions import ExperimentError
from ..network import topologies
from ..network.graph import Network
from ..tasks import generators
from .engine import (ALL_ALGORITHMS, BACKEND_KINDS, CONTINUOUS_KINDS,
                     RNG_MODES, make_schedule, run_algorithm)
from .results import RunResult
from .seeding import PurposeSeeds, purpose_seeds
from .workloads import WORKLOADS

__all__ = [
    "Scenario",
    "DynamicScenario",
    "load_scenario",
    "load_dynamic_scenario",
    "run_scenario",
    "run_dynamic_scenario",
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

#: Workload generators selectable by name — the shared registry, so scenarios
#: and sweeps accept exactly the same workload names.
_WORKLOADS = WORKLOADS

#: Valid values of the ``seeding`` field: ``"legacy"`` reuses the scenario
#: seed for every randomized component (the historical replay contract);
#: ``"per-purpose"`` spawns independent child seeds per component (see
#: :mod:`repro.simulation.seeding`).
SEEDING_MODES = ("legacy", "per-purpose")


# ---------------------------------------------------------------------- #
# helpers shared by Scenario and DynamicScenario
# ---------------------------------------------------------------------- #


def _validate_common(scenario) -> None:
    """Checks shared by both scenario kinds (duck-typed on the field names)."""
    if scenario.algorithm not in ALL_ALGORITHMS:
        raise ExperimentError(
            f"unknown algorithm {scenario.algorithm!r}; valid: {ALL_ALGORITHMS}")
    if scenario.continuous_kind not in CONTINUOUS_KINDS:
        raise ExperimentError(
            f"unknown continuous kind {scenario.continuous_kind!r}; "
            f"valid: {CONTINUOUS_KINDS}")
    if scenario.workload not in _WORKLOADS:
        raise ExperimentError(
            f"unknown workload {scenario.workload!r}; valid: {sorted(_WORKLOADS)}")
    if scenario.speed_profile not in _SPEED_PROFILES:
        raise ExperimentError(
            f"unknown speed profile {scenario.speed_profile!r}; "
            f"valid: {sorted(_SPEED_PROFILES)}")
    if scenario.backend not in BACKEND_KINDS:
        raise ExperimentError(
            f"unknown backend {scenario.backend!r}; valid: {BACKEND_KINDS}")
    if scenario.rng_mode not in RNG_MODES:
        raise ExperimentError(
            f"unknown rng mode {scenario.rng_mode!r}; valid: {RNG_MODES}")
    if scenario.seeding not in SEEDING_MODES:
        raise ExperimentError(
            f"unknown seeding mode {scenario.seeding!r}; valid: {SEEDING_MODES}")
    if scenario.max_task_weight < 1:
        raise ExperimentError("max_task_weight must be at least 1")
    if scenario.num_nodes < 2:
        raise ExperimentError("a scenario needs at least two nodes")
    if scenario.tokens_per_node < 0:
        raise ExperimentError("workload densities must be non-negative")


def _from_dict(cls, data: Dict[str, object]):
    """Build a scenario dataclass from a dictionary, rejecting unknown keys."""
    allowed = set(cls.__dataclass_fields__)
    unknown = set(data) - allowed
    if unknown:
        raise ExperimentError(f"unknown scenario fields: {sorted(unknown)}")
    if "name" not in data or "algorithm" not in data:
        raise ExperimentError("a scenario requires at least 'name' and 'algorithm'")
    return cls(**data)


def _scenario_dict(scenario) -> Dict[str, object]:
    """``asdict`` minus later-added fields at their defaults.

    Dropping ``seeding="legacy"`` keeps the serialised form — and therefore
    the run store's canonical config hashes — identical to what pre-``seeding``
    versions produced for the same experiment.
    """
    data = asdict(scenario)
    if data.get("seeding") == "legacy":
        del data["seeding"]
    return data


def _write_json(payload: Dict[str, object], path: Union[str, pathlib.Path]) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _read_json(path: Union[str, pathlib.Path]) -> Dict[str, object]:
    path = pathlib.Path(path)
    if not path.exists():
        raise ExperimentError(f"no such scenario file: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ExperimentError("a scenario file must contain a JSON object")
    return data


def _build_network(topology: str, num_nodes: int, speed_profile: str,
                   seed: int) -> Network:
    network = topologies.named_topology(topology, num_nodes, seed=seed)
    speeds = _SPEED_PROFILES[speed_profile](network, seed)
    return network.with_speeds(speeds)


def _build_weighted_load(task_counts, max_task_weight: int, seed: int):
    """Columnar weighted workload: the vector counts tasks, weights are drawn."""
    from ..tasks.weighted import weighted_loads_from_task_counts

    return weighted_loads_from_task_counts(task_counts, max_task_weight, seed=seed)


@dataclass
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
        One of ``point``, ``two-point``, ``uniform``, ``half-nodes``,
        ``gradient``, ``balanced``.
    speed_profile:
        One of ``uniform``, ``random``, ``power-of-two``, ``degree``.
    continuous_kind:
        Continuous substrate ("fos", "sos", "periodic-matching", "random-matching").
    base_load:
        Extra balanced load (tokens per speed unit) added on top of the
        workload — the Theorem 3(2)/8(2) padding.
    rounds:
        Horizon; ``None`` means "until the continuous substrate balances".
    seed:
        Master seed for topology sampling, workload placement and algorithm
        randomness.
    record_trace:
        Whether to record the per-round discrepancy trace.
    backend:
        Load-state backend ("auto", "object", "array"); see
        :mod:`repro.backend`.
    max_task_weight:
        When greater than 1 the workload vector counts *tasks* per node and
        every task draws an integer weight uniformly from
        ``[1, max_task_weight]`` (algorithm1 only) — the weighted-task
        setting of the paper's Theorem 3.
    rng_mode:
        How the randomized processes (algorithm2, randomized-rounding,
        excess-tokens) draw their randomness: "sequential" or the order-free,
        vectorisable edge/node-keyed "counter" mode.
    seeding:
        How ``seed`` is distributed over the randomized components:
        ``"legacy"`` (default) reuses the one integer everywhere — the
        historical replay contract — while ``"per-purpose"`` spawns
        independent child seeds for the topology sample, workload placement,
        matching schedule and algorithm randomness
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
    base_load: int = 0
    rounds: Optional[int] = None
    seed: int = 0
    record_trace: bool = False
    backend: str = "auto"
    max_task_weight: int = 1
    rng_mode: str = "sequential"
    seeding: str = "legacy"

    def __post_init__(self) -> None:
        _validate_common(self)
        if self.base_load < 0:
            raise ExperimentError("workload densities must be non-negative")
        if self.rounds is not None and self.rounds < 0:
            raise ExperimentError("rounds must be non-negative")

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        """Return a plain-dictionary representation (JSON friendly).

        ``seeding`` is omitted at its ``"legacy"`` default, so configuration
        dictionaries (and the run store's config hashes) of pre-existing
        scenarios are unchanged by the field's introduction.
        """
        return _scenario_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Scenario":
        """Build a scenario from a dictionary, rejecting unknown keys."""
        return _from_dict(cls, data)

    def to_json(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the scenario to a JSON file and return the path."""
        return _write_json(self.to_dict(), path)

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #

    def _purpose_seeds(self) -> PurposeSeeds:
        """Per-component seeds under this scenario's ``seeding`` mode."""
        return purpose_seeds(self.seed, legacy=self.seeding == "legacy")

    def build_network(self) -> Network:
        """Instantiate the network (topology + speed profile) of this scenario."""
        return _build_network(self.topology, self.num_nodes, self.speed_profile,
                              self._purpose_seeds().topology)

    def build_load(self, network: Network) -> np.ndarray:
        """Instantiate the integer workload vector of this scenario."""
        load = _WORKLOADS[self.workload](network, self.tokens_per_node,
                                         self._purpose_seeds().workload)
        if self.base_load:
            load = load + generators.balanced_load(network, self.base_load)
        return load

    def build_weighted_load(self, network: Network):
        """Instantiate the columnar weighted workload (``max_task_weight > 1``)."""
        return _build_weighted_load(self.build_load(network), self.max_task_weight,
                                    self._purpose_seeds().workload)


def load_scenario(path: Union[str, pathlib.Path]) -> Scenario:
    """Load a scenario from a JSON file."""
    return Scenario.from_dict(_read_json(path))


def run_scenario(scenario: Scenario, bus=None) -> RunResult:
    """Materialise and execute a scenario, returning the run result.

    ``bus`` forwards a :class:`~repro.obs.bus.MetricsBus` to the engine for
    per-round telemetry (see :mod:`repro.obs`).  Under
    ``seeding="per-purpose"`` the matching schedule and the algorithm's
    randomness draw from independent child seeds; the default ``"legacy"``
    mode reproduces historical trajectories exactly.
    """
    seeds = scenario._purpose_seeds()
    network = scenario.build_network()
    if scenario.max_task_weight > 1:
        workload = {"weighted_load": scenario.build_weighted_load(network)}
    else:
        workload = {"initial_load": scenario.build_load(network)}
    if scenario.seeding != "legacy":
        workload["schedule"] = make_schedule(scenario.continuous_kind, network,
                                             seed=seeds.schedule)
    return run_algorithm(
        scenario.algorithm,
        network,
        continuous_kind=scenario.continuous_kind,
        rounds=scenario.rounds,
        seed=seeds.algorithm,
        record_trace=scenario.record_trace,
        backend=scenario.backend,
        rng_mode=scenario.rng_mode,
        bus=bus,
        **workload,
    )


# ---------------------------------------------------------------------- #
# dynamic scenarios
# ---------------------------------------------------------------------- #


@dataclass
class DynamicScenario:
    """A serialisable description of one dynamic (streaming) experiment.

    The static fields mirror :class:`Scenario`; ``events`` names one of the
    event profiles of :data:`repro.dynamic.events.EVENT_PROFILES` and
    ``rounds`` is the fixed horizon of the stream (a dynamic run never
    "balances and stops" — it is observed for a fixed window).  With
    ``max_task_weight > 1`` the stream starts from a weighted workload
    (``tokens_per_node`` then counts *tasks*; algorithm1 only) while events
    keep streaming unit tokens.

    ``seeding`` mirrors :class:`Scenario`: ``"per-purpose"`` additionally
    gives the event generator its own independent child seed (the
    ``"events"`` purpose), so the arrival pattern decorrelates from the
    topology/workload/algorithm randomness.
    """

    name: str
    algorithm: str
    topology: str = "torus"
    num_nodes: int = 64
    tokens_per_node: int = 8
    workload: str = "uniform"
    speed_profile: str = "uniform"
    continuous_kind: str = "fos"
    events: str = "burst"
    rounds: int = 240
    seed: int = 0
    backend: str = "auto"
    max_task_weight: int = 1
    rng_mode: str = "sequential"
    seeding: str = "legacy"

    def __post_init__(self) -> None:
        from ..dynamic.events import EVENT_PROFILES

        _validate_common(self)
        if self.events not in EVENT_PROFILES:
            raise ExperimentError(
                f"unknown event profile {self.events!r}; valid: {sorted(EVENT_PROFILES)}")
        if self.rounds < 0:
            raise ExperimentError("rounds must be non-negative")

    def to_dict(self) -> Dict[str, object]:
        """Return a plain-dictionary representation (JSON friendly).

        As for :class:`Scenario`, ``seeding`` is omitted at its ``"legacy"``
        default to keep config hashes stable.
        """
        return _scenario_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DynamicScenario":
        """Build a dynamic scenario from a dictionary, rejecting unknown keys."""
        return _from_dict(cls, data)

    def to_json(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the scenario to a JSON file and return the path."""
        return _write_json(self.to_dict(), path)

    def _purpose_seeds(self) -> PurposeSeeds:
        """Per-component seeds under this scenario's ``seeding`` mode."""
        return purpose_seeds(self.seed, legacy=self.seeding == "legacy")

    def build_network(self) -> Network:
        """Instantiate the initial network (topology + speed profile)."""
        return _build_network(self.topology, self.num_nodes, self.speed_profile,
                              self._purpose_seeds().topology)

    def build_load(self, network: Network) -> np.ndarray:
        """Instantiate the initial integer workload vector."""
        return _WORKLOADS[self.workload](network, self.tokens_per_node,
                                         self._purpose_seeds().workload)

    def build_weighted_load(self, network: Network):
        """Instantiate the columnar weighted workload (``max_task_weight > 1``)."""
        return _build_weighted_load(self.build_load(network), self.max_task_weight,
                                    self._purpose_seeds().workload)


def load_dynamic_scenario(path: Union[str, pathlib.Path]) -> DynamicScenario:
    """Load a dynamic scenario from a JSON file."""
    return DynamicScenario.from_dict(_read_json(path))


def run_dynamic_scenario(scenario: DynamicScenario, bus=None,
                         checkpoint_every: Optional[int] = None,
                         checkpoint_path=None) -> RunResult:
    """Materialise and execute a dynamic scenario, returning the run result.

    ``bus`` forwards a :class:`~repro.obs.bus.MetricsBus` to the streaming
    engine for per-round telemetry (see :mod:`repro.obs`).  With
    ``checkpoint_every``/``checkpoint_path`` the stream snapshots itself
    periodically; the checkpoint embeds the scenario so ``repro resume`` (or
    :func:`repro.checkpoint.resume_stream`) can rebuild the event generator
    without further input.
    """
    from ..dynamic.events import make_event_generator
    from ..dynamic.stream import run_stream

    seeds = scenario._purpose_seeds()
    network = scenario.build_network()
    if scenario.max_task_weight > 1:
        load = scenario.build_weighted_load(network)
    else:
        load = scenario.build_load(network)
    generator = make_event_generator(scenario.events, network,
                                     scenario.tokens_per_node, seed=seeds.events)
    return run_stream(
        scenario.algorithm,
        network,
        load,
        generator,
        rounds=scenario.rounds,
        continuous_kind=scenario.continuous_kind,
        seed=seeds.algorithm,
        backend=scenario.backend,
        rng_mode=scenario.rng_mode,
        bus=bus,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        checkpoint_meta=({"scenario": scenario.to_dict()}
                         if checkpoint_every is not None else None),
    )


# ---------------------------------------------------------------------- #
# many-seed grids
# ---------------------------------------------------------------------- #


def expand_seeds(scenario, seeds: Sequence[int]) -> List:
    """Replicate a scenario once per seed (names suffixed ``-s{seed}``).

    Works for both :class:`Scenario` and :class:`DynamicScenario`; the
    replicas are the natural grid for many-seed statistics (e.g. recovery
    times per spectral-gap point).  Wrap each replica in a
    ``GridCell(kind="scenario" | "dynamic", spec=replica, index=i)`` and
    run them with :func:`repro.simulation.parallel.run_cells`, which
    returns them in input order, bit-identical to serial
    :func:`run_scenario` / :func:`run_dynamic_scenario` calls.  Each
    replica's ``seeding`` mode travels with it into the workers.
    """
    if not seeds:
        raise ExperimentError("at least one seed is required")
    return [replace(scenario, name=f"{scenario.name}-s{seed}", seed=int(seed))
            for seed in seeds]
