"""Multi-seed sweeps: run a configuration many times and aggregate the results.

Randomized components (Algorithm 2, randomized-rounding baselines, random
matching schedules, random workloads) make single runs noisy.  A
:class:`SweepConfiguration` describes one experimental cell (algorithm,
topology, workload, substrate); :func:`run_sweep` executes it over several
seeds and returns a :class:`SweepResult` with per-metric
:class:`~repro.analysis.aggregate.SampleStatistics`.  Each (cell, seed) run
is the static :class:`~repro.simulation.scenario.Scenario` that
:meth:`SweepConfiguration.scenario` returns, executed by the one cell runner
:func:`~repro.simulation.scenario.run_scenario`.

Each (cell, seed) run derives **independent child seeds** for the topology
sample, the workload placement, the matching schedule and the algorithm's
internal randomness via :mod:`repro.simulation.seeding` — reusing one integer
for all four (the historical behaviour, still available as a
``Scenario(..., seeding="legacy")``) correlates components that the
experiment design treats as independent.

Sweeps are embarrassingly parallel across (cell, seed) pairs: to shard a
grid of configurations over a process pool, flatten it with
:func:`~repro.simulation.parallel.sweep_cells`, run the cells with
:func:`~repro.simulation.parallel.run_cells` and group the outcomes with
:func:`~repro.simulation.parallel.merge_sweeps`.  The merge is bit-identical
to :func:`run_sweep` because every run is a pure function of its cell and
seed.

The benchmarks use single representative seeds for speed; the sweep API is
what a user would reach for to put error bars on the tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..analysis.aggregate import SampleStatistics, summarize_samples
from ..counter_rng import require_counter_rng
from ..exceptions import ExperimentError
from .results import RunResult
from .scenario import Scenario, run_scenario
from .workloads import WORKLOADS

__all__ = [
    "WORKLOADS",
    "SweepConfiguration",
    "SweepResult",
    "run_sweep",
]


@dataclass(frozen=True)
class SweepConfiguration:
    """One experimental cell of a sweep.

    Attributes
    ----------
    algorithm:
        One of :data:`repro.simulation.engine.ALL_ALGORITHMS`.
    topology:
        A named topology family (see :func:`repro.network.topologies.named_topology`).
    num_nodes:
        Approximate network size.
    tokens_per_node:
        Average workload density.
    workload:
        One of :data:`~repro.simulation.workloads.WORKLOADS` (``"point"``,
        ``"two-point"``, ``"uniform"``, ``"half-nodes"``, ``"gradient"``,
        ``"balanced"``).
    continuous_kind:
        The continuous substrate ("fos", "sos", "periodic-matching",
        "random-matching").
    backend:
        Load-state backend ("auto", "object", "array"); see :mod:`repro.backend`.
    rng_mode:
        Always ``"counter"`` (:mod:`repro.counter_rng`); kept because the
        run store's config hashes include it.
    """

    algorithm: str
    topology: str = "torus"
    num_nodes: int = 64
    tokens_per_node: int = 32
    workload: str = "point"
    continuous_kind: str = "fos"
    backend: str = "auto"
    rng_mode: str = "counter"

    def __post_init__(self) -> None:
        require_counter_rng(self.rng_mode, error=ExperimentError)

    def label(self) -> str:
        """A compact human-readable label for tables."""
        return (f"{self.algorithm} on {self.topology}(n~{self.num_nodes}) "
                f"[{self.workload}, {self.continuous_kind}]")

    def scenario(self, seed: int, record_trace: bool = False) -> Scenario:
        """The static :class:`~repro.simulation.scenario.Scenario` of one (cell, seed) run.

        Sweeps seed per purpose; the scenario validates the fields.
        """
        return Scenario(name=self.label(), seed=seed, record_trace=record_trace,
                        seeding="per-purpose", **vars(self))


@dataclass
class SweepResult:
    """Aggregated outcome of running one configuration over several seeds."""

    configuration: SweepConfiguration
    runs: List[RunResult] = field(default_factory=list)

    @property
    def num_runs(self) -> int:
        """Number of completed runs."""
        return len(self.runs)

    def statistic(self, metric: str) -> SampleStatistics:
        """Aggregate one metric ("max_min", "max_avg", "rounds", "dummy_tokens")."""
        extractors = {
            "max_min": lambda run: run.final_max_min,
            "max_avg": lambda run: run.final_max_avg,
            "rounds": lambda run: float(run.rounds),
            "dummy_tokens": lambda run: float(run.dummy_tokens),
        }
        if metric not in extractors:
            raise ExperimentError(
                f"unknown metric {metric!r}; valid metrics: {sorted(extractors)}"
            )
        if not self.runs:
            raise ExperimentError("the sweep produced no runs to aggregate")
        return summarize_samples([extractors[metric](run) for run in self.runs])

    def as_row(self) -> Dict[str, object]:
        """Flatten into a table row: configuration plus the key aggregates."""
        max_min = self.statistic("max_min")
        rounds = self.statistic("rounds")
        return {
            "algorithm": self.configuration.algorithm,
            "topology": self.configuration.topology,
            "n": self.configuration.num_nodes,
            "workload": self.configuration.workload,
            "substrate": self.configuration.continuous_kind,
            "runs": self.num_runs,
            "max_min_mean": max_min.mean,
            "max_min_p90": max_min.percentile_90,
            "max_min_worst": max_min.maximum,
            "rounds_mean": rounds.mean,
        }


def run_sweep(configuration: SweepConfiguration, seeds: Sequence[int],
              record_trace: bool = False, bus=None) -> SweepResult:
    """Run one configuration once per seed, serially, and aggregate the results.

    Each seed spawns independent child streams for the topology sample (for
    random families), the workload placement, the matching schedule and the
    algorithm's internal randomness, so repeated sweeps with the same seeds
    are fully reproducible and the components stay uncorrelated across
    seeds.

    Each run is :func:`~repro.simulation.scenario.run_scenario` of
    :meth:`SweepConfiguration.scenario`, the same call the process-pool
    workers of :mod:`repro.simulation.parallel` make: this in-process loop
    is the reference the sharded grid driver is checked against bit for bit.
    ``bus`` forwards a :class:`~repro.obs.bus.MetricsBus` to every run.
    """
    if not seeds:
        raise ExperimentError("at least one seed is required")
    result = SweepResult(configuration=configuration)
    for seed in seeds:
        result.runs.append(run_scenario(
            configuration.scenario(seed, record_trace=record_trace), bus=bus))
    return result
