"""stream-churn: a long dynamic stream with checkpoints and one resume.

A 2-D torus with a uniform random load, the repo's ``mixed`` event profile
(Poisson arrivals and departures, periodic bursts, node join/leave churn)
and Algorithm 2 with counter RNG on the array backend.  The benchmark drives
``StreamingEngine.step()`` for a fixed number of timed steps.  Arrivals and
departures force a fast (load-only) re-coupling on nearly every step; node
churn forces a full re-coupling on a few percent of them.  One repetition
also writes a checkpoint at a fixed cadence and resumes once from the last
one.  The ``dynamic`` and ``checkpoint`` layers do most of the work here.

The base load and the event schedule are fixed; the workload seed moves the
load by a torus automorphism and seeds the rounding, so every seed streams
the same events over the same amount of work.
"""

from __future__ import annotations

import pathlib
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.checkpoint import checkpoint_engine, read_checkpoint, restore_engine, write_checkpoint
from repro.dynamic.events import make_event_generator
from repro.dynamic.stream import StreamingEngine
from repro.network import topologies
from repro.obs.kernels import activate_kernel_clock, deactivate_kernel_clock
from repro.simulation.workloads import WORKLOADS

from harness import (Budget, Ledger, Spans, fastest_units, maybe_span, peak_rss_mb, tail_ms,
                     unit_metrics)
from static_large import translate

#: Seed of the base load and of the event schedule.
PATTERN_SEED = 4242


@dataclass(frozen=True)
class Params:
    side: int = 16
    tokens_per_node: int = 32
    steps: int = 1000
    checkpoint_every: int = 500
    continue_steps: int = 20
    setups_per_rep: int = 5
    min_reps: int = 3


FULL = Params()
TINY = Params(side=6, tokens_per_node=8, steps=40, checkpoint_every=10,
              continue_steps=5, setups_per_rep=2)


class Stream:
    """One stream's inputs, rebuilt identically for every repetition."""

    def __init__(self, params: Params, seed: int, spans: Optional[Spans] = None) -> None:
        self.params = params
        self.seed = seed
        start = time.perf_counter()
        with maybe_span(spans):
            self.network = topologies.torus(params.side)
        self.build_s = time.perf_counter() - start
        base = WORKLOADS["uniform"](self.network, params.tokens_per_node, PATTERN_SEED)
        self.load = translate(base, params.side, seed)
        made = time.perf_counter()
        with maybe_span(spans):
            self.engine = self.new_engine()
        self.engine_s = time.perf_counter() - made
        self.setup_s = time.perf_counter() - start

    def generator(self):
        return make_event_generator("mixed", self.network, self.params.tokens_per_node,
                                    seed=PATTERN_SEED)

    def new_engine(self) -> StreamingEngine:
        return StreamingEngine("algorithm2", self.network, self.load, self.generator(),
                               seed=self.seed, backend="array", rng_mode="counter")


def _counters(engine: StreamingEngine) -> Dict[str, int]:
    result = engine.result()
    extra = result.extra
    rejected = int(extra["rejected_events"])
    return {
        "round": engine.round_index,
        "recouplings_fast": engine.fast_recouplings,
        "recouplings_full": engine.recouplings - engine.fast_recouplings,
        "events_applied": len(result.event_timeline) - rejected,
        "events_rejected": rejected,
        "arrivals": int(extra["arrivals"]),
        "departures": int(extra["departures"]),
        "clamped": int(extra["clamped_tokens"]),
        "total_load": engine.total_real_load(),
        "dummy_tokens": result.dummy_tokens,
    }


def _check_conservation(ledger: Ledger, initial: int, state: Dict[str, object],
                        where: str) -> None:
    tokens = state["tokens"]
    ledger.check(sum(tokens.values()) == initial + state["arrived"] - state["departed"],
                 f"{where}: total load != initial + arrivals - departures")
    ledger.check(min(tokens.values()) >= 0, f"{where}: negative load")


def _run_steps(params: Params, engine: StreamingEngine, ledger: Ledger,
               checkpoint_dir: Optional[pathlib.Path], trace: bool) -> Dict[str, object]:
    """Step a fresh engine ``steps`` times; checkpoint when a directory is given."""
    initial = engine.total_real_load()
    latencies: List[float] = []
    kinds: List[str] = []
    views: List[float] = []
    tokens_moved = 0
    writes: List[float] = []
    sizes: List[int] = []
    path = None if checkpoint_dir is None else checkpoint_dir / "stream.ckpt.json"
    failed_steps = 0
    for step in range(params.steps):
        if trace:
            tick = time.perf_counter()
            engine.view()
            views.append(time.perf_counter() - tick)
        recouplings, fast = engine.recouplings, engine.fast_recouplings
        tick = time.perf_counter()
        try:
            engine.step()
        except Exception as exc:  # a failed step is a counted operation
            ledger.record(False, f"step {step}: {exc!r}")
            failed_steps += 1
            if failed_steps > 10:
                break
            continue
        latencies.append(time.perf_counter() - tick)
        ledger.record(True, "step")
        if engine.recouplings == recouplings:
            kinds.append("none")
        else:
            kinds.append("fast" if engine.fast_recouplings > fast else "full")
        reports = engine.balancer.round_reports
        tokens_moved += reports[-1].tasks_moved if reports else 0
        if path is not None and engine.round_index % params.checkpoint_every == 0:
            tick = time.perf_counter()
            try:
                snapshot = checkpoint_engine(engine, total_rounds=params.steps)
                write_checkpoint(snapshot, path)
            except Exception as exc:
                ledger.record(False, f"checkpoint write: {exc!r}")
                continue
            writes.append(time.perf_counter() - tick)
            ledger.record(True, "checkpoint write")
            sizes.append(path.stat().st_size)
            _check_conservation(ledger, initial, snapshot.state,
                                f"checkpoint at step {engine.round_index}")
    counters = _counters(engine)
    ledger.check(counters["total_load"]
                 == initial + counters["arrivals"] - counters["departures"],
                 "stream: total real load != initial + arrivals - departures")
    ledger.check(counters["clamped"] == 0, "stream: loads clamped at zero")
    ledger.check(min(engine.tokens_by_label().values()) >= 0, "stream: negative load")
    counters["tokens_moved"] = tokens_moved
    return {"engine": engine, "wall": sum(latencies), "latencies": latencies,
            "kinds": kinds, "views": views, "writes": writes, "sizes": sizes,
            "path": path, "counters": counters}


def _resume(stream: Stream, rep: Dict[str, object], ledger: Ledger) -> Dict[str, float]:
    """Resume from the last checkpoint; it must match the uninterrupted engine."""
    start = time.perf_counter()
    try:
        checkpoint = read_checkpoint(rep["path"])
        read = time.perf_counter()
        resumed = restore_engine(checkpoint, generator=stream.generator())
    except Exception as exc:
        ledger.record(False, f"resume: {exc!r}")
        return {}
    done = time.perf_counter()
    ledger.record(True, "resume")
    engine = rep["engine"]
    try:
        for _ in range(checkpoint.round_index, engine.round_index):
            resumed.step()
        ledger.check(resumed.tokens_by_label() == engine.tokens_by_label(),
                     "resumed loads differ from the uninterrupted engine")
        for _ in range(stream.params.continue_steps):
            engine.step()
            resumed.step()
    except Exception as exc:
        ledger.record(False, f"stepping after the resume: {exc!r}")
    else:
        ledger.check(resumed.tokens_by_label() == engine.tokens_by_label()
                     and resumed.recouplings == engine.recouplings
                     and resumed.fast_recouplings == engine.fast_recouplings,
                     "resumed engine diverged from the uninterrupted one")
    return {"read_s": read - start, "replay_s": done - read, "resume_s": done - start}


def run(params: Params, seed: int, seconds: float, trace: bool, ledger: Ledger,
        workdir: pathlib.Path) -> Dict[str, object]:
    setups = []

    def fresh_stream() -> Stream:
        # set-up samples are spread over the run, next to the streams they feed
        streams = [Stream(params, seed) for _ in range(params.setups_per_rep)]
        setups.extend((s.setup_s, s.build_s, s.engine_s) for s in streams)
        return streams[-1]

    # one repetition checkpoints and resumes; the timed ones only step, so
    # checkpoint writes never sit between the steps the end-to-end metrics time
    budget = Budget(seconds, minimum=params.min_reps)
    stream = fresh_stream()
    first = _run_steps(params, stream.engine, ledger, workdir, trace=False)
    resume = _resume(stream, first, ledger) if first["writes"] else {}
    first["engine"] = stream = None
    reps = []
    while budget.more():
        started = time.perf_counter()
        rep = _run_steps(params, fresh_stream().engine, ledger, None, trace=False)
        rep["engine"] = None
        budget.add(time.perf_counter() - started)
        reps.append(rep)
        if trace:
            break
    if trace:
        spans = Spans()
        traced_stream = Stream(params, seed, spans)
        clock = activate_kernel_clock()
        try:
            with spans.span():
                traced = _run_steps(params, traced_stream.engine, ledger, None, trace=True)
        finally:
            deactivate_kernel_clock()
        reps.append(traced)
    ledger.exact("stream-churn counts", [rep["counters"] for rep in [first] + reps])

    steps = len(first["latencies"])
    writes = first["writes"]
    if not trace:
        units = fastest_units([rep["latencies"] for rep in reps])
        samples = f"{len(reps)}x{steps}"
        return {
            "metrics": {
                "setup_s": statistics.median(s[0] for s in setups),
                **unit_metrics(units),
                "peak_rss_mb": peak_rss_mb(),
            },
            "samples": {"setup_s": len(setups),
                        **dict.fromkeys(("solve_s", "rounds_per_s", "round_ms_p50"), samples)},
            "extra": {
                "round_ms_p99": tail_ms(units, samples),
                "checkpoint_s": (float(np.median(writes)) if writes else float("nan"),
                                 "s", len(writes)),
                "resume_s": (resume.get("resume_s", float("nan")), "s", 1),
            },
        }

    phases = clock.totals
    advance = phases.get("continuous/advance", 0.0)
    flow = phases.get("flow/array-round", 0.0)
    wall = traced["wall"]
    counters = traced["counters"]

    def p50(kind: str) -> float:
        chosen = [lat for lat, k in zip(traced["latencies"], traced["kinds"]) if k == kind]
        return 1e3 * float(np.median(chosen)) if chosen else 0.0

    return {
        "metrics": {
            "network.build_s": statistics.median(s[1] for s in setups),
            "simulation.make_balancer_s": statistics.median(s[2] for s in setups),
            "continuous.advance_ms": 1e3 * advance / steps,
            "backend.flow_round_ms": 1e3 * flow / steps,
            "discrete.round_other_ms": 1e3 * (wall - advance - flow) / steps,
            "discrete.kernel_share": (advance + flow) / wall,
            "continuous.rounds": counters["round"],
            "backend.tokens_moved": counters["tokens_moved"],
            "backend.dummy_tokens": counters["dummy_tokens"],
            "dynamic.step_fast_ms_p50": p50("fast"),
            "dynamic.step_full_ms_p50": p50("full"),
            "dynamic.view_ms": 1e3 * sum(traced["views"]) / steps,
            "dynamic.recouplings_fast": counters["recouplings_fast"],
            "dynamic.recouplings_full": counters["recouplings_full"],
            "dynamic.events_applied": counters["events_applied"],
            "dynamic.events_rejected": counters["events_rejected"],
            "checkpoint.write_s": float(np.median(writes)) if writes else 0.0,
            "checkpoint.bytes": first["sizes"][-1] if first["sizes"] else 0,
            "checkpoint.read_s": resume.get("read_s", 0.0),
            "checkpoint.replay_s": resume.get("replay_s", 0.0),
            "checkpoint.resume_s": resume.get("resume_s", 0.0),
            "obs.tracing_overhead": wall / reps[0]["wall"] - 1.0,
            "obs.unattributed_s": spans.unattributed(),
        },
    }
