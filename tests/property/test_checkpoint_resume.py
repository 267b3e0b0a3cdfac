"""Kill a checkpointed stream at a generated round; the resume must equal the full run.

Hypothesis draws an event profile, a seed, a backend, a unit or weighted
(w <= 3, algorithm1) workload, a checkpoint cadence and a kill round.  An
engine is stepped to the kill round, writing a version 2 checkpoint at round
0 and every ``cadence`` rounds to one path, so all but the first write
append to the sidecar.  An engine restored from a checkpoint written at the
kill round must snapshot exactly as the live engine does there.  Reading the
last checkpoint back and resuming it must reproduce the uninterrupted run's
traces, counters and event timeline.
So must the same checkpoint rendered in the version 1 layout (one JSON file
with the timeline and traces inline), and a resume that keeps checkpointing
to the same path: it starts a fresh sidecar, appends to it, and its final
checkpoint resumes to the same run again.

The example count comes from the active hypothesis profile (see
``tests/conftest.py``).
"""

from __future__ import annotations

import json
import pathlib
import tempfile
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    checkpoint_engine,
    read_checkpoint,
    restore_engine,
    resume_stream,
    write_checkpoint,
)
from repro.dynamic.events import EVENT_PROFILES, make_event_generator
from repro.dynamic.stream import StreamingEngine
from repro.simulation.scenario import Scenario, run_scenario
from repro.store.runstore import canonical_json

ROUNDS = 20


def _scenario(profile, seed, backend, weighted):
    return Scenario(name="kill", algorithm="algorithm1" if weighted else "algorithm2",
                    topology="cycle", num_nodes=10, tokens_per_node=6, workload="uniform",
                    rounds=ROUNDS, events=profile, seed=seed, backend=backend,
                    max_task_weight=3 if weighted else 1)


def _generator(scenario):
    return make_event_generator(scenario.events, scenario.build_network(),
                                scenario.tokens_per_node, seed=scenario._purpose_seeds().events)


def _engine(scenario):
    network = scenario.build_network()
    load = (scenario.build_weighted_load(network) if scenario.max_task_weight > 1
            else scenario.build_load(network))
    return StreamingEngine(scenario.algorithm, network, load, _generator(scenario),
                           seed=scenario._purpose_seeds().algorithm, backend=scenario.backend)


def _write_v1(checkpoint, path):
    """The checkpoint in the version 1 layout: one JSON file, history inline."""
    data = {spec.name: getattr(checkpoint, spec.name) for spec in fields(checkpoint)}
    data["version"] = 1
    path.write_text(canonical_json(data) + "\n")
    return path


def _assert_same_run(resumed, baseline, label):
    assert resumed.trace_max_min == baseline.trace_max_min, label
    assert resumed.trace_total_weight == baseline.trace_total_weight, label
    assert resumed.extra == baseline.extra, label
    assert resumed.event_timeline == baseline.event_timeline, label


@given(profile=st.sampled_from(sorted(EVENT_PROFILES)), seed=st.integers(0, 2**16),
       backend=st.sampled_from(["object", "array"]), weighted=st.booleans(),
       cadence=st.integers(1, 7), kill=st.integers(0, ROUNDS))
@example(profile="mixed", seed=3, backend="array", weighted=False, cadence=3, kill=ROUNDS)
@settings(deadline=None)
def test_resume_after_a_kill_equals_the_uninterrupted_run(profile, seed, backend, weighted,
                                                          cadence, kill):
    scenario = _scenario(profile, seed, backend, weighted)
    baseline = run_scenario(scenario)
    engine = _engine(scenario)
    trace = [engine.current_discrepancy()]
    totals = [float(engine.total_real_load())]
    with tempfile.TemporaryDirectory() as workdir:
        path = pathlib.Path(workdir) / "run.ckpt.json"
        write_checkpoint(checkpoint_engine(engine, ROUNDS, trace, totals), path)
        while engine.round_index < kill:
            engine.step()
            trace.append(engine.current_discrepancy())
            totals.append(float(engine.total_real_load()))
            if engine.round_index % cadence == 0:
                write_checkpoint(checkpoint_engine(engine, ROUNDS, trace, totals), path)
        live = engine.state_dict()
        at_kill = write_checkpoint(checkpoint_engine(engine, ROUNDS, trace, totals),
                                   pathlib.Path(workdir) / "kill.ckpt.json")
        restored = restore_engine(read_checkpoint(at_kill), generator=_generator(scenario))
        assert restored.state_dict() == live

        checkpoint = read_checkpoint(path)
        assert checkpoint.round_index == kill - kill % cadence
        assert json.loads(path.read_text())["history"]["trace"] == checkpoint.round_index + 1

        _assert_same_run(resume_stream(checkpoint, generator=_generator(scenario)),
                         baseline, "v2")
        v1 = read_checkpoint(_write_v1(checkpoint, pathlib.Path(workdir) / "v1.json"))
        assert v1.version == 1 and v1.state == checkpoint.state
        _assert_same_run(resume_stream(v1, generator=_generator(scenario)), baseline, "v1")
        _assert_same_run(resume_stream(path, generator=_generator(scenario),
                                       checkpoint_every=cadence), baseline, "re-checkpointed")
        _assert_same_run(resume_stream(path, generator=_generator(scenario)), baseline,
                         "from the resumed run's last checkpoint")
