"""Tests for the command line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.network import topologies


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.topology == "torus"
        assert args.continuous == "fos"

    def test_invalid_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--algorithms", "frobnicate"])

    @pytest.mark.parametrize("argv,tokens,workers", [
        (["compare"], 32, None), (["dynamic"], 8, None),
        (["sweep", "--algorithm", "algorithm1"], 32, 1),
        (["grid", "--algorithms", "algorithm1"], 32, None)])
    def test_shared_experiment_flags_keep_per_command_defaults(self, argv, tokens, workers):
        from repro.simulation.engine import CONTINUOUS_KINDS

        args = build_parser().parse_args(argv)
        assert (args.nodes, args.tokens_per_node, args.continuous,
                args.backend) == (64, tokens, "fos", "auto")
        assert not hasattr(args, "rng_mode")
        with pytest.raises(SystemExit):
            build_parser().parse_args([*argv, "--rng-mode", "counter"])
        assert getattr(args, "workers", None) == workers
        for kind in CONTINUOUS_KINDS:
            assert build_parser().parse_args([*argv, "--continuous", kind]).continuous == kind


class TestCommands:
    def test_compare_command_output(self, capsys):
        exit_code = main(["compare", "--topology", "cycle", "--nodes", "8",
                          "--tokens-per-node", "8",
                          "--algorithms", "round-down", "algorithm1", "--seed", "1"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "round-down" in output
        assert "algorithm1" in output
        assert "max_min" in output

    def test_compare_matching_model(self, capsys):
        exit_code = main(["compare", "--topology", "hypercube", "--nodes", "16",
                          "--tokens-per-node", "4", "--continuous", "periodic-matching",
                          "--algorithms", "matching-round-down", "algorithm1"])
        assert exit_code == 0
        assert "matching-round-down" in capsys.readouterr().out

    def test_scenario_command(self, capsys, tmp_path):
        from repro.simulation.scenario import Scenario

        scenario_path = Scenario(name="cli-demo", algorithm="algorithm1", topology="cycle",
                                 num_nodes=8, tokens_per_node=8, seed=1).to_json(
            tmp_path / "scenario.json")
        csv_path = tmp_path / "result.csv"
        exit_code = main(["scenario", "--file", str(scenario_path), "--csv", str(csv_path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "cli-demo" in output
        assert csv_path.exists()

    def test_sweep_command(self, capsys):
        exit_code = main(["sweep", "--algorithm", "algorithm2", "--topology", "torus",
                          "--nodes", "16", "--tokens-per-node", "8",
                          "--seeds", "1", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "algorithm2" in output
        assert "max_min_mean" in output

    def test_dynamic_command(self, capsys, tmp_path):
        csv_path = tmp_path / "dynamic.csv"
        exit_code = main(["dynamic", "--scenario", "burst", "--algorithm", "algorithm2",
                          "--topology", "torus", "--nodes", "16", "--tokens-per-node", "6",
                          "--rounds", "80", "--seed", "3", "--csv", str(csv_path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "dynamic 'burst' stream" in output
        assert "steady_state" in output
        assert "burst at round" in output
        assert csv_path.exists()

    def test_sweep_command_with_workers(self, capsys):
        exit_code = main(["sweep", "--algorithm", "algorithm2", "--topology", "torus",
                          "--nodes", "16", "--tokens-per-node", "8",
                          "--seeds", "1", "2", "3", "--workers", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "algorithm2" in output
        assert "max_min_mean" in output

    def test_sweep_command_accepts_shared_registry_workloads(self, capsys):
        exit_code = main(["sweep", "--algorithm", "algorithm1", "--topology", "cycle",
                          "--nodes", "8", "--tokens-per-node", "4",
                          "--workload", "two-point", "--seeds", "1"])
        assert exit_code == 0
        assert "two-point" in capsys.readouterr().out

    def test_grid_command(self, capsys):
        exit_code = main(["grid", "--algorithms", "round-down", "algorithm1",
                          "--topologies", "cycle:8", "torus:16",
                          "--tokens-per-node", "8", "--seeds", "1", "2",
                          "--workers", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "round-down" in output and "algorithm1" in output
        assert "cycle" in output and "torus" in output

    def test_grid_command_rejects_malformed_topology_entry(self, capsys):
        with pytest.raises(SystemExit):
            main(["grid", "--algorithms", "round-down",
                  "--topologies", "torus:4x4", "--seeds", "1"])
        assert "invalid --topologies entry" in capsys.readouterr().err

    def test_grid_command_bare_topology_uses_nodes(self, capsys):
        exit_code = main(["grid", "--algorithms", "round-down",
                          "--topologies", "cycle", "--nodes", "8",
                          "--tokens-per-node", "4", "--seeds", "1"])
        assert exit_code == 0
        assert "cycle" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,message", [
        (["grid", "--algorithms", "algorithm2", "--topologies", "torus:0"],
         "a scenario needs at least two nodes"),
        (["grid", "--algorithms", "algorithm2", "--topologies", "torus:16", "torus:1"],
         "torus(n~1)"),
        (["sweep", "--algorithm", "algorithm2", "--topology", "nosuch", "--workers", "2",
          "--max-retries", "2"], "unknown topology 'nosuch'"),
        (["grid", "--algorithms", "algorithm1", "--topologies", "cycle:2"],
         "a cycle needs at least 3 nodes"),
        (["grid", "--algorithms", "algorithm1", "--topologies", "expander:3"],
         "need 1 <= degree < n for a random regular graph (degree 4, n 3)"),
        (["grid", "--algorithms", "algorithm1", "--topologies", "random-regular-8:8",
          "--workers", "2", "--max-retries", "2"],
         "need 1 <= degree < n for a random regular graph (degree 8, n 8)"),
    ], ids=["grid-torus:0", "grid-torus:1", "sweep-nosuch", "grid-cycle:2",
            "grid-expander:3", "grid-random-regular-8:8"])
    def test_bad_grid_spec_exits_2_before_any_cell_runs(self, argv, message, capsys,
                                                         monkeypatch):
        import repro.simulation.parallel as parallel

        def unrun(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(parallel, "run_cells", unrun)
        assert main(argv + ["--seeds", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_dynamic_seed_grid(self, capsys):
        exit_code = main(["dynamic", "--scenario", "burst", "--algorithm", "algorithm2",
                          "--topology", "torus", "--nodes", "16",
                          "--tokens-per-node", "6", "--rounds", "60",
                          "--seeds", "1", "2", "--workers", "2",
                          "--warmup", "5"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "2 seed(s)" in output
        assert "seed 1" in output and "seed 2" in output

    def test_dynamic_rejects_unknown_profile(self, capsys):
        assert main(["dynamic", "--scenario", "tsunami"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown events 'tsunami'")
        assert "Traceback" not in captured.err

    def test_dynamic_invalid_combination_exits_2(self, capsys, monkeypatch):
        # the scenario rejects the pairing before any network is built
        def unbuilt(*args, **kwargs):
            raise AssertionError("a network was built")

        monkeypatch.setattr(topologies, "named_topology", unbuilt)
        assert main(["dynamic", "--nodes", "16", "--rounds", "4",
                     "--algorithm", "round-down",
                     "--continuous", "random-matching"]) == 2
        assert "error: 'round-down' is a diffusion baseline" in capsys.readouterr().err

    @pytest.mark.parametrize("continuous,baseline", [
        ("fos", "round-down"), ("sos", "round-down"),
        ("periodic-matching", "matching-round-down"),
        ("random-matching", "matching-round-down")])
    def test_compare_defaults_to_the_substrates_baseline(self, capsys, continuous, baseline):
        assert main(["compare", "--topology", "cycle", "--nodes", "8",
                     "--tokens-per-node", "4", "--continuous", continuous]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[0] for row in rows] == [baseline, "algorithm1", "algorithm2"]

    @pytest.mark.parametrize("continuous,algorithm,message", [
        ("random-matching", "round-down", "'round-down' is a diffusion baseline"),
        ("fos", "matching-randomized", "'matching-randomized' is a matching baseline"),
        ("sos", "randomized-rounding", "'randomized-rounding' has no second-order form")])
    def test_compare_invalid_pair_exits_2(self, capsys, continuous, algorithm, message):
        assert main(["compare", "--nodes", "16", "--continuous", continuous,
                     "--algorithms", "algorithm1", algorithm]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("field,value,message", [
        ("topology", "nope", "nope"),
        ("num_nodes", "64", "scenario field 'num_nodes' must be int"),
        ("rounds", "5", "scenario field 'rounds' must be int or null"),
    ])
    def test_scenario_bad_input_exits_2(self, capsys, tmp_path, field, value, message):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "algorithm": "algorithm1",
                                    "num_nodes": 8, field: value}))
        assert main(["scenario", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.out == ""

    def test_audit_command(self, capsys):
        exit_code = main(["audit", "--algorithm", "algorithm1", "--topology", "cycle",
                          "--nodes", "12", "--tokens-per-node", "8", "--seed", "3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "audited" in output
        assert "clean" in output
        assert "Theorem 3 bound" in output

    #: ``repro audit`` stdout recorded before the command ran through
    #: ``run_algorithm(audit=True)``; the default 32 tokens per node, seed 7.
    RECORDED_AUDITS = {
        ("algorithm1", "torus", "36"): (
            "algorithm1 on torus-2d-6 (n=36, d=4):\n"
            "audited 22 rounds: clean; max |flow error| = 0.999, "
            "max |load deviation| = 3.854, dummy tokens = 0\n"
            "final max-min discrepancy: 8.0 (Theorem 3 bound 10)\n"),
        ("algorithm2", "cycle", "12"): (
            "algorithm2 on cycle-12 (n=12, d=2):\n"
            "audited 45 rounds: clean; max |flow error| = 0.919, "
            "max |load deviation| = 1.838, dummy tokens = 0\n"
            "final max-min discrepancy: 3.0 (Theorem 3 bound 6)\n"),
    }

    @pytest.mark.parametrize("instance", sorted(RECORDED_AUDITS))
    def test_audit_stdout_matches_the_record(self, capsys, instance):
        algorithm, topology, nodes = instance
        exit_code = main(["audit", "--algorithm", algorithm, "--topology", topology,
                          "--nodes", nodes])
        assert exit_code == 0
        assert capsys.readouterr().out == self.RECORDED_AUDITS[instance]

    def test_audit_exits_1_on_violations(self, capsys, monkeypatch):
        """Algorithm 1 that sends nothing breaks Observation 4 and Lemma 6."""
        from repro.core.algorithm1 import DeterministicFlowImitation
        from repro.core.flow_imitation import EdgeSendPlan

        monkeypatch.setattr(
            DeterministicFlowImitation, "_plan_edge_send",
            lambda self, source, destination, residual, pool:
            EdgeSendPlan(source=source, destination=destination))
        exit_code = main(["audit", "--algorithm", "algorithm1", "--topology", "cycle",
                          "--nodes", "12", "--tokens-per-node", "8"])
        assert exit_code == 1
        output = capsys.readouterr().out
        assert "VIOLATION round 1: flow-error-bound" in output
        assert "clean" not in output


class TestStoreAndReportCommands:
    def _populate(self, store_path):
        exit_code = main(["sweep", "--algorithm", "algorithm2",
                          "--topology", "torus", "--nodes", "16",
                          "--tokens-per-node", "8", "--seeds", "1", "2",
                          "--store", str(store_path),
                          "--store-label", "test-sweep"])
        assert exit_code == 0
        return store_path

    def test_sweep_store_writes_per_seed_records(self, tmp_path, capsys):
        from repro.store import RunStore

        store_path = self._populate(tmp_path / "runs.jsonl")
        assert "stored 2 record(s)" in capsys.readouterr().out
        records = RunStore(store_path).records()
        assert [record.label for record in records] == ["test-sweep"] * 2
        assert all(record.kind == "sweep" for record in records)
        assert all(record.trace() for record in records)
        assert all(record.timing["seconds"] > 0 for record in records)

    def test_dynamic_store_records_run(self, tmp_path, capsys):
        from repro.store import RunStore

        store_path = tmp_path / "runs.jsonl"
        exit_code = main(["dynamic", "--nodes", "16", "--rounds", "20",
                          "--store", str(store_path),
                          "--store-label", "test-dyn"])
        assert exit_code == 0
        record = RunStore(store_path).records()[0]
        assert record.kind == "dynamic"
        assert record.label == "test-dyn"
        assert record.timing["seconds"] > 0

    def test_report_lists_records(self, tmp_path, capsys):
        store_path = self._populate(tmp_path / "runs.jsonl")
        capsys.readouterr()
        exit_code = main(["report", "--store", str(store_path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "2 record(s)" in output
        assert "test-sweep" in output
        assert "max-min discrepancy per round" in output

    def test_report_diff(self, tmp_path, capsys):
        store_path = self._populate(tmp_path / "runs.jsonl")
        capsys.readouterr()
        exit_code = main(["report", "--store", str(store_path),
                          "--diff", "#0", "#1", "--no-chart"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "final_max_min" in output and "delta" in output

    def test_report_reads_records_of_the_retired_sequential_mode(self, tmp_path, capsys):
        """Stores written before the counter RNG became the only mode still report."""
        import json

        from repro.store.runstore import config_hash

        old = tmp_path / "old.jsonl"
        lines = []
        for line in self._populate(tmp_path / "runs.jsonl").read_text().splitlines():
            record = json.loads(line)
            record["config"]["rng_mode"] = "sequential"
            record["config_hash"] = config_hash(record["config"])
            lines.append(json.dumps(record))
        old.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["report", "--store", str(old), "--diff", "#0", "#1",
                     "--no-chart"]) == 0
        assert "final_max_min" in capsys.readouterr().out
        assert main(["report", "--store", str(old)]) == 0
        assert "2 record(s)" in capsys.readouterr().out

    def test_report_missing_store_exits_2(self, tmp_path, capsys):
        exit_code = main(["report", "--store", str(tmp_path / "nope.jsonl")])
        assert exit_code == 2
        assert "no such run store" in capsys.readouterr().err

    def test_check_regression_passes_on_rerun(self, tmp_path, capsys):
        baseline = self._populate(tmp_path / "baseline.jsonl")
        candidate = self._populate(tmp_path / "candidate.jsonl")
        capsys.readouterr()
        exit_code = main(["report", "--store", str(candidate),
                          "--check-regression",
                          "--baseline-store", str(baseline)])
        assert exit_code == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_regression_trips_on_trace_drift(self, tmp_path, capsys):
        import json

        baseline = self._populate(tmp_path / "baseline.jsonl")
        drifted = tmp_path / "drifted.jsonl"
        records = [json.loads(line) for line in baseline.read_text().splitlines()]
        for record in records:
            record["result"]["trace_max_min"][-1] += 1.0
        drifted.write_text("".join(json.dumps(record) + "\n"
                                   for record in records))
        capsys.readouterr()
        exit_code = main(["report", "--store", str(drifted),
                          "--check-regression", "--baseline-store", str(baseline)])
        assert exit_code == 1
        assert "trace-drift" in capsys.readouterr().out

    def test_check_regression_trips_on_injected_slowdown(self, tmp_path, capsys):
        import json

        baseline = self._populate(tmp_path / "baseline.jsonl")
        slow = tmp_path / "slow.jsonl"
        records = [json.loads(line) for line in baseline.read_text().splitlines()]
        for record in records:
            record["timing"] = {"seconds": 999.0}
        slow.write_text("".join(json.dumps(record) + "\n" for record in records))
        capsys.readouterr()
        exit_code = main(["report", "--store", str(slow),
                          "--check-regression", "--baseline-store", str(baseline),
                          "--max-timing-ratio", "3"])
        assert exit_code == 1
        assert "timing" in capsys.readouterr().out

    def test_check_regression_requires_baseline(self, tmp_path, capsys):
        store_path = self._populate(tmp_path / "runs.jsonl")
        with pytest.raises(SystemExit):
            main(["report", "--store", str(store_path), "--check-regression"])
        assert "requires --baseline-store" in capsys.readouterr().err

    def test_sweep_telemetry_streams_to_stderr(self, capsys):
        exit_code = main(["sweep", "--algorithm", "algorithm2",
                          "--topology", "torus", "--nodes", "16",
                          "--tokens-per-node", "8", "--seeds", "1",
                          "--telemetry", "5"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "[engine] run_start" in captured.err
        assert "[engine] run_end" in captured.err
        assert "[engine]" not in captured.out  # telemetry stays off stdout

    def test_ci_baseline_store_matches_fresh_runs(self, tmp_path, capsys):
        """The checked-in CI baseline must stay reproducible bit-for-bit.

        The commands are read from the CI workflow's "Record
        regression-candidate run store" step, so this test re-runs exactly
        what CI gates on; a changed config hash is a coverage violation.
        """
        import pathlib
        import shlex

        from repro.store import RunStore, check_store_regression

        root = pathlib.Path(__file__).resolve().parent.parent
        baseline = root / "ci" / "baseline_store.jsonl"
        workflow = (root / ".github" / "workflows" / "ci.yml").read_text()
        step = workflow.split("- name: Record regression-candidate run store")[1]
        step = step.split("- name:")[0].replace("\\\n", " ")
        store_path = tmp_path / "fresh.jsonl"
        commands = [shlex.split(line.split("python -m repro.cli", 1)[1])
                    for line in step.splitlines() if "python -m repro.cli" in line]
        assert [argv[0] for argv in commands] == ["sweep", "sweep", "dynamic", "sweep",
                                                  "sweep", "sweep", "sweep"]
        for argv in commands:
            argv[argv.index("--store") + 1] = str(store_path)
            assert main(argv) == 0
        capsys.readouterr()
        baseline_records = RunStore(baseline).records()
        fresh = RunStore(store_path).records()
        assert sorted(record.config_hash for record in fresh) == \
            sorted(record.config_hash for record in baseline_records)
        # the stored backend_reason must be what the code records today
        reasons = {record.config_hash: record.result["extra"]["backend_reason"]
                   for record in fresh}
        for record in baseline_records:
            assert record.result["extra"]["backend_reason"] == \
                reasons[record.config_hash], record.label
        outcome = check_store_regression(baseline_records, fresh,
                                         max_metric_drift=0.0, max_trace_drift=0.0)
        assert outcome.ok, outcome.summary()
        exit_code = main(["report", "--store", str(store_path),
                          "--check-regression", "--baseline-store",
                          str(baseline)])
        assert exit_code == 0, capsys.readouterr().out

    def test_sweep_store_and_telemetry_together(self, tmp_path, capsys):
        """--store routes through the outcome driver; the bus must ride along."""
        from repro.store import RunStore

        store_path = tmp_path / "runs.jsonl"
        exit_code = main(["sweep", "--algorithm", "algorithm2",
                          "--topology", "torus", "--nodes", "16",
                          "--tokens-per-node", "8", "--seeds", "1",
                          "--store", str(store_path),
                          "--telemetry", "10"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "[parallel] cell_done" in captured.err
        assert len(RunStore(store_path).records()) == 1



class TestFaultToleranceCLI:
    def test_fault_tolerance_flags_parse_with_defaults(self):
        for argv in (["sweep", "--algorithm", "algorithm2"],
                     ["grid", "--algorithms", "algorithm2"],
                     ["dynamic"]):
            args = build_parser().parse_args(argv)
            assert args.cell_timeout is None
            assert args.max_retries == 0
            assert args.strict is True
        args = build_parser().parse_args(
            ["dynamic", "--cell-timeout", "2.5", "--max-retries", "3",
             "--no-strict"])
        assert args.cell_timeout == 2.5
        assert args.max_retries == 3
        assert args.strict is False

    @pytest.mark.parametrize("argv", [
        ["sweep", "--algorithm", "round-down", "--nodes", "8", "--seeds", "1", "2"],
        ["grid", "--algorithms", "round-down", "--topologies", "cycle:8",
         "--seeds", "1", "2"],
        ["dynamic", "--nodes", "8", "--rounds", "4", "--seeds", "1", "2"],
    ])
    def test_grid_where_every_cell_fails_exits_1(self, argv, capsys, monkeypatch):
        import repro.simulation.parallel as parallel

        def broken(*args, **kwargs):
            raise RuntimeError("cell exploded")

        monkeypatch.setattr(parallel, "_execute_cell", broken)
        assert main(argv + ["--workers", "1", "--no-strict"]) == 1
        err = capsys.readouterr().err
        assert err.count("failed permanently") == 2
        assert "RuntimeError: cell exploded" in err
        assert "error: every cell failed" in err

    def test_grid_partial_failure_reports_and_keeps_survivors(
            self, capsys, monkeypatch):
        import repro.simulation.parallel as parallel

        execute = parallel._execute_cell

        def flaky(cell, *args, **kwargs):
            if cell.seed == 2:
                raise RuntimeError("cell exploded")
            return execute(cell, *args, **kwargs)

        monkeypatch.setattr(parallel, "_execute_cell", flaky)
        assert main(["grid", "--algorithms", "round-down", "--topologies",
                     "cycle:8", "--seeds", "1", "2", "--workers", "1",
                     "--no-strict"]) == 0
        captured = capsys.readouterr()
        assert "WARNING: cell 1" in captured.err
        assert "round-down" in captured.out

    def test_checkpoint_every_rejected_on_seed_grids(self):
        with pytest.raises(SystemExit):
            main(["dynamic", "--seeds", "1", "2", "--checkpoint-every", "5"])

    def test_dynamic_checkpoint_then_resume_round_trip(self, tmp_path, capsys):
        checkpoint = tmp_path / "run.checkpoint.json"
        exit_code = main(["dynamic", "--nodes", "12", "--rounds", "20",
                          "--seed", "7",
                          "--checkpoint-every", "5",
                          "--checkpoint-path", str(checkpoint)])
        assert exit_code == 0
        first = capsys.readouterr().out
        assert "checkpointed every 5 round(s)" in first
        assert checkpoint.exists()

        exit_code = main(["resume", "--checkpoint", str(checkpoint)])
        assert exit_code == 0
        resumed = capsys.readouterr().out
        assert "resuming" in resumed
        assert "round 20 of 20" in resumed
        # the summary row of the completed run is reproduced exactly:
        # dynamic prints [scenario, seed, algorithm, ...], resume prints
        # [scenario, algorithm, ...] — the metric tail must match
        original_row = [line.split()[2:] for line in first.splitlines()
                        if line.startswith("burst ")]
        resumed_row = [line.split()[1:] for line in resumed.splitlines()
                       if line.startswith("cli-burst ")]
        assert original_row and original_row == resumed_row

    def test_resume_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        from repro.faults import truncate_checkpoint

        checkpoint = tmp_path / "run.checkpoint.json"
        assert main(["dynamic", "--nodes", "8", "--rounds", "8",
                     "--checkpoint-every", "4",
                     "--checkpoint-path", str(checkpoint)]) == 0
        truncate_checkpoint(checkpoint, keep_fraction=0.4)
        capsys.readouterr()
        assert main(["resume", "--checkpoint", str(checkpoint)]) == 2
        assert "corrupt or truncated" in capsys.readouterr().err

    def test_resume_missing_checkpoint_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["resume", "--checkpoint", str(missing)]) == 2
        assert "no such checkpoint" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130_with_partial_paths(
            self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli_module

        def boom(args, parser):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "_run_command", boom)
        checkpoint = tmp_path / "partial.checkpoint.json"
        exit_code = main(["dynamic", "--checkpoint-every", "5",
                          "--checkpoint-path", str(checkpoint)])
        assert exit_code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert f"partial results: {checkpoint}" in err
        assert "resume with:" in err
