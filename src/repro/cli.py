"""Command line interface: run a single comparison or a named experiment.

Examples
--------
Compare algorithms on a hypercube::

    repro-loadbalance compare --topology hypercube --nodes 64 \
        --algorithms round-down algorithm1 algorithm2

Evaluate the paper's Table 1 claims::

    repro-loadbalance claims --only table1

The CLI is intentionally thin: it parses arguments, calls the experiment
harness and prints plain-text tables.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .exceptions import ReproError
from .network import topologies
from .simulation.claims import (REGISTRY, evaluate_claims, failed_claims, format_claims,
                                record_json)
from .simulation.engine import (ALL_ALGORITHMS, BACKEND_KINDS, CONTINUOUS_KINDS,
                                compare_algorithms, default_algorithms, run_algorithm)
from .simulation.workloads import WORKLOADS
from .simulation.experiments import format_table
from .tasks.generators import point_load

__all__ = ["build_parser", "main"]


def _spec_flags() -> argparse.ArgumentParser:
    """The parent parser of the experiment flags of ``compare``, ``dynamic``,
    ``sweep`` and ``grid``.

    Built fresh per subcommand, like :func:`_grid_flags`, so a command's
    ``set_defaults`` keeps its own default without leaking into the others.
    """
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--nodes", type=int, default=64,
                       help="approximate number of nodes (grid: the size of bare "
                            "--topologies entries)")
    flags.add_argument("--tokens-per-node", type=int, default=32,
                       help="workload density: total tokens divided by n")
    flags.add_argument("--continuous", default="fos", choices=list(CONTINUOUS_KINDS),
                       help="continuous substrate (re-coupled after each event "
                            "of a dynamic stream)")
    flags.add_argument("--backend", default="auto", choices=list(BACKEND_KINDS),
                       help="load-state backend (array = vectorized fast path)")
    return flags


def _grid_flags() -> argparse.ArgumentParser:
    """The parent parser of the flags every grid command shares (``run_cells``).

    Built fresh per subcommand: argparse shares a parent's actions with its
    children, so one subcommand's ``set_defaults`` would leak into the others.
    """
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--workers", type=int, default=None,
                       help="process-pool size; the grid is sharded at (cell, "
                            "seed) granularity and 1 runs it in this process "
                            "(default: %(default)s; None = one per core)")
    flags.add_argument("--telemetry", nargs="?", const=1, type=int,
                       default=None, metavar="N",
                       help="stream per-round telemetry to stderr (every Nth "
                            "round; worker events are relayed to the driver)")
    flags.add_argument("--trace", metavar="OUT.json",
                       help="record a Chrome trace-event profile of the "
                            "run(s) — one pid per pool worker, one tid per "
                            "cell (open in chrome://tracing / Perfetto)")
    flags.add_argument("--progress", action="store_true",
                       help="render a live cells-done/ETA line on stderr")
    flags.add_argument("--cell-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="kill and retry any grid cell running longer "
                            "than this (pooled runs only)")
    flags.add_argument("--max-retries", type=int, default=0, metavar="N",
                       help="retry a failed/timed-out/crashed cell up to N "
                            "times with exponential backoff")
    flags.add_argument("--no-strict", dest="strict", action="store_false",
                       help="degrade gracefully: report permanently failed "
                            "cells and keep the surviving results instead "
                            "of aborting the whole grid")
    return flags


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro-loadbalance`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-loadbalance",
        description="Discrete load balancing via continuous-flow imitation (PODC 2012 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compare = subparsers.add_parser("compare", parents=[_spec_flags()],
                                    help="compare algorithms on one instance "
                                         "(all tokens start on node 0)")
    compare.add_argument("--topology", default="torus",
                         help="topology family name (see repro.network.topologies.named_topology)")
    compare.add_argument("--algorithms", nargs="+", choices=list(ALL_ALGORITHMS),
                         help="algorithms to run (default: the substrate's round-down "
                              "baseline, algorithm1 and algorithm2)")
    compare.add_argument("--seed", type=int, default=7)

    claims = subparsers.add_parser(
        "claims", help="evaluate the paper's claims on fixed instances "
                       "(exit 1 when one fails)")
    claims.add_argument("--only", nargs="+", choices=list(REGISTRY), metavar="ID",
                        help=f"evaluate only these entries: {', '.join(REGISTRY)}")
    claims.add_argument("--json", action="store_true",
                        help="print the JSON record checked in as CLAIMS.json")

    scenario = subparsers.add_parser("scenario", help="run a scenario described by a JSON file")
    scenario.add_argument("--file", required=True, help="path to the scenario JSON file")
    scenario.add_argument("--csv", help="optional path to append the result row as CSV")

    dynamic = subparsers.add_parser(
        "dynamic", parents=[_spec_flags(), _grid_flags()],
        help="run a balancer under a streaming (time-varying) workload that "
             "starts uniform random")
    dynamic.set_defaults(tokens_per_node=8)
    dynamic.add_argument("--scenario", default="burst",
                         help="event profile name (see repro.dynamic.EVENT_PROFILES)")
    dynamic.add_argument("--algorithm", default="algorithm2", choices=list(ALL_ALGORITHMS))
    dynamic.add_argument("--topology", default="torus")
    dynamic.add_argument("--rounds", type=int, default=240, help="stream horizon")
    dynamic.add_argument("--max-task-weight", type=int, default=1,
                         help="start from weighted tasks with integer weights in "
                              "[1, W] (algorithm1 only; events stream unit tokens)")
    dynamic.add_argument("--seed", type=int, default=7)
    dynamic.add_argument("--seeds", nargs="+", type=int, default=None,
                         help="run a grid of seeds instead of the single --seed "
                              "(the grid flags apply to such grids)")
    dynamic.add_argument("--warmup", type=int, default=0,
                         help="trace entries to exclude from time_in_band "
                              "(the initial transient)")
    dynamic.add_argument("--csv", help="optional path to write the summary row as CSV")
    dynamic.add_argument("--store", help="append each run to this JSONL run "
                                         "store (see the 'report' command)")
    dynamic.add_argument("--store-label", default="dynamic",
                         help="label the stored records carry")
    dynamic.add_argument("--checkpoint-every", type=int, default=None,
                         metavar="N",
                         help="snapshot the stream every N rounds so a killed "
                              "run resumes bit-identically with 'resume' "
                              "(single runs, not --seeds grids)")
    dynamic.add_argument("--checkpoint-path", metavar="OUT.json",
                         help="where --checkpoint-every writes its snapshot "
                              "(default: <scenario>.checkpoint.json)")

    resume = subparsers.add_parser(
        "resume", help="resume an interrupted dynamic run from its checkpoint")
    resume.add_argument("--checkpoint", required=True, metavar="CKPT.json",
                        help="checkpoint file written by 'dynamic "
                             "--checkpoint-every' (the scenario travels "
                             "inside it)")
    resume.add_argument("--rounds", type=int, default=None,
                        help="override the stored horizon (default: finish "
                             "the original run)")
    resume.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N",
                        help="keep checkpointing every N rounds while "
                             "resuming (onto the same file)")
    resume.add_argument("--warmup", type=int, default=0,
                        help="trace entries to exclude from time_in_band")
    resume.add_argument("--telemetry", nargs="?", const=1, type=int,
                        default=None, metavar="N",
                        help="stream per-round telemetry to stderr "
                             "(every Nth round)")
    resume.add_argument("--csv", help="optional path to write the summary row as CSV")

    sweep = subparsers.add_parser("sweep", parents=[_spec_flags(), _grid_flags()],
                                  help="run one configuration over several seeds")
    sweep.set_defaults(workers=1)
    sweep.add_argument("--algorithm", required=True, choices=list(ALL_ALGORITHMS))
    sweep.add_argument("--topology", default="torus")
    sweep.add_argument("--store", help="append each (seed, run) record — with "
                                       "trajectory and timing envelope — to "
                                       "this JSONL run store")
    sweep.add_argument("--store-label", default="sweep",
                       help="label the stored records carry")

    grid = subparsers.add_parser(
        "grid", parents=[_spec_flags(), _grid_flags()],
        help="sharded sweep grid: algorithms x topologies x seeds")
    grid.add_argument("--algorithms", nargs="+", required=True,
                      choices=list(ALL_ALGORITHMS))
    grid.add_argument("--topologies", nargs="+", default=["torus:64"],
                      help="grid cells as 'family' or 'family:size' "
                           "(e.g. torus:64 cycle:16); bare names use --nodes")
    for command in (sweep, grid):
        command.add_argument("--workload", default="point", choices=sorted(WORKLOADS))
        command.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])

    audit = subparsers.add_parser(
        "audit", help="run a flow-imitation algorithm and check the paper's invariants each round")
    audit.add_argument("--algorithm", default="algorithm1", choices=["algorithm1", "algorithm2"])
    audit.add_argument("--topology", default="torus")
    audit.add_argument("--nodes", type=int, default=64)
    audit.add_argument("--tokens-per-node", type=int, default=32)
    audit.add_argument("--seed", type=int, default=7)

    report = subparsers.add_parser(
        "report", help="compare stored runs and gate on regressions "
                       "(see repro.store)")
    report.add_argument("--store", required=True,
                        help="JSONL run store to read (written by 'sweep "
                             "--store' or 'dynamic --store')")
    report.add_argument("--diff", nargs=2, metavar=("BASE", "CAND"),
                        help="diff two records: each selector is 'latest', "
                             "'#index', a label (latest match wins) or a "
                             "config-hash prefix")
    report.add_argument("--no-chart", action="store_true",
                        help="skip the trajectory sparkline chart")
    report.add_argument("--check-regression", action="store_true",
                        help="gate this store against --baseline-store; "
                             "exit 1 on drift")
    report.add_argument("--baseline-store",
                        help="baseline JSONL store for --check-regression")
    report.add_argument("--max-metric-drift", type=float, default=0.0,
                        help="allowed worsening of final discrepancies "
                             "(default 0: bit-exact under counter RNG)")
    report.add_argument("--max-trace-drift", type=float, default=0.0,
                        help="allowed pointwise trajectory deviation "
                             "(default 0: bit-exact under counter RNG)")
    report.add_argument("--max-timing-ratio", type=float, default=None,
                        help="fail when a run exceeds this multiple of the "
                             "baseline wall-clock (timing checks are off "
                             "unless set)")

    trace = subparsers.add_parser(
        "trace", help="profile stored runs: hot-kernel table and Chrome "
                      "trace conversion")
    trace.add_argument("--store", required=True,
                       help="JSONL run store to read (runs recorded by "
                            "'sweep --store' carry kernel-phase summaries "
                            "when traced)")
    trace.add_argument("--out", metavar="OUT.json",
                       help="write the records as Chrome trace-event JSON "
                            "(open in chrome://tracing / Perfetto)")
    trace.add_argument("--top", type=int, default=10,
                       help="rows in the hot-kernel table (default 10)")

    check = subparsers.add_parser(
        "check", help="static determinism-and-invariants analysis "
                      "(see repro.staticcheck)")
    check.add_argument("paths", nargs="*", default=["src"], metavar="PATH",
                       help="files or directories to analyse (default: src)")
    check.add_argument("--format", dest="output_format", default="text",
                       choices=["text", "json"],
                       help="report format (json is version-tagged)")
    check.add_argument("--rules", default=None, metavar="IDS",
                       help="comma-separated rule ids to run "
                            "(e.g. R001,R003; default: all)")
    check.add_argument("--list-rules", action="store_true",
                       help="print the rule registry and exit")
    check.add_argument("--show-suppressed", action="store_true",
                       help="also print findings disarmed by "
                            "'# repro: allow[...]' comments")
    return parser


def _instrument(telemetry: Optional[int], trace: Optional[str],
                progress: bool, total_cells: int, label: str):
    """Wire the shared observability flags into ``(bus, tracer, renderer)``.

    ``--telemetry N`` attaches a stderr console subscriber, ``--trace OUT``
    attaches a :class:`~repro.obs.trace.Tracer`, and ``--progress`` builds a
    live :class:`~repro.obs.progress.GridProgress` status line.  Any of the
    three may be ``None`` when the corresponding flag is absent.
    """
    bus = tracer = renderer = None
    if telemetry is not None or trace:
        from .obs import ConsoleSubscriber, MetricsBus, Tracer

        bus = MetricsBus()
        if telemetry is not None:
            bus.subscribe(ConsoleSubscriber(every=telemetry, stream=sys.stderr))
        if trace:
            tracer = Tracer(label=label).attach(bus)
    if progress and total_cells:
        from .obs import GridProgress

        renderer = GridProgress(total_cells, label=label)
    return bus, tracer, renderer


def _run_grid(args, cells, label: str):
    """Run a CLI grid through ``run_cells`` with the shared grid flags.

    Prints the failure report of a ``--no-strict`` grid and returns the
    outcomes, or ``None`` after ``error: every cell failed`` when no cell
    survived.
    """
    from .simulation.parallel import failed_cells, run_cells

    bus, tracer, renderer = _instrument(args.telemetry, args.trace,
                                        args.progress, len(cells), label)
    outcomes = run_cells(cells, workers=args.workers, bus=bus,
                         progress=renderer, cell_timeout=args.cell_timeout,
                         max_retries=args.max_retries, strict=args.strict)
    _finish_instrumentation(args.trace, tracer, renderer)
    for failure in failed_cells(outcomes):
        print(f"WARNING: cell {failure.position} ({failure.label}) failed "
              f"permanently after {failure.attempts} attempt(s): "
              f"[{failure.kind}] {failure.error}", file=sys.stderr)
    if all(outcome.result is None for outcome in outcomes):
        print("error: every cell failed", file=sys.stderr)
        return None
    return outcomes


def _print_stream_summary(runs, warmup: int, csv: Optional[str]) -> None:
    """Print the summary table and burst recoveries of finished streams.

    ``runs`` pairs each stream's :class:`RunResult` with the leading columns
    of its row: the scenario name, and for ``dynamic`` the seed, which then
    also prefixes its recovery lines.  ``warmup`` trace entries are left out
    of ``time_in_band``; ``csv`` optionally receives the rows.
    """
    from .core.algorithm1 import theorem3_discrepancy_bound
    from .dynamic.metrics import recovery_report, summarize_dynamic
    from .simulation.reporting import rows_to_csv

    rows = []
    for head, result in runs:
        band = theorem3_discrepancy_bound(result.max_degree, result.max_task_weight)
        rows.append({**head, **result.as_dict(),
                     **summarize_dynamic(result, band, start=warmup)})
    print(format_table(rows, columns=[*runs[0][0], "algorithm", "n", "rounds",
                                      "events", "arrivals", "departures",
                                      "recouplings", "steady_state", "band",
                                      "time_in_band", "max_min"]))
    for (head, result), row in zip(runs, rows):
        where = f"seed {head['seed']}, " if "seed" in head else ""
        for burst in recovery_report(result, row["band"]):
            recovered = burst["recovery_time"]
            recovery = (f"recovered in {recovered} rounds"
                        if recovered is not None else "did NOT recover")
            print(f"  {where}burst at round {burst['round']}: peak discrepancy "
                  f"{burst['peak']:.1f}, {recovery} (band {row['band']:.1f})")
    if csv:
        rows_to_csv(rows, csv)
        print(f"wrote {csv}")


def _finish_instrumentation(trace_path: Optional[str], tracer, renderer) -> None:
    """Close the progress line, then write the Chrome trace + hot kernels."""
    if renderer is not None:
        renderer.finish()
    if tracer is None:
        return
    tracer.detach()
    path = tracer.write(trace_path)
    rows = tracer.hot_kernels()
    if rows:
        print("hot kernels:")
        print(format_table(rows))
    summary = tracer.summary()
    print(f"wrote Chrome trace ({summary['spans']} spans, "
          f"{summary['rounds']} rounds) to {path} — open in chrome://tracing "
          f"or https://ui.perfetto.dev")


#: Commands that read a user-written scenario, checkpoint or run store, or
#: build one instance from flags: a :class:`~repro.exceptions.ReproError` from
#: them prints ``error: ...`` and exits 2 instead of a traceback.
_INPUT_COMMANDS = ("compare", "scenario", "dynamic", "resume", "report", "trace")

#: ``args`` attributes that point at on-disk artifacts a run may have
#: partially written — surfaced on ^C so the user knows what survived.
_ARTIFACT_ARGS = ("store", "csv", "trace", "checkpoint_path", "checkpoint",
                  "out")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-loadbalance`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_command(args, parser)
    except ReproError as exc:
        # a bad scenario, checkpoint or store is the user's input, not a bug
        if args.command not in _INPUT_COMMANDS:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The grid driver has already cancelled its futures and torn the
        # pool down on the way out; store appends are fsync'd per record
        # and checkpoints are written atomically, so whatever reached disk
        # before the ^C is complete and usable.
        print("\ninterrupted", file=sys.stderr)
        partial = [getattr(args, attr, None) for attr in _ARTIFACT_ARGS]
        for path in filter(None, partial):
            print(f"partial results: {path}", file=sys.stderr)
        if getattr(args, "checkpoint_path", None) or \
                getattr(args, "checkpoint", None):
            print("resume with: repro-loadbalance resume --checkpoint "
                  f"{getattr(args, 'checkpoint_path', None) or args.checkpoint}",
                  file=sys.stderr)
        return 130


def _run_command(args, parser: argparse.ArgumentParser) -> int:
    """Dispatch one parsed command (the body of :func:`main`)."""
    if args.command == "compare":
        algorithms = args.algorithms or default_algorithms(args.continuous)
        network = topologies.named_topology(args.topology, args.nodes, seed=args.seed)
        load = point_load(network, args.tokens_per_node * network.num_nodes)
        results = compare_algorithms(network, load, algorithms,
                                     continuous_kind=args.continuous, seed=args.seed,
                                     backend=args.backend)
        rows = [result.as_dict() for result in results]
        print(format_table(rows, columns=["algorithm", "network", "n", "max_degree",
                                          "rounds", "max_min", "max_avg",
                                          "dummy_tokens", "went_negative",
                                          "backend"]))
    elif args.command == "claims":
        record = evaluate_claims(args.only)
        print(record_json(record) if args.json else format_claims(record))
        return 1 if failed_claims(record) else 0
    elif args.command == "scenario":
        from .simulation.reporting import rows_to_csv
        from .simulation.scenario import load_scenario, run_scenario

        scenario = load_scenario(args.file)
        result = run_scenario(scenario)
        row = {"scenario": scenario.name, **result.as_dict()}
        print(format_table([row], columns=["scenario", "algorithm", "network", "n",
                                           "rounds", "max_min", "max_avg",
                                           "dummy_tokens", "went_negative"]))
        if args.csv:
            rows_to_csv([row], args.csv)
            print(f"wrote {args.csv}")
    elif args.command == "dynamic":
        from .simulation.parallel import GridCell
        from .simulation.scenario import Scenario, expand_seeds, run_scenario

        scenario = Scenario(
            name=f"cli-{args.scenario}", algorithm=args.algorithm,
            topology=args.topology, num_nodes=args.nodes,
            tokens_per_node=args.tokens_per_node, workload="uniform",
            continuous_kind=args.continuous, events=args.scenario,
            rounds=args.rounds, seed=args.seed, backend=args.backend,
            max_task_weight=args.max_task_weight,
        )
        if args.checkpoint_every is not None and args.seeds:
            parser.error("--checkpoint-every applies to single runs; for "
                         "--seeds grids use --max-retries/--no-strict instead")
        if args.seeds:
            cells = [GridCell(kind="dynamic", spec=replica, index=index)
                     for index, replica in enumerate(expand_seeds(scenario, args.seeds))]
            outcomes = _run_grid(args, cells, "dynamic")
            if outcomes is None:
                return 1
            # --no-strict grids keep going without the failed cells
            runs = [(outcome.cell.spec, outcome.result, None)
                    for outcome in outcomes if outcome.result is not None]
        else:
            import time

            if args.checkpoint_every is not None and not args.checkpoint_path:
                args.checkpoint_path = f"{scenario.name}.checkpoint.json"
            bus, tracer, renderer = _instrument(
                args.telemetry, args.trace, False, 0, label="dynamic")
            start = time.perf_counter()  # repro: allow[R002] run timing envelope
            result = run_scenario(
                scenario, bus=bus, checkpoint_every=args.checkpoint_every,
                checkpoint_path=args.checkpoint_path)
            # repro: allow[R002] run timing envelope (stored, never in logic)
            runs = [(scenario, result, time.perf_counter() - start)]
            _finish_instrumentation(args.trace, tracer, renderer)
            if args.checkpoint_every is not None:
                print(f"checkpointed every {args.checkpoint_every} round(s) "
                      f"to {args.checkpoint_path}")
        scenarios, results, timings = map(list, zip(*runs))
        first = results[0]
        print(f"dynamic '{args.scenario}' stream: {args.algorithm} on "
              f"{first.network_name} ({first.num_nodes} nodes after "
              f"{first.rounds} rounds, continuous={args.continuous}, "
              f"backend={args.backend}, {len(results)} seed(s))")
        _print_stream_summary([({"scenario": args.scenario, "seed": cell.seed}, result)
                               for cell, result in zip(scenarios, results)],
                              args.warmup, args.csv)
        if args.store:
            from .store import RunStore, record_run

            store = RunStore(args.store)
            for cell, result, seconds in zip(scenarios, results, timings):
                record_run(store, args.store_label, "dynamic",
                           {**cell.to_dict(), "kind": "dynamic"},
                           seeds=[cell.seed], result=result,
                           timing=None if seconds is None
                           else {"seconds": seconds})
            print(f"stored {len(results)} record(s) in {store.path}")
    elif args.command == "resume":
        from .checkpoint import read_checkpoint, resume_stream

        checkpoint = read_checkpoint(args.checkpoint)
        horizon = args.rounds if args.rounds is not None \
            else checkpoint.total_rounds
        meta = checkpoint.meta or {}
        name = (meta.get("scenario") or {}).get("name", "resume")
        print(f"resuming '{name}' from {args.checkpoint}: round "
              f"{checkpoint.round_index} of {horizon} "
              f"({checkpoint.config['algorithm']}, config "
              f"{checkpoint.config_hash[:10]})")
        bus, tracer, renderer = _instrument(
            args.telemetry, None, False, 0, label="resume")
        result = resume_stream(checkpoint, rounds=args.rounds, bus=bus,
                               checkpoint_every=args.checkpoint_every,
                               checkpoint_path=args.checkpoint)
        _print_stream_summary([({"scenario": name}, result)], args.warmup, args.csv)
    elif args.command in ("sweep", "grid"):
        from .simulation.parallel import merge_sweeps, sweep_cells
        from .simulation.sweep import SweepConfiguration

        if args.command == "sweep":
            algorithms, pairs = [args.algorithm], [(args.topology, args.nodes)]
        else:
            algorithms, pairs = args.algorithms, []
            for entry in args.topologies:
                family, _, size = entry.partition(":")
                try:
                    pairs.append((family, int(size) if size else args.nodes))
                except ValueError:
                    parser.error(f"invalid --topologies entry {entry!r}: expected "
                                 f"'family' or 'family:size' with an integer size")
        configurations = [
            SweepConfiguration(
                algorithm=algorithm, topology=topology, num_nodes=size,
                tokens_per_node=args.tokens_per_node, workload=args.workload,
                continuous_kind=args.continuous, backend=args.backend,
            )
            for topology, size in pairs
            for algorithm in algorithms
        ]
        store_path = getattr(args, "store", None)
        # stored runs record their traces so they diff as trajectories
        cells = sweep_cells(configurations, args.seeds, record_trace=bool(store_path))
        try:
            for cell in cells:
                cell.scenario()  # a bad spec is an input error: no cell runs
        except ReproError as exc:
            print(f"error: {cell.spec.label()}: {exc}", file=sys.stderr)
            return 2
        outcomes = _run_grid(args, cells, args.command)
        if outcomes is None:
            return 1
        print(format_table([result.as_row()
                            for result in merge_sweeps(configurations, outcomes)
                            if result.runs]))
        if store_path:
            from .store import RunStore, record_sweep_outcomes

            # the outcome envelopes carry per-run timing and worker pids
            store = RunStore(store_path)
            record_sweep_outcomes(store, args.store_label, outcomes)
            print(f"stored {len(outcomes)} record(s) in {store.path}")
    elif args.command == "audit":
        from .core.diagnostics import AuditReport, InvariantViolation

        network = topologies.named_topology(args.topology, args.nodes, seed=args.seed)
        loads = point_load(network, args.tokens_per_node * network.num_nodes)
        result = run_algorithm(args.algorithm, network, initial_load=loads,
                               seed=args.seed, backend="object", audit=True)
        audit = result.extra["audit"]
        report = AuditReport(
            audit["rounds_checked"],
            [InvariantViolation(**violation) for violation in audit["violations"]],
            audit["max_flow_error"], audit["max_load_deviation"], audit["dummy_tokens"])
        print(f"{args.algorithm} on {network.name} (n={network.num_nodes}, "
              f"d={network.max_degree}):")
        print(report.summary())
        print(f"final max-min discrepancy: {result.final_max_min:.1f} "
              f"(Theorem 3 bound {2 * network.max_degree * result.max_task_weight + 2:.0f})")
        for violation in report.violations:
            print(f"  VIOLATION round {violation.round_index}: "
                  f"{violation.invariant} — {violation.detail}")
        if report.violations:
            return 1
    elif args.command == "report":
        from .store import (
            RunStore,
            check_store_regression,
            comparison_rows,
            diff_rows,
            render_comparison,
        )

        store = RunStore(args.store)
        records = store.records()
        if args.check_regression:
            if not args.baseline_store:
                parser.error("--check-regression requires --baseline-store")
            baseline = RunStore(args.baseline_store).records()
            outcome = check_store_regression(
                baseline, records,
                max_metric_drift=args.max_metric_drift,
                max_trace_drift=args.max_trace_drift,
                max_timing_ratio=args.max_timing_ratio)
            print(outcome.summary())
            if outcome.violations:
                print(format_table([violation.as_row()
                                    for violation in outcome.violations]))
            return 0 if outcome.ok else 1
        if args.diff:
            base = store.select(args.diff[0], records)
            cand = store.select(args.diff[1], records)
            print(f"baseline:  {base.label} ({base.config_hash[:10]}, "
                  f"{base.created})")
            print(f"candidate: {cand.label} ({cand.config_hash[:10]}, "
                  f"{cand.created})")
            print(format_table(diff_rows(base, cand)))
            if not args.no_chart:
                print(render_comparison([base, cand]))
        else:
            print(f"{len(records)} record(s) in {store.path}")
            print(format_table(comparison_rows(records)))
            if not args.no_chart:
                print(render_comparison(records))
    elif args.command == "trace":
        import json
        import pathlib

        from .obs.trace import chrome_from_records, hot_kernel_rows
        from .store import RunStore

        store = RunStore(args.store)
        records = store.records()
        print(f"{len(records)} record(s) in {store.path}")
        rows = hot_kernel_rows(records, top=args.top)
        if rows:
            print("hot kernels:")
            print(format_table(rows))
        else:
            print("no kernel-phase summaries in this store (record runs "
                  "with 'sweep --store ... --trace ...' to collect them)")
        if args.out:
            trace = chrome_from_records(records)
            out = pathlib.Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(trace) + "\n")
            print(f"wrote Chrome trace ({len(trace['traceEvents'])} events) "
                  f"to {out} — open in chrome://tracing or "
                  f"https://ui.perfetto.dev")
    elif args.command == "check":
        from .staticcheck import run_check

        return run_check(args.paths, output_format=args.output_format,
                         rule_ids=args.rules, list_rules=args.list_rules,
                         show_suppressed=args.show_suppressed)
    else:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {args.command!r}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
