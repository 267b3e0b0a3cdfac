"""The repo benchmark: one command per workload, every metric by name and unit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload static-large --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  Names, units and
bounds live in ``BENCHMARK.json``; workloads and metric definitions are in
``perfbench/README.md``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` and
``failed`` count operations (runs, steps, cells, checkpoint writes, resumes
and invariant checks).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import pathlib
import shutil
import sys
import traceback
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (stdlib only; numpy must not load before pinning)

#: workload name -> module implementing it
WORKLOADS = {
    "static-large": "static_large",
    "stream-churn": "stream_churn",
    "grid-paper": "grid_paper",
}


def load_spec(root: pathlib.Path) -> Dict[str, object]:
    return json.loads((root / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: pathlib.Path, params=None) -> Dict[str, object]:
    """Run one workload (at ``params``, default full size) and return its report."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    module = importlib.import_module(WORKLOADS[name])
    if params is None:
        params = module.FULL
    ledger = harness.Ledger()
    workdir = root / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = module.run(params, seed, seconds, trace, ledger, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["ledger"] = ledger
    return report


def result_line(report: Dict[str, object], spec: Dict[str, object],
                trace: bool) -> Dict[str, object]:
    """The final JSON object; a layer the workload bypasses reads 0."""
    declared = spec["per_layer" if trace else "end_to_end"]
    measured = report["metrics"]
    ledger: harness.Ledger = report["ledger"]
    metrics = {}
    for entry in declared:
        value = measured.get(entry["name"])
        if value is None and not trace:
            ledger.record(False, f"metric {entry['name']} was not measured")
        value = 0 if value is None else value
        if not math.isfinite(value):
            ledger.record(False, f"metric {entry['name']} is {value}")
            value = 0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def describe(name: str, seed: int, trace: bool, root: pathlib.Path,
             report: Dict[str, object], result: Dict[str, object]) -> List[str]:
    import numpy

    lines = [f"# perfbench workload={name} seed={seed} trace={int(trace)} "
             f"nproc={harness.nproc()} numpy={numpy.__version__} git={harness.git_rev(root)}"]
    samples = report.get("samples", {})
    for metric, entry in result["metrics"].items():
        count = samples.get(metric)
        note = f"  (n={count})" if count is not None else ""
        if trace and metric not in report["metrics"]:
            note = "  (layer bypassed)"
        lines.append(f"{metric:34s} {entry['value']:>14.6g} {entry['unit']}{note}")
    for metric, (value, unit, count) in report.get("extra", {}).items():
        lines.append(f"{metric:34s} {value:>14.6g} {unit}  (n={count})")
    ledger: harness.Ledger = report["ledger"]
    lines.append(f"{'failed_ratio':34s} {ledger.failed_ratio:>14.6g} ratio  "
                 f"({ledger.failed}/{ledger.attempted} operations)")
    lines.extend(f"FAILED: {failure}" for failure in ledger.failures[:20])
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file() \
            or not (root / "BENCHMARK.json").is_file():
        print(f"perfbench: {root} is not a checkout of the repository "
              "(src/repro or BENCHMARK.json is missing)", file=sys.stderr)
        return 2
    harness.pin_threads()
    spec = load_spec(root)
    trace = bool(args.trace)
    try:
        report = run_workload(args.workload, args.seed, args.seconds, trace, root)
    except Exception:  # the run itself broke: no result line
        traceback.print_exc()
        return 1
    result = result_line(report, spec, trace)
    for line in describe(args.workload, args.seed, trace, root, report, result):
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
