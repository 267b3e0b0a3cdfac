"""Cross-run comparison tables and the regression instrument.

This is layer three of the observability subsystem: given
:class:`~repro.store.runstore.RunRecord` entries (from one store or two), it
renders side-by-side comparison tables and sparkline trace charts
(re-using :mod:`repro.simulation.reporting`), and — the CI teeth —
:func:`check_store_regression` decides whether a candidate store has drifted
from a stored baseline:

* **trajectory drift** — pointwise deviation of the stored max-min traces
  beyond ``max_trace_drift``.  Counter-based draws make trajectories
  bit-exact across processes and machines, so the default tolerance is 0.0:
  any drift means the algorithms changed behaviour.
* **metric drift** — the final discrepancies worsened by more than
  ``max_metric_drift``.
* **timing regression** — the run's wall-clock grew beyond
  ``max_timing_ratio`` × baseline.  Timings are machine-dependent, so this
  check is opt-in and should be used with generous ratios (or on matched
  hardware, e.g. a CI baseline recorded on the same runner class).
* **coverage** — every baseline record must have a comparable candidate
  (same ``config_hash``); a silently-vanished configuration is a regression
  of the experiment, not a pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..exceptions import ExperimentError
from ..simulation.reporting import trace_chart
from .runstore import RunRecord

__all__ = [
    "comparison_rows",
    "diff_rows",
    "render_comparison",
    "RegressionViolation",
    "RegressionOutcome",
    "check_regression",
    "check_store_regression",
]

#: The result metrics a diff/regression pass looks at (lower is better).
_HEADLINE_METRICS = ("final_max_min", "final_max_avg", "rounds", "dummy_tokens")


def _timing_seconds(record: RunRecord) -> Optional[float]:
    seconds = record.timing.get("seconds")
    return None if seconds is None else float(seconds)


def comparison_rows(records: Sequence[RunRecord]) -> List[Dict[str, object]]:
    """Flatten records into table rows (one per record, store order)."""
    if not records:
        raise ExperimentError("no run records to compare")
    rows = []
    for index, record in enumerate(records):
        row: Dict[str, object] = {
            "idx": f"#{index}",
            "label": record.label,
            "kind": record.kind,
            "hash": record.config_hash[:10],
            "algorithm": record.config.get("algorithm", "-"),
            "seeds": ",".join(str(seed) for seed in record.seeds) or "-",
            "max_min": record.metric("final_max_min", "-"),
            "max_avg": record.metric("final_max_avg", "-"),
            "rounds": record.metric("rounds", "-"),
            "seconds": _timing_seconds(record) or "-",
            "git": (record.git_rev or "-")[:10],
            "created": record.created,
        }
        rows.append(row)
    return rows


def diff_rows(baseline: RunRecord, candidate: RunRecord) -> List[Dict[str, object]]:
    """Per-metric baseline/candidate/delta rows for two records."""
    rows = []
    for metric in _HEADLINE_METRICS:
        base = baseline.metric(metric)
        cand = candidate.metric(metric)
        comparable = (isinstance(base, (int, float))
                      and isinstance(cand, (int, float)))
        delta = (cand - base) if comparable else None
        rows.append({"metric": metric,
                     "baseline": "-" if base is None else base,
                     "candidate": "-" if cand is None else cand,
                     "delta": "-" if delta is None else round(delta, 6)})
    base_seconds, cand_seconds = _timing_seconds(baseline), _timing_seconds(candidate)
    if base_seconds is not None and cand_seconds is not None:
        rows.append({"metric": "seconds", "baseline": round(base_seconds, 4),
                     "candidate": round(cand_seconds, 4),
                     "delta": round(cand_seconds - base_seconds, 4)})
    return rows


def render_comparison(records: Sequence[RunRecord], width: int = 60) -> str:
    """Sparkline trace chart of every record that stored a trajectory."""
    traces = {}
    for index, record in enumerate(records):
        trace = record.trace()
        if trace:
            traces[f"#{index} {record.label}"] = trace
    if not traces:
        return "(no stored trajectories to chart)"
    return trace_chart(traces, width=width,
                      title="max-min discrepancy per round")


@dataclass(frozen=True)
class RegressionViolation:
    """One way the candidate drifted from the baseline."""

    check: str
    baseline_label: str
    detail: str
    baseline_value: Optional[float] = None
    candidate_value: Optional[float] = None

    def as_row(self) -> Dict[str, object]:
        return {
            "check": self.check,
            "baseline": self.baseline_label,
            "base_value": "-" if self.baseline_value is None else self.baseline_value,
            "cand_value": "-" if self.candidate_value is None else self.candidate_value,
            "detail": self.detail,
        }


@dataclass
class RegressionOutcome:
    """Aggregate verdict of a regression pass."""

    pairs_checked: int = 0
    violations: List[RegressionViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the candidate passed every check."""
        return self.pairs_checked > 0 and not self.violations

    def summary(self) -> str:
        if self.pairs_checked == 0:
            return "regression check: no comparable record pairs found"
        status = ("PASS" if self.ok
                  else f"FAIL ({len(self.violations)} violation(s))")
        return f"regression check over {self.pairs_checked} pair(s): {status}"


def check_regression(baseline: RunRecord, candidate: RunRecord,
                     max_metric_drift: float = 0.0,
                     max_trace_drift: float = 0.0,
                     max_timing_ratio: Optional[float] = None,
                     require_config_match: bool = True,
                     outcome: Optional[RegressionOutcome] = None) -> RegressionOutcome:
    """Compare one candidate record against one baseline record.

    Returns (and, if given, extends) a :class:`RegressionOutcome`.  All
    drift thresholds are "worsening" thresholds: a candidate that is *better*
    than the baseline never trips the metric checks, and trace drift is
    measured as absolute pointwise deviation.
    """
    result = outcome if outcome is not None else RegressionOutcome()
    result.pairs_checked += 1
    label = baseline.label

    if require_config_match and baseline.config_hash != candidate.config_hash:
        result.violations.append(RegressionViolation(
            "config-hash", label,
            f"baseline {baseline.config_hash[:10]} vs candidate "
            f"{candidate.config_hash[:10]} — not the same experiment"))
        return result

    for metric in ("final_max_min", "final_max_avg"):
        base = baseline.metric(metric)
        cand = candidate.metric(metric)
        if isinstance(base, (int, float)) and isinstance(cand, (int, float)):
            drift = cand - base
            if drift > max_metric_drift:
                result.violations.append(RegressionViolation(
                    metric, label,
                    f"{metric} worsened by {drift:g} "
                    f"(allowed {max_metric_drift:g})",
                    baseline_value=float(base), candidate_value=float(cand)))

    base_trace, cand_trace = baseline.trace(), candidate.trace()
    if base_trace and cand_trace:
        if len(base_trace) != len(cand_trace):
            result.violations.append(RegressionViolation(
                "trace-length", label,
                f"trajectory length changed: {len(base_trace)} -> {len(cand_trace)}",
                baseline_value=float(len(base_trace)),
                candidate_value=float(len(cand_trace))))
        else:
            worst = max((abs(c - b) for b, c in zip(base_trace, cand_trace)),
                        default=0.0)
            if worst > max_trace_drift:
                round_idx = max(range(len(base_trace)),
                                key=lambda i: abs(cand_trace[i] - base_trace[i]))
                result.violations.append(RegressionViolation(
                    "trace-drift", label,
                    f"max pointwise trajectory deviation {worst:g} at round "
                    f"{round_idx} (allowed {max_trace_drift:g})",
                    baseline_value=float(base_trace[round_idx]),
                    candidate_value=float(cand_trace[round_idx])))

    if max_timing_ratio is not None:
        base_seconds = _timing_seconds(baseline)
        cand_seconds = _timing_seconds(candidate)
        if base_seconds and cand_seconds and base_seconds > 0:
            ratio = cand_seconds / base_seconds
            if ratio > max_timing_ratio:
                result.violations.append(RegressionViolation(
                    "timing", label,
                    f"run took {ratio:.2f}x the baseline wall-clock "
                    f"(allowed {max_timing_ratio:g}x)",
                    baseline_value=base_seconds, candidate_value=cand_seconds))

    return result


def check_store_regression(baseline_records: Sequence[RunRecord],
                           candidate_records: Sequence[RunRecord],
                           max_metric_drift: float = 0.0,
                           max_trace_drift: float = 0.0,
                           max_timing_ratio: Optional[float] = None) -> RegressionOutcome:
    """Gate a candidate store against a baseline store.

    Every baseline record must have at least one candidate record with the
    same ``config_hash`` (the latest such record is compared); baseline
    records nobody re-ran are coverage violations.
    """
    outcome = RegressionOutcome()
    for baseline in baseline_records:
        matches = [record for record in candidate_records
                   if record.config_hash == baseline.config_hash]
        if not matches:
            outcome.violations.append(RegressionViolation(
                "coverage", baseline.label,
                f"no candidate record for config {baseline.config_hash[:10]} "
                f"(label {baseline.label!r})"))
            continue
        check_regression(baseline, matches[-1],
                         max_metric_drift=max_metric_drift,
                         max_trace_drift=max_trace_drift,
                         max_timing_ratio=max_timing_ratio,
                         outcome=outcome)
    return outcome
