"""Human-readable reports rendered from structured run records.

``format_report`` renders a :class:`~repro.obs.runrecord.RunRecord` as a
sectioned text report (used by the CLI's default ``--format text`` and
the examples).  Every counter name the report touches is resolved
through the metric registry (:data:`repro.obs.metrics.METRICS`):

* a *missing* metric (never incremented in this run) renders as ``0``
  followed by the metric's declared unit, instead of a silent blank;
* an *undeclared* metric name -- a typo'd counter string -- raises
  :class:`~repro.obs.metrics.UnknownMetricError` immediately, so report
  drift is caught by the test suite rather than shipped as empty rows.
"""

from __future__ import annotations

from typing import List

from ..obs.metrics import METRICS
from ..obs.runrecord import RunRecord


def format_report(record: RunRecord) -> str:
    """Render a run record as a sectioned text report."""
    if not isinstance(record, RunRecord):
        raise TypeError(f"format_report takes a RunRecord, got "
                        f"{type(record).__name__}")
    metrics = record.counters
    lines: List[str] = []

    def section(title: str) -> None:
        lines.append("")
        lines.append(title)
        lines.append("-" * len(title))

    def row(label: str, value, fmt: str = "{:.0f}") -> None:
        if isinstance(value, float):
            value = fmt.format(value)
        lines.append(f"  {label:<30} {value}")

    def get(name: str) -> float:
        """Declared-metric lookup: typos raise, absent values read 0."""
        METRICS.get(name)
        return metrics.get(name, 0.0)

    def metric_row(label: str, name: str, fmt: str = "{:.0f}") -> None:
        metric = METRICS.get(name)
        if name in metrics:
            row(label, metrics[name], fmt)
        else:
            unit = f" {metric.unit}" if metric.unit else ""
            row(label, f"0{unit}")

    lines.append(f"{record.benchmark} on {record.config_name}")
    lines.append("=" * len(lines[0]))

    section("performance")
    row("IPC", record.ipc, "{:.3f}")
    row("cycles", float(record.cycles))
    row("instructions retired", float(record.instructions))
    metric_row("idle cycles skipped", "idle_cycles_skipped")

    section("front end")
    metric_row("branch predictions", "branch_predictions")
    metric_row("branch mispredictions", "branch_mispredictions")
    metric_row("mispredict flushes", "branch_mispredict_flushes")
    metric_row("squashed instructions", "squashed_instructions")
    metric_row("dispatch stalls (ROB full)", "dispatch_stalls_rob")
    metric_row("dispatch stalls (window)", "dispatch_stalls_sched")
    row("dispatch stalls (LQ/SQ)",
        get("dispatch_stalls_lq") + get("dispatch_stalls_sq"))

    section("memory subsystem")
    metric_row("retired loads", "retired_loads")
    metric_row("retired stores", "retired_stores")
    if get("sfc_load_lookups"):
        metric_row("SFC forwards", "sfc_forwards")
        metric_row("SFC partial-match replays", "load_replays_sfc_partial")
        metric_row("SFC corruption replays", "load_replays_sfc_corrupt")
        metric_row("SFC set-conflict replays", "store_replays_sfc_conflict")
        row("MDT set-conflict replays", get("load_replays_mdt_conflict")
            + get("store_replays_mdt_conflict"))
        metric_row("ROB-head bypasses", "rob_head_bypasses")
    if get("lsq_load_searches"):
        metric_row("LSQ full forwards", "lsq_full_forwards")
        metric_row("SQ entries CAM-searched", "lsq_sq_entries_searched")
        metric_row("LQ entries CAM-searched", "lsq_lq_entries_searched")
    if get("lsq_retire_replays"):
        metric_row("retirement re-executions", "lsq_retire_replays")
        metric_row("late violations", "retire_replay_violations")

    section("ordering violations")
    row("true-dependence flushes", get("violation_flushes_true")
        + get("lsq_true_violations"))
    metric_row("anti-dependence flushes", "violation_flushes_anti")
    metric_row("output-dependence flushes", "violation_flushes_output")
    metric_row("predictor trainings", "pred_trainings")
    metric_row("predicted deps enforced", "pred_consumes")

    section("caches")
    for level in ("l1i", "l1d", "l2"):
        accesses = get(f"{level}_accesses")
        misses = get(f"{level}_misses")
        rate = 100.0 * misses / accesses if accesses else 0.0
        row(f"{level} accesses / misses",
            f"{accesses:.0f} / {misses:.0f}  ({rate:.1f}%)")

    return "\n".join(lines)
