"""Figure and table generators for every artifact in the paper's evaluation.

Each generator runs the required simulations and returns a structured
result object with a ``format()`` method producing the same rows/series
the paper reports.  A generator's first argument is the
:class:`~repro.harness.experiment.ExperimentRunner` that runs its cells:
the scale, jobs, cache and cell timeout are the runner's, set once when
it is built.  The benches under ``benchmarks/`` are thin wrappers over
these.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.predictors import ENF, NOT_ENF, TOTAL
from ..pipeline.processor import SimResult
from ..power.energy import EnergyModel
from ..workloads import suites
from .configs import (
    aggressive_lsq_config,
    aggressive_sfc_mdt_config,
    baseline_lsq_config,
    baseline_sfc_mdt_config,
)
from .experiment import ExperimentRunner, geometric_mean, normalized_ipc


class FigureResult:
    """Rows of (benchmark, {series: value}) plus int/fp averages.

    IPC and IPC-ratio series average geometrically.  The series named in
    ``arithmetic`` -- rates (violations, replays or corruptions per
    retired instruction) and counts, which are legitimately 0 on some
    benchmarks -- average arithmetically: a geometric mean reads 0 as
    soon as one row does.
    """

    def __init__(self, title: str, series_names: Sequence[str],
                 rows: List[Tuple[str, Dict[str, float]]],
                 arithmetic: Sequence[str] = ()):
        self.title = title
        self.series_names = list(series_names)
        self.rows = rows
        self.arithmetic = frozenset(arithmetic)

    def averages(self) -> List[Tuple[str, Dict[str, float]]]:
        """Average rows for the int and fp subsets present."""
        out = []
        table = dict(self.rows)
        for label, subset in (("int avg", suites.INT_BENCHMARKS),
                              ("fp avg", suites.FP_BENCHMARKS)):
            names = [b for b, _ in self.rows if b in subset]
            if not names:
                continue
            values = {}
            for series in self.series_names:
                column = [table[b][series] for b in names]
                values[series] = sum(column) / len(column) \
                    if series in self.arithmetic \
                    else geometric_mean(column)
            out.append((label, values))
        return out

    def value(self, benchmark: str, series: str) -> float:
        return dict(self.rows)[benchmark][series]

    def average(self, label: str, series: str) -> float:
        return dict(self.averages())[label][series]

    def format(self) -> str:
        width = max(len(name) for name in self.series_names)
        lines = [self.title,
                 "-" * len(self.title),
                 "benchmark   " + "  ".join(
                     f"{name:>{width}}" for name in self.series_names)]
        for benchmark, values in self.rows + self.averages():
            cells = "  ".join(f"{values[name]:>{width}.3f}"
                              for name in self.series_names)
            lines.append(f"{benchmark:<12s}{cells}")
        return "\n".join(lines)


def manifest_table(runner: ExperimentRunner) -> str:
    """Observability table over a runner's per-cell manifest.

    One row per completed grid cell -- IPC, cycles, simulation wall-time,
    and cache hit/miss -- plus a totals line.  The benches archive this
    (and the raw manifest JSON) instead of ad-hoc prints.
    """
    lines = ["engine manifest: per-cell runs",
             "-" * 30,
             f"{'benchmark':<12s}{'config':<30s}{'IPC':>7}  "
             f"{'cycles':>10}  {'wall(s)':>8}  cache"]
    for entry in runner.manifest:
        if entry["status"] != "ok":
            origin = entry["status"].upper()
        else:
            origin = "hit" if entry["cache_hit"] else "miss"
        lines.append(
            f"{entry['benchmark']:<12s}{entry['config_name']:<30s}"
            f"{entry['ipc']:>7.3f}  {entry['cycles']:>10d}  "
            f"{entry['wall_time']:>8.2f}  {origin}")
    simulated = sum(e["wall_time"] for e in runner.manifest
                    if not e["cache_hit"])
    summary = (f"{len(runner.manifest)} cells: "
               f"{runner.cache_hits} cache hits, "
               f"{runner.cache_misses} simulated "
               f"({simulated:.2f}s simulation time)")
    if runner.failures:
        summary += f", {runner.failures} failed"
    lines.append(summary)
    return "\n".join(lines)


def figure5(runner: ExperimentRunner,
            benchmarks: Optional[Sequence[str]] = None) -> FigureResult:
    """Figure 5: baseline core, MDT/SFC (ENF and NOT-ENF) vs 48x32 LSQ.

    Series are IPC normalized to the idealized 48x32 LSQ; the paper's
    headline is ENF within ~1% and NOT-ENF within ~3% of the LSQ on
    average.
    """
    benchmarks = list(benchmarks or suites.FIGURE5_BENCHMARKS)
    configs = [baseline_lsq_config(),
               baseline_sfc_mdt_config(mode=ENF, name="ENF"),
               baseline_sfc_mdt_config(mode=NOT_ENF, name="NOT-ENF")]
    results = runner.run_suite(benchmarks, configs)
    baseline_name = configs[0].name
    rows = []
    for benchmark in benchmarks:
        rows.append((benchmark, {
            "ENF": normalized_ipc(results, benchmark, "ENF", baseline_name),
            "NOT-ENF": normalized_ipc(results, benchmark, "NOT-ENF",
                                      baseline_name),
            "LSQ-IPC": results[(benchmark, baseline_name)].ipc,
        }))
    return FigureResult(
        "Figure 5: baseline (4-wide) -- normalized IPC vs 48x32 LSQ",
        ["ENF", "NOT-ENF", "LSQ-IPC"], rows)


def figure6(runner: ExperimentRunner,
            benchmarks: Optional[Sequence[str]] = None) -> FigureResult:
    """Figure 6: aggressive core -- 256x256 LSQ, 48x32 LSQ, and MDT/SFC
    (ENF/total-order) normalized to the idealized 120x80 LSQ."""
    benchmarks = list(benchmarks or suites.FIGURE6_BENCHMARKS)
    configs = [aggressive_lsq_config(120, 80),
               aggressive_lsq_config(256, 256, name="lsq256x256"),
               aggressive_lsq_config(48, 32, name="lsq48x32"),
               aggressive_sfc_mdt_config(mode=TOTAL, name="ENF")]
    results = runner.run_suite(benchmarks, configs)
    baseline_name = configs[0].name
    rows = []
    for benchmark in benchmarks:
        rows.append((benchmark, {
            "lsq256x256": normalized_ipc(results, benchmark, "lsq256x256",
                                         baseline_name),
            "lsq48x32": normalized_ipc(results, benchmark, "lsq48x32",
                                       baseline_name),
            "ENF": normalized_ipc(results, benchmark, "ENF", baseline_name),
        }))
    return FigureResult(
        "Figure 6: aggressive (8-wide) -- normalized IPC vs 120x80 LSQ",
        ["lsq256x256", "lsq48x32", "ENF"], rows)


def enf_ablation(runner: ExperimentRunner,
                 benchmarks: Optional[Sequence[str]] = None) -> FigureResult:
    """Section 3.2 in-text: ENF(total order) vs NOT-ENF on the aggressive
    core.  Series: normalized IPC (NOT-ENF baseline = 1.0) and the
    memory-ordering violation rate of each configuration (violations per
    retired instruction, in %)."""
    benchmarks = list(benchmarks or suites.FIGURE6_BENCHMARKS)
    configs = [aggressive_sfc_mdt_config(mode=NOT_ENF, name="NOT-ENF"),
               aggressive_sfc_mdt_config(mode=TOTAL, name="ENF")]
    results = runner.run_suite(benchmarks, configs)
    rows = []
    for benchmark in benchmarks:
        not_enf = results[(benchmark, "NOT-ENF")]
        enf = results[(benchmark, "ENF")]

        def violation_pct(result: SimResult) -> float:
            violations = (
                result.counters.get("violation_flushes_true") +
                result.counters.get("violation_flushes_anti") +
                result.counters.get("violation_flushes_output"))
            retired = result.counters.get("retired_instructions") or 1
            return 100.0 * violations / retired

        rows.append((benchmark, {
            "ENF/NOT-ENF": enf.ipc / not_enf.ipc if not_enf.ipc else 0.0,
            "viol%-NOT-ENF": violation_pct(not_enf),
            "viol%-ENF": violation_pct(enf),
        }))
    return FigureResult(
        "Section 3.2: dependence enforcement ablation (aggressive core)",
        ["ENF/NOT-ENF", "viol%-NOT-ENF", "viol%-ENF"], rows,
        arithmetic=["viol%-NOT-ENF", "viol%-ENF"])


def associativity_sweep(runner: ExperimentRunner,
                        benchmarks: Sequence[str] = ("bzip2", "mcf"),
                        assocs: Sequence[int] = (2, 4, 8, 16)) -> FigureResult:
    """Section 3.2 in-text: SFC/MDT associativity sweep for the two
    set-conflict pathologies.  Series per associativity: IPC plus the
    replay rates that the paper quotes (replays per retired load/store)."""
    rows = []
    for benchmark in benchmarks:
        values: Dict[str, float] = {}
        for assoc in assocs:
            config = aggressive_sfc_mdt_config(
                sfc_assoc=assoc, mdt_assoc=assoc, name=f"assoc{assoc}")
            result = runner.run(benchmark, config)
            loads = result.counters.get("retired_loads") or 1
            stores = result.counters.get("retired_stores") or 1
            values[f"IPC@{assoc}"] = result.ipc
            values[f"ld-replay@{assoc}"] = \
                result.counters.get("load_replays_mdt_conflict") / loads
            values[f"st-replay@{assoc}"] = \
                result.counters.get("store_replays_sfc_conflict") / stores
        rows.append((benchmark, values))
    series = [key for key in rows[0][1]]
    return FigureResult(
        "Section 3.2: SFC/MDT associativity sweep (aggressive core)",
        series, rows,
        arithmetic=[key for key in series if "-replay@" in key])


def corruption_rates(runner: ExperimentRunner,
                     benchmarks: Optional[Sequence[str]] = None
                     ) -> FigureResult:
    """Section 3.2 in-text: SFC corruption replay rates per benchmark
    (the paper: ~20% of loads for vpr_route/ammp/equake, <=6% elsewhere)."""
    benchmarks = list(benchmarks or suites.FIGURE6_BENCHMARKS)
    config = aggressive_sfc_mdt_config()
    rows = []
    for benchmark in benchmarks:
        result = runner.run(benchmark, config)
        loads = result.counters.get("retired_loads") or 1
        rows.append((benchmark, {
            "corrupt-replays/load":
                result.counters.get("load_replays_sfc_corrupt") / loads,
            "IPC": result.ipc,
        }))
    return FigureResult(
        "Section 3.2: SFC corruption replays per retired load "
        "(aggressive core)",
        ["corrupt-replays/load", "IPC"], rows,
        arithmetic=["corrupt-replays/load"])


def granularity_sweep(runner: ExperimentRunner,
                      benchmarks: Sequence[str] = ("gzip", "parser",
                                                   "equake"),
                      granularities: Sequence[int] = (4, 8, 16, 32)
                      ) -> FigureResult:
    """Section 2.2 trade-off: MDT granularity (bytes per entry).

    Coarser granules cut tag conflicts but create false sharing among
    distinct addresses in one granule, raising spurious violations; the
    paper settles on 8 bytes for a 64-bit machine.
    """
    rows = []
    for benchmark in benchmarks:
        values: Dict[str, float] = {}
        for granularity in granularities:
            config = baseline_sfc_mdt_config(
                mdt_granularity=granularity, name=f"gran{granularity}")
            result = runner.run(benchmark, config)
            retired = result.counters.get("retired_instructions") or 1
            violations = (
                result.counters.get("violation_flushes_true") +
                result.counters.get("violation_flushes_anti") +
                result.counters.get("violation_flushes_output"))
            values[f"IPC@{granularity}B"] = result.ipc
            values[f"viol%@{granularity}B"] = 100.0 * violations / retired
        rows.append((benchmark, values))
    series = [key for key in rows[0][1]]
    return FigureResult("Section 2.2: MDT granularity sweep (baseline core)",
                        series, rows,
                        arithmetic=[key for key in series
                                    if key.startswith("viol%")])


def power_comparison(runner: ExperimentRunner,
                     benchmarks: Optional[Sequence[str]] = None,
                     lsq_sizes: Sequence[Tuple[int, int]] = ((48, 32),
                                                             (120, 80),
                                                             (256, 256))
                     ) -> FigureResult:
    """Dynamic-energy comparison: LSQ CAM searches vs SFC/MDT indexed
    accesses, per LSQ size (the paper's scalability/power argument)."""
    benchmarks = list(benchmarks or ["gzip", "parser", "equake", "swim"])
    model = EnergyModel()
    sfc_config = aggressive_sfc_mdt_config()
    rows = []
    for benchmark in benchmarks:
        sfc_result = runner.run(benchmark, sfc_config)
        sfc_energy = model.sfc_mdt_energy(
            sfc_result.counters)["total_energy"]
        values: Dict[str, float] = {}
        for lq, sq in lsq_sizes:
            lsq_result = runner.run(
                benchmark, aggressive_lsq_config(lq, sq))
            lsq_energy = model.lsq_energy(
                lsq_result.counters)["total_energy"]
            values[f"LSQ{lq}x{sq}/SFC"] = \
                lsq_energy / sfc_energy if sfc_energy else float("inf")
        rows.append((benchmark, values))
    series = [key for key in rows[0][1]]
    return FigureResult(
        "Dynamic energy of forwarding+disambiguation: LSQ relative to "
        "SFC/MDT", series, rows)


def window_scaling(runner: ExperimentRunner,
                   benchmark: str = "swim",
                   windows: Sequence[int] = (32, 64, 128, 256, 512, 1024)
                   ) -> FigureResult:
    """Scalability claim: SFC/MDT IPC tracks the (size-matched) LSQ as the
    instruction window grows."""
    rows = []
    for window in windows:
        lsq = aggressive_lsq_config(window, window,
                                    name=f"lsq-w{window}")
        lsq.rob_size = lsq.sched_size = window
        sfc = aggressive_sfc_mdt_config(name=f"sfc-w{window}")
        sfc.rob_size = sfc.sched_size = window
        lsq_result = runner.run(benchmark, lsq)
        sfc_result = runner.run(benchmark, sfc)
        rows.append((f"window {window}", {
            "LSQ-IPC": lsq_result.ipc,
            "SFC/MDT-IPC": sfc_result.ipc,
            "ratio": sfc_result.ipc / lsq_result.ipc
            if lsq_result.ipc else 0.0,
        }))
    return FigureResult(
        f"Window scaling on {benchmark}: SFC/MDT vs size-matched LSQ",
        ["LSQ-IPC", "SFC/MDT-IPC", "ratio"], rows)


def recovery_policies(runner: ExperimentRunner,
                      benchmarks: Sequence[str] = ("gzip", "mesa",
                                                   "vpr_route")
                      ) -> FigureResult:
    """Section 2.4 ablations: conservative vs optimized recovery.

    Policies: conservative flush (paper default), counted true-dependence
    recovery (Section 2.4.1), and corrupt-marking output recovery
    (Section 2.4.2).  Measured on the aggressive core, where ordering
    violations are frequent enough for the recovery policy to matter.
    """
    rows = []
    for benchmark in benchmarks:
        conservative = aggressive_sfc_mdt_config(name="conservative")
        counted = aggressive_sfc_mdt_config(name="counted")
        counted.mdt.counted_load_recovery = True
        corrupt = aggressive_sfc_mdt_config(name="corrupt")
        corrupt.output_recovery = "corrupt"
        values = {}
        for config in (conservative, counted, corrupt):
            values[config.name] = runner.run(benchmark, config).ipc
        rows.append((benchmark, values))
    return FigureResult(
        "Section 2.4: recovery-policy ablation (aggressive core, IPC)",
        ["conservative", "counted", "corrupt"], rows)
