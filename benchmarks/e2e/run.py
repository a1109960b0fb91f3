#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: one workload per process.

    python3 benchmarks/e2e/run.py --workload fig5-exact --seed 1 \\
        --seconds 20 --trace 0 [--out FILE]

Load is closed-loop: one client issues ops back to back in a single
process (``ExperimentRunner(jobs=1)``, no worker pool, no threads).
Set-up runs at least three times and for at least a second; ``setup_s``
is the median.  Ops run in seed-permuted passes over the workload's
cells until ``--seconds`` have elapsed and every cell has run at least
once; every workload's pass is sized to take under 20 s.  Every
timing is in reference seconds: the host's speed drifts by tens of
percent, so the fixed kernel of ``yardstick.py`` is timed between
consecutive ops and set-ups, and each op's time is divided by the mean
of the kernel's times around it.  Each cell's
time is the fastest of its runs.  Every op is checked against the
pinned digests in ``reference.json`` (fuzz ops against the interpreter
oracle); a run without its pins exits 2.

``--trace 1`` is a separate run: one untraced set-up and pass, then the
same set-up and pass under ``cProfile``, charged to the simulator's
layers by ``benchmarks/e2e/trace.py``; it reports the per-layer metrics.

The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``; the line before it
names host, commit, Python and ``nproc``.  ``--out`` appends both as one
JSON line.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
REFERENCE = HERE / "reference.json"

#: (name, unit, better, bound): the untraced run's metrics (see
#: README.md, "Repeatability", for the spreads the bounds cover).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("sim_insts_per_s", "insts/s", "higher", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

#: Set-up repeats: at least this many, and for at least this long.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0

#: Candidate percentiles for ``op_tail_s``.
_PERCENTILES = (50, 80, 90, 95, 99)


def tail_percentile(samples: int) -> int:
    """The highest percentile with at least ten samples beyond it."""
    fitting = [p for p in _PERCENTILES if samples * (100 - p) >= 1000]
    return fitting[-1] if fitting else 50


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics() -> List[tuple]:
    """(name, unit, better) of every traced-run metric, in order."""
    from benchmarks.e2e import trace as tracing

    out = []
    for layer in tracing.LAYERS:
        out += [(f"{layer}.self_s", "s", "lower"),
                (f"{layer}.share", "ratio", "lower"),
                (f"{layer}.calls", "count", "lower")]
    out += [(f"{layer}.init_s", "s", "lower")
            for layer in tracing.INIT_LAYERS]
    return out + [(name, unit, better)
                  for name, (unit, better) in _COUNT_UNITS.items()] + [
        ("checkpoint.sampling.train_insts_per_s", "insts/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.attributed_ratio", "ratio", "higher"),
    ]


_COUNT_UNITS = {
    "pipeline.core.sim_cycles": ("cycles", "lower"),
    "pipeline.core.idle_skip_share": ("ratio", "higher"),
    "pipeline.core.dispatch_stalls": ("slots", "lower"),
    "pipeline.core.mem_replays": ("count", "lower"),
    "pipeline.core.rob_head_bypasses": ("count", "lower"),
    "core.sfc.forward_rate": ("ratio", "higher"),
    "core.sfc.set_conflicts": ("count", "lower"),
    "core.sfc.store_useful_ratio": ("ratio", "higher"),
    "core.mdt.violations": ("count", "lower"),
    "core.mdt.violation_flushes": ("count", "lower"),
    "core.lsq.sq_entries_per_search": ("entries", "lower"),
    "memory.cache.l1d_miss_rate": ("ratio", "lower"),
    "memory.cache.l2_miss_rate": ("ratio", "lower"),
    "branch.gshare.mispredict_rate": ("ratio", "lower"),
    "isa.interp.fast_forward.insts": ("insts", "lower"),
    "checkpoint.sampling.detailed_insts": ("insts", "lower"),
    "checkpoint.arch.checkpoints": ("count", "lower"),
    "verify.fuzzer.oracle_insts": ("insts", "lower"),
}


def sim_counts(records: List[dict]) -> Dict[str, float]:
    """Simulated counts summed over the RunRecords of one pass (exact:
    they repeat bit for bit)."""
    def total(key, only_sfc=False):
        return sum(r["counters"].get(key, 0) for r in records
                   if "counters" in r and (
                       not only_sfc
                       or r["config"]["subsystem"] == "sfc_mdt"))

    def sampling(key):
        return sum(r["sampling"][key] for r in records if r.get("sampling"))

    stalls = sum(total(f"dispatch_stalls_{cause}")
                 for cause in ("rob", "sched", "phys", "lq", "sq"))
    violations = sum(total(f"mdt_{kind}_violations") for kind in
                     ("true", "anti", "output")) \
        + total("mdt_true_violations_at_retire")
    flushes = sum(total(f"violation_flushes_{kind}", only_sfc=True)
                  for kind in ("true", "anti", "output"))
    return {
        "pipeline.core.sim_cycles": total("cycles"),
        "pipeline.core.idle_skip_share": _ratio(
            total("idle_cycles_skipped"), total("cycles")),
        "pipeline.core.dispatch_stalls": stalls,
        "pipeline.core.mem_replays": total("mem_replays"),
        "pipeline.core.rob_head_bypasses": total("rob_head_bypass_grants"),
        "core.sfc.forward_rate": _ratio(total("sfc_forwards"),
                                        total("sfc_load_lookups")),
        "core.sfc.set_conflicts": total("sfc_set_conflicts"),
        "core.sfc.store_useful_ratio": _ratio(
            total("retired_stores", only_sfc=True),
            total("executed_stores", only_sfc=True)),
        "core.mdt.violations": violations,
        "core.mdt.violation_flushes": flushes,
        "core.lsq.sq_entries_per_search": _ratio(
            total("lsq_sq_entries_searched"), total("lsq_load_searches")),
        "memory.cache.l1d_miss_rate": _ratio(total("l1d_misses"),
                                             total("l1d_accesses")),
        "memory.cache.l2_miss_rate": _ratio(total("l2_misses"),
                                            total("l2_accesses")),
        "branch.gshare.mispredict_rate": _ratio(
            total("branch_mispredictions"), total("branch_predictions")),
        "isa.interp.fast_forward.insts": sampling("total_instructions"),
        "checkpoint.sampling.detailed_insts":
            sampling("detailed_instructions"),
        "verify.fuzzer.oracle_insts": sum(r.get("oracle_insts", 0)
                                          for r in records),
    }


class Pass:
    """Op timings and outcomes of one measured stretch."""

    def __init__(self, cells: List[str]):
        self.cells = cells
        #: Reference seconds of each cell's successful runs.
        self.times: Dict[str, List[float]] = {}
        self.outcomes: Dict = {}
        self.attempted = 0
        self.errors: List[str] = []
        self.passes = 0
        #: Wall seconds of the successful ops, and the yardstick's times.
        self.wall = 0.0
        self.yardstick: List[float] = []

    def best(self) -> Dict[str, float]:
        """Each cell's fastest op time."""
        return {cell: min(times) for cell, times in self.times.items()}


def measure(workload, state, rng: random.Random, seconds: float,
            single_pass: bool = False,
            profile=contextlib.nullcontext()) -> Pass:
    """Closed-loop ops in seed-permuted passes; stops once ``seconds``
    have elapsed and every cell has run (after one pass when
    ``single_pass``).  Each op runs inside ``profile``, between two
    yardstick runs outside it."""
    from benchmarks.e2e import yardstick

    cells = workload.cells(state)
    result = Pass(cells)
    perf = time.perf_counter
    started = perf()
    pace = yardstick.measure()
    while True:
        order = list(cells)
        rng.shuffle(order)
        for cell in order:
            if result.passes and perf() - started >= seconds:
                return result
            result.attempted += 1
            failure = None
            t0 = perf()
            try:
                with profile:
                    raw = workload.run_op(state, cell)
            except Exception as exc:  # noqa: BLE001 -- a failed op is data
                failure = f"{cell}: {type(exc).__name__}: {exc}"
            elapsed = perf() - t0
            before, pace = pace, yardstick.measure()
            if failure:
                result.errors.append(failure)
                continue
            result.wall += elapsed
            result.yardstick.append(before)
            elapsed = yardstick.reference_seconds(elapsed, before, pace)
            outcome = workload.check(state, cell, raw)
            if outcome.error:
                result.errors.append(outcome.error)
                continue
            result.times.setdefault(cell, []).append(elapsed)
            first = result.outcomes.setdefault(cell, outcome)
            if first.digest != outcome.digest:
                result.errors.append(f"{cell}: digest changed between "
                                     f"runs of the same cell")
        result.passes += 1
        if single_pass or perf() - started >= seconds:
            return result


def timed_setup(workload, seed: int, profile=contextlib.nullcontext()):
    started = time.perf_counter()
    with profile:
        state = workload.setup(seed)
    return state, time.perf_counter() - started


def setup_round(workload, seed: int) -> tuple:
    """The state of the last of several set-ups, their wall seconds and
    their reference seconds."""
    from benchmarks.e2e import yardstick

    wall: List[float] = []
    times: List[float] = []
    state = None
    pace = yardstick.measure()
    while len(wall) < SETUP_REPEATS or sum(wall) < SETUP_SECONDS:
        state = None  # free the previous set-up before building the next
        state, elapsed = timed_setup(workload, seed)
        before, pace = pace, yardstick.measure()
        wall.append(elapsed)
        times.append(yardstick.reference_seconds(elapsed, before, pace))
    return state, wall, times


def timings(run: Pass) -> Dict[str, float]:
    """Throughput and per-op latency over each cell's fastest time."""
    best = run.best()
    insts = sum(run.outcomes[cell].insts for cell in best)
    # No op succeeded: the run is incorrect and its timings read 0.
    values = list(best.values()) or [0.0]
    pct = tail_percentile(len(best))
    return {"sim_insts_per_s": _ratio(insts, sum(values)),
            "op_p50_s": statistics.median(values),
            "op_tail_s": percentile(values, pct), "op_tail_pct": pct}


def traced_metrics(workload, seed: int, rng: random.Random,
                   seconds: float) -> tuple:
    """Untraced set-up + pass, then the same under the profiler; returns
    (per-layer metrics, untraced pass, profiled pass)."""
    from benchmarks.e2e import trace as tracing

    state, plain_setup = timed_setup(workload, seed)
    plain = measure(workload, state, random.Random(seed), seconds,
                    single_pass=True)
    state = None
    profile = tracing.Profile()
    state, traced_setup = timed_setup(workload, seed, profile)
    traced = measure(workload, state, rng, seconds, single_pass=True,
                     profile=profile)
    layers = profile.attribution()
    attributed = sum(layers.self_s.values())
    metrics: Dict[str, float] = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = layers.self_s[layer]
        metrics[f"{layer}.share"] = _ratio(layers.self_s[layer], attributed)
        metrics[f"{layer}.calls"] = round(layers.calls[layer])
    for layer in tracing.INIT_LAYERS:
        metrics[f"{layer}.init_s"] = layers.init_s(layer)
    records = [o.record for o in traced.outcomes.values() if o.record]
    metrics.update(sim_counts(records))
    metrics["checkpoint.arch.checkpoints"] = layers.function(
        "repro.checkpoint.arch", "capture")[0]
    metrics["checkpoint.sampling.train_insts_per_s"] = _ratio(
        metrics["isa.interp.fast_forward.insts"],
        layers.function("repro.checkpoint.sampling", "ensure_train")[1])
    metrics["trace.overhead_ratio"] = _ratio(traced_setup + traced.wall,
                                             plain_setup + plain.wall)
    metrics["trace.attributed_ratio"] = _ratio(attributed, layers.total_s)
    return metrics, plain, traced


def run_workload(workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Measure one workload; returns the result and its metadata."""
    rng = random.Random(seed)
    setup_wall: List[float] = []
    if trace:
        metrics, plain, run = traced_metrics(workload, seed, rng, seconds)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        checked = [plain, run]
    else:
        state, setup_wall, setup_times = setup_round(workload, seed)
        run = measure(workload, state, rng, seconds)
        metrics = {"setup_s": statistics.median(setup_times),
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = {name: unit for name, unit, _, _ in END_TO_END}
        checked = [run]
    times = timings(run)
    metrics = {**times, **metrics}
    errors = [error for part in checked for error in part.errors]
    if trace:
        for cell, outcome in plain.outcomes.items():
            traced = run.outcomes.get(cell)
            if traced is not None and traced.digest != outcome.digest:
                errors.append(f"{cell}: tracing changed the result digest")
    missing = [cell for cell in run.cells if cell not in run.times]
    records = {cell: o.record for cell, o in run.outcomes.items()
               if o.record is not None}
    attempted = sum(part.attempted for part in checked)
    failed = sum(len(part.errors) for part in checked)
    correct = not errors and not missing and attempted > 0
    return {
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
        "meta": {
            "workload": workload.name,
            "seed": seed,
            "trace": int(trace),
            "cells": len(run.times),
            "passes": run.passes,
            "setup_repeats": len(setup_wall),
            "setup_wall_s": statistics.median(setup_wall or [0.0]),
            "op_tail_pct": times["op_tail_pct"],
            "op_tail_s": times["op_tail_s"],
            "ops_wall_s": run.wall,
            "yardstick_p50_s": statistics.median(run.yardstick or [0.0]),
            "ops_attempted": attempted,
            "ops_failed": failed,
            "errors": errors[:10],
            "accuracy": workload.accuracy(records),
        },
        "cell_best_s": run.best(),
    }


def repo_commit(root: Path) -> str:
    """HEAD's commit id read from ``.git`` (``unknown`` outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info() -> dict:
    return {"host": platform.node(), "machine": platform.machine(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "commit": repo_commit(ROOT), "nproc": os.cpu_count()}


def _arguments(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="fig5-exact, fig6-exact, sampled-1m or "
                             "fuzz-diff")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append this run as one JSON line")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no simulator sources under {ROOT / 'src'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2
    # Import the simulator from this checkout, and keep this directory
    # off the path so trace.py cannot shadow the standard library.
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != HERE]
    from benchmarks.e2e import workloads

    import_s = time.perf_counter() - _STARTED
    if args.workload not in workloads.NAMES:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    try:
        reference = json.loads(REFERENCE.read_text())
    except (OSError, ValueError) as exc:
        print(f"run.py: cannot read the pinned references: {exc}",
              file=sys.stderr)
        return 2
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work))
    try:
        workload = workloads.build(args.workload, scratch, reference)
        outcome = run_workload(workload, args.seed, args.seconds,
                               bool(args.trace))
    except workloads.PinError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass
    meta = {**outcome["meta"], **host_info(), "import_s": import_s}
    result = outcome["result"]
    if args.out is not None:
        with args.out.open("a") as handle:
            handle.write(json.dumps({"meta": meta, "result": result,
                                     "cell_best_s": outcome["cell_best_s"]},
                                    sort_keys=True) + "\n")
    print(json.dumps(meta, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
