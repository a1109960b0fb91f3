"""Command-line interface: ``python -m repro``.

Subcommands
-----------

``list``
    Show the available benchmarks, subsystems, configurations, and
    figures.
``run BENCHMARK``
    Simulate one benchmark under one configuration and print a report.
    A litmus name (``litmus-mp``/``litmus-sb``/``litmus-lb``) runs its
    threads one per core over shared memory and judges the observed
    outcome against the operational-model oracle (nonzero exit on a
    forbidden outcome).
    ``run --riscv FILE`` loads a real RV32 image (``.hex`` text or raw
    little-endian binary) through the RISC-V frontend instead of a
    named benchmark, golden-trace-checked against the interpreter
    oracle, e.g. ``repro run --riscv examples/hazard.hex``.
``compare BENCHMARK``
    Run one benchmark under several configurations side by side.  A
    failed cell's row shows its error; exits nonzero when any cell
    failed.
``figure NAME``
    Regenerate one of the paper's figures/tables.
``suite``
    Run a full (benchmark x configuration) grid through the experiment
    engine and archive the manifest.  A cell that raises, runs past
    ``--timeout`` seconds, or loses its worker is recorded structurally
    (status, error) instead of aborting the sweep; ``--resume``
    restarts an interrupted sweep, restoring completed cells from the
    persistent cache so only missing/failed cells are simulated.
    ``--gc-cache`` sweeps unreadable/foreign-format cache entries
    first.  Exits nonzero when any cell remains failed.  ``--suite
    NAME`` runs a declared suite (e.g. ``riscv-conformance``) instead
    of an explicit benchmark list.
``conformance``
    Put every program of the ``riscv-conformance`` suite through the
    differential fuzzer's check on every configuration of the matrix
    (``--configs`` narrows it).  Exits nonzero on any mismatch.  ``suite
    --suite riscv-conformance --manifest FILE`` archives the same cells'
    RunRecords.
``fuzz``
    Differentially fuzz every memory subsystem against the in-order
    interpreter oracle (``--iterations``/``--seconds`` budgets,
    ``--seed``); failures are minimized and written to ``--corpus DIR``
    as replayable JSON cases.  ``--replay`` re-checks an existing corpus
    instead of fuzzing; a ``--corpus`` that is not a directory, or a
    malformed case in it, exits 2.  Exits 1 on any mismatch.
``litmus``
    Run the litmus suite (MP/SB/LB) on the shared-memory multicore
    machine and check every observed outcome against the
    operational-model oracle.  Exits nonzero on any forbidden outcome.

Every subcommand takes ``--format text|json`` and ``--out FILE``.  JSON
output is the versioned results schema (schema_version |SCHEMA|): ``run``
emits one :class:`~repro.obs.runrecord.RunRecord`; ``list``,
``compare``, ``figure``, and ``suite`` emit an envelope with the same
``schema_version`` field and a ``kind`` discriminator, carrying the
underlying RunRecords where applicable.  ``--out`` writes the document
to a file instead of stdout.

``run``, ``compare``, ``figure``, and ``suite`` share the
experiment-engine flags: ``--jobs N`` (N >= 1) simulates uncached grid
cells on N worker processes (default: all cores), ``--cache-dir``
relocates the persistent result cache (default ``.repro_cache/``), and
``--no-cache`` disables it.  Of the ``run`` modes, only exact and
sampled runs go through the engine and read these flags and
``--scale``.

``run`` can additionally export a sampled pipetrace:
``--epoch-cycles N --trace-out FILE`` writes per-epoch snapshots
(occupancy, stall breakdown, violation/replay rates) as JSON Lines.

``run BENCHMARK --sample-intervals K`` switches to *sampled mode*:
instead of simulating every instruction in detail, the run
fast-forwards through the in-order interpreter (checkpointing as it
goes) and simulates K detailed intervals of ``--warmup-insts`` warm-up
(counters discarded) plus ``--interval-insts`` measured instructions,
reporting the per-interval IPC mean with a 95% confidence interval.
The checkpoint train is one pass to the halt, cached next to the cell
results and shared by every config of the benchmark at that scale.
See DESIGN.md "Sampling methodology" for the error model and when
exact mode is required.

Each ``run`` mode (exact, sampled, litmus, ``--riscv``) reads only
its own mode flags; a flag of another mode exits 2 before anything
simulates.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, List, Optional

from . import api
from .checkpoint import SamplingError
from .core import registry
from .harness.experiment import (DEFAULT_SCALE, ExperimentRunner,
                                 check_jobs, check_scale, check_timeout)
from .isa.interp import ExecutionLimitExceeded
from .obs.runrecord import SCHEMA_VERSION
from .stats.report import format_report
from .verify.corpus import CorpusError
from .verify.fuzzer import check_iterations, check_seconds
from .workloads import (ALL_BENCHMARKS, RISCV_BENCHMARKS,
                        litmus_benchmark_names, suite as workload_suite,
                        suite_names)
from .workloads.litmus import get_litmus, is_litmus


def _checked(convert: Callable, check: Callable) -> Callable:
    """An argparse ``type=`` that reports the engine's ``ValueError``
    for an out-of-range value as a usage error (exit 2)."""
    def parse(text: str):
        try:
            return check(convert(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _at_least(minimum: int) -> Callable[[int], int]:
    """A check for ``_checked`` rejecting values below ``minimum``."""
    def check(value: int) -> int:
        if value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value!r}")
        return value
    return check


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Experiment-engine knobs shared by run/compare/figure/suite."""
    parser.add_argument("--jobs", type=_checked(int, check_jobs),
                        default=None,
                        help="worker processes for uncached grid cells "
                             "(default: all cores; 1 = serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent result-cache directory "
                             "(default .repro_cache/)")
    # None when absent, so ``run`` can tell a given flag from no flag.
    parser.add_argument("--no-cache", action="store_true", default=None,
                        help="disable the persistent result cache")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    """Structured-output knobs shared by every subcommand."""
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="format",
                        help="output format: human-readable text "
                             "(default) or versioned RunRecord JSON")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the output to FILE instead of stdout")


def _build_runner(args) -> ExperimentRunner:
    return ExperimentRunner(scale=args.scale, jobs=args.jobs,
                            cache_dir=args.cache_dir,
                            use_cache=not args.no_cache)


def _emit(text: str, args) -> None:
    """Print or write one finished document (text or JSON)."""
    if args.out:
        path = Path(args.out)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)


def _envelope(kind: str, **fields) -> str:
    payload = {"schema_version": SCHEMA_VERSION, "kind": kind}
    payload.update(fields)
    return json.dumps(payload, sort_keys=True, indent=2)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Address-Indexed Memory "
                    "Disambiguation and Store-to-Load Forwarding' "
                    "(MICRO 2005)")
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser(
        "list", help="list benchmarks, subsystems, configs, and figures")
    _add_output_flags(list_cmd)

    run = sub.add_parser("run", help="simulate one benchmark")
    run.add_argument("benchmark", nargs="?", default=None,
                     choices=sorted(ALL_BENCHMARKS)
                     + sorted(RISCV_BENCHMARKS)
                     + litmus_benchmark_names())
    run.add_argument("--riscv", default=None, metavar="FILE",
                     help="simulate a real RV32 image (.hex text or raw "
                          "binary) through the RISC-V frontend instead "
                          "of a named benchmark")
    run.add_argument("--config", default="baseline-sfc-mdt",
                     choices=sorted(api.CONFIGS))
    run.add_argument("--scale", type=_checked(int, check_scale),
                     default=None,
                     help="dynamic instruction budget of exact and "
                          "sampled runs (default 20000)")
    run.add_argument("--epoch-cycles",
                     type=_checked(int, _at_least(1)), default=None,
                     metavar="N",
                     help="sample a pipetrace epoch snapshot every N "
                          "cycles (requires --trace-out)")
    run.add_argument("--trace-out", default=None, metavar="FILE",
                     help="write epoch snapshots as JSON Lines to FILE")
    run.add_argument("--sample-intervals",
                     type=_checked(int, _at_least(1)), default=None,
                     metavar="K",
                     help="sampled mode: fast-forward via checkpoints "
                          "and measure K detailed intervals instead of "
                          "simulating every instruction (reports IPC "
                          "mean with a confidence interval)")
    run.add_argument("--warmup-insts",
                     type=_checked(int, _at_least(0)), default=None,
                     metavar="W",
                     help="sampled mode: detailed warm-up instructions "
                          "per interval, counters discarded "
                          "(default 1000)")
    run.add_argument("--interval-insts",
                     type=_checked(int, _at_least(1)), default=None,
                     metavar="L",
                     help="sampled mode: measured instructions per "
                          "interval (default 5000)")
    _add_engine_flags(run)
    _add_output_flags(run)

    compare = sub.add_parser(
        "compare", help="one benchmark under several configurations")
    compare.add_argument("benchmark", choices=sorted(ALL_BENCHMARKS))
    compare.add_argument("--configs", nargs="+",
                         default=["baseline-lsq", "baseline-sfc-mdt"],
                         choices=sorted(api.CONFIGS))
    compare.add_argument("--scale", type=_checked(int, check_scale),
                         default=20_000)
    _add_engine_flags(compare)
    _add_output_flags(compare)

    figure = sub.add_parser("figure",
                            help="regenerate a paper figure/table")
    figure.add_argument("name", choices=sorted(api.FIGURES))
    figure.add_argument("--scale", type=_checked(int, check_scale),
                        default=8_000,
                        help="dynamic instruction budget per run "
                             "(default 8000; the archived results use "
                             "20000)")
    _add_engine_flags(figure)
    _add_output_flags(figure)

    suite = sub.add_parser(
        "suite", help="run a resumable (benchmark x config) grid and "
                      "archive its manifest")
    suite.add_argument("--benchmarks", nargs="+", default=None,
                       choices=sorted(ALL_BENCHMARKS)
                       + sorted(RISCV_BENCHMARKS),
                       help="explicit benchmark list (default: every "
                            "native benchmark; mutually exclusive with "
                            "--suite)")
    suite.add_argument("--suite", default=None, dest="suite_name",
                       choices=suite_names(),
                       help="run a declared suite instead of an "
                            "explicit --benchmarks list")
    suite.add_argument("--configs", nargs="+",
                       default=sorted(api.CONFIGS),
                       choices=sorted(api.CONFIGS))
    suite.add_argument("--scale", type=_checked(int, check_scale),
                       default=20_000,
                       help="dynamic instruction budget per cell "
                            "(default 20000)")
    suite.add_argument("--manifest", default="suite_manifest.json",
                       metavar="FILE",
                       help="manifest archive path (default "
                            "suite_manifest.json); refuses to "
                            "overwrite unless --resume is given")
    suite.add_argument("--resume", action="store_true",
                       help="continue an interrupted sweep: completed "
                            "cells are restored from the result cache "
                            "and only missing/failed cells simulate")
    suite.add_argument("--timeout", type=_checked(float, check_timeout),
                       default=None, metavar="S",
                       help="per-cell wall-clock timeout in seconds, "
                            "enforced in the process that runs the cell "
                            "(default: none)")
    suite.add_argument("--gc-cache", action="store_true",
                       help="drop unreadable/foreign-format cache "
                            "entries and stale temp files first")
    _add_engine_flags(suite)
    _add_output_flags(suite)

    fuzz = sub.add_parser(
        "fuzz", help="differentially fuzz the memory subsystems "
                     "against the interpreter oracle")
    fuzz.add_argument("--iterations",
                      type=_checked(int, check_iterations), default=None,
                      metavar="N",
                      help="number of random programs to check "
                           "(default 100 when --seconds is not given)")
    fuzz.add_argument("--seconds",
                      type=_checked(float, check_seconds), default=None,
                      metavar="S",
                      help="wall-clock budget; stops at whichever of "
                           "--iterations/--seconds is hit first")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="first generator seed; iteration i uses "
                           "seed+i (default 0)")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="write minimized failing cases into DIR "
                           "(also the directory --replay reads)")
    fuzz.add_argument("--configs", nargs="+", default=None,
                      choices=sorted(api.CONFIGS),
                      help="fuzz only these presets instead of the "
                           "subsystem-covering default matrix")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="archive failing programs without "
                           "delta-debugging them first")
    fuzz.add_argument("--replay", action="store_true",
                      help="replay the corpus in --corpus instead of "
                           "generating new programs")
    _add_output_flags(fuzz)

    conformance = sub.add_parser(
        "conformance", help="differentially check the RV32 conformance "
                            "suite on every subsystem configuration")
    conformance.add_argument("--configs", nargs="+", default=None,
                             choices=sorted(api.CONFIGS),
                             help="run only these presets instead of "
                                  "the subsystem-covering default "
                                  "matrix")
    _add_output_flags(conformance)

    litmus = sub.add_parser(
        "litmus", help="run the litmus suite against the "
                       "operational-model oracle")
    litmus.add_argument("--tests", nargs="+", default=None,
                        choices=litmus_benchmark_names(),
                        help="litmus tests to run (default: all)")
    litmus.add_argument("--configs", nargs="+",
                        default=["baseline-sfc-mdt"],
                        choices=sorted(api.CONFIGS),
                        help="core presets to run each test on "
                             "(default baseline-sfc-mdt)")
    _add_output_flags(litmus)
    return parser


def _cmd_list(args) -> int:
    if args.format == "json":
        _emit(_envelope("list",
                        benchmarks=list(ALL_BENCHMARKS),
                        riscv_benchmarks=sorted(RISCV_BENCHMARKS),
                        litmus_tests=litmus_benchmark_names(),
                        subsystems=sorted(registry.SUBSYSTEMS),
                        frontends=api.list_frontends(),
                        suites=suite_names(),
                        configurations=sorted(api.CONFIGS),
                        figures=sorted(api.FIGURES)), args)
        return 0
    lines = ["benchmarks:"]
    lines += [f"  {name}" for name in ALL_BENCHMARKS]
    lines.append("\nriscv benchmarks:")
    lines += [f"  {name}" for name in sorted(RISCV_BENCHMARKS)]
    lines.append("\nlitmus tests:")
    lines += [f"  {name}" for name in litmus_benchmark_names()]
    lines.append("\nsubsystems:")
    lines += [f"  {name}" for name in sorted(registry.SUBSYSTEMS)]
    lines.append("\nfrontends:")
    lines += [f"  {name}" for name in api.list_frontends()]
    lines.append("\nsuites:")
    lines += [f"  {name}" for name in suite_names()]
    lines.append("\nconfigurations:")
    lines += [f"  {name}" for name in sorted(api.CONFIGS)]
    lines.append("\nfigures:")
    lines += [f"  {name}" for name in sorted(api.FIGURES)]
    _emit("\n".join(lines), args)
    return 0


def _cmd_run_exact(args) -> int:
    """``run BENCHMARK``: one single-core cell, every instruction in
    detail, with an optional epoch pipetrace."""
    record = api.simulate(args.benchmark, args.config,
                          runner=_build_runner(args))
    if args.trace_out:
        tracer = api.trace(args.benchmark, args.config, scale=args.scale,
                           ring_size=1024,
                           epoch_cycles=args.epoch_cycles)
        tracer.write_epochs(args.trace_out)
        print(f"wrote {len(tracer.epochs)} epoch snapshots to "
              f"{args.trace_out}", file=sys.stderr)
    if args.format == "json":
        _emit(record.to_json(indent=2), args)
    else:
        _emit(format_report(record), args)
    return 0


def _cmd_run_riscv(args) -> int:
    """``run --riscv FILE``: a real RV32 image through the frontend."""
    if args.benchmark is not None:
        print("error: --riscv FILE replaces the benchmark name; give "
              "one or the other", file=sys.stderr)
        return 2
    try:
        record = api.simulate_riscv(args.riscv, args.config)
    except (FileNotFoundError, ValueError,
            ExecutionLimitExceeded) as exc:
        # DecodeError subclasses ValueError: bad images, and images that
        # never halt, exit with a message, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        _emit(record.to_json(indent=2), args)
    else:
        _emit(format_report(record), args)
    return 0


def _cmd_run_sampled(args) -> int:
    """``run BENCHMARK --sample-intervals K``: checkpointed
    fast-forward with K detailed measurement intervals."""
    try:
        record = api.simulate_sampled(
            args.benchmark, args.config, intervals=args.sample_intervals,
            warmup_insts=1_000 if args.warmup_insts is None
            else args.warmup_insts,
            interval_insts=5_000 if args.interval_insts is None
            else args.interval_insts,
            runner=_build_runner(args))
    except SamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        _emit(record.to_json(indent=2), args)
        return 0
    info = record.sampling or {}
    lines = [
        f"{args.benchmark} on {record.config_name} "
        f"(scale {args.scale}, sampled)",
        f"  IPC: {record.ipc:.4f} +/- {info.get('ipc_ci95', 0.0):.4f} "
        f"(95% CI over {len(info.get('intervals', []))} intervals)",
        f"  program: {info.get('total_instructions', 0)} insts; "
        f"detailed: {info.get('detailed_instructions', 0)} "
        f"({info.get('warmup_insts', 0)} warm-up + "
        f"{info.get('interval_insts', 0)} measured per interval)",
        f"  measured spans: {record.instructions} insts in "
        f"{record.cycles} cycles",
    ]
    _emit("\n".join(lines), args)
    return 0


def _cmd_run_litmus(args) -> int:
    """``run litmus-*``: one litmus test end-to-end, one core per
    thread, with the oracle's verdict on the observed outcome."""
    from .obs.runrecord import RunRecord
    from .verify import run_litmus_test

    test = get_litmus(args.benchmark)
    result = run_litmus_test(test, api.resolve_config(args.config))
    record = RunRecord.from_system_result(result.system_result,
                                          benchmark=args.benchmark)
    if args.format == "json":
        _emit(_envelope("litmus-run", litmus=result.to_dict(),
                        run=record.to_dict()), args)
    else:
        verdict = "allowed" if result.allowed else "FORBIDDEN"
        sysres = result.system_result
        lines = [
            f"{args.benchmark} on {result.config_name} "
            f"({test.cores} cores, shared memory)",
            f"  {test.description}",
            f"  outcome: {result.outcome} -- {verdict}",
            f"  model allows: {sorted(result.allowed_outcomes)}",
            f"  cycles: {sysres.cycles}, instructions: "
            f"{sysres.instructions}, aggregate IPC: {sysres.ipc:.3f}",
        ]
        _emit("\n".join(lines), args)
    return 0 if result.allowed else 1


#: The experiment-engine flags, read by the modes that simulate through
#: an :class:`ExperimentRunner`.
_ENGINE_FLAGS = ("scale", "jobs", "cache_dir", "no_cache")

#: The modes of ``run``: name -> (description, the mode flags it reads,
#: handler).  A mode flag its mode does not read exits 2 before
#: anything simulates.
_RUN_MODES = {
    "exact": ("exact mode (single-core only)",
              ("epoch_cycles", "trace_out") + _ENGINE_FLAGS,
              _cmd_run_exact),
    "sampled": ("sampled mode (single-core only)",
                ("sample_intervals", "warmup_insts", "interval_insts")
                + _ENGINE_FLAGS,
                _cmd_run_sampled),
    "litmus": ("litmus mode", (), _cmd_run_litmus),
    "riscv": ("--riscv mode", (), _cmd_run_riscv),
}


def _mode_flag_error(args, mode: str) -> Optional[str]:
    """Why the mode flags given do not fit ``mode``, or None."""
    label, reads, _ = _RUN_MODES[mode]
    for _label, flags, _handler in _RUN_MODES.values():
        for dest in flags:
            if dest in reads or getattr(args, dest) is None:
                continue
            owners = " or ".join(owner for owner, owner_flags, _
                                 in _RUN_MODES.values()
                                 if dest in owner_flags)
            return (f"--{dest.replace('_', '-')} is read only in "
                    f"{owners}, not in {label}")
    if (args.epoch_cycles is None) != (args.trace_out is None):
        return "--epoch-cycles and --trace-out must be given together"
    return None


def _cmd_run(args) -> int:
    if args.riscv is not None:
        mode = "riscv"
    elif args.benchmark is None:
        print("error: give a benchmark name or --riscv FILE",
              file=sys.stderr)
        return 2
    elif is_litmus(args.benchmark):
        mode = "litmus"
    elif args.sample_intervals is not None:
        mode = "sampled"
    else:
        mode = "exact"
    error = _mode_flag_error(args, mode)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if "scale" in _RUN_MODES[mode][1] and args.scale is None:
        args.scale = DEFAULT_SCALE
    return _RUN_MODES[mode][2](args)


def _cmd_litmus(args) -> int:
    report = api.run_litmus(tests=args.tests, configs=args.configs)
    if args.format == "json":
        _emit(json.dumps(report.to_dict(), sort_keys=True, indent=2),
              args)
    else:
        _emit(report.format(), args)
    return 0 if report.ok else 1


def _cmd_compare(args) -> int:
    records = api.compare(args.benchmark, args.configs,
                          runner=_build_runner(args))
    failed = any(not record.ok for record in records)
    if args.format == "json":
        _emit(_envelope("compare", benchmark=args.benchmark,
                        scale=args.scale,
                        runs=[record.to_dict() for record in records]),
              args)
        return 1 if failed else 0
    width = max(len(name) for name in args.configs)
    lines = [f"{args.benchmark} (scale {args.scale})",
             f"{'configuration':<{width}}  {'IPC':>7}  {'cycles':>9}"]
    for name, record in zip(args.configs, records):
        row = f"{record.ipc:>7.3f}  {record.cycles:>9d}" if record.ok \
            else f"{record.status.upper()}: {record.error}"
        lines.append(f"{name:<{width}}  {row}")
    _emit("\n".join(lines), args)
    return 1 if failed else 0


def _cmd_figure(args) -> int:
    runner = _build_runner(args)
    figure = api.run_figure(args.name, scale=args.scale, runner=runner)
    if args.format == "json":
        _emit(_envelope("figure", name=args.name, title=figure.title,
                        scale=args.scale, series=figure.series_names,
                        rows=[{"benchmark": benchmark, "values": values}
                              for benchmark, values in figure.rows],
                        averages=[{"label": label, "values": values}
                                  for label, values in figure.averages()],
                        runs=list(runner.manifest)), args)
        return 0
    _emit(figure.format(), args)
    return 0


def _cmd_suite(args) -> int:
    if args.suite_name and args.benchmarks:
        print("error: --suite and --benchmarks are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.suite_name:
        benchmarks = workload_suite(args.suite_name)
    else:
        benchmarks = args.benchmarks or sorted(ALL_BENCHMARKS)
    manifest_path = Path(args.manifest)
    if manifest_path.exists() and not args.resume:
        print(f"error: manifest {manifest_path} already exists; pass "
              f"--resume to continue the sweep (completed cells are "
              f"restored from the result cache) or pick another "
              f"--manifest path", file=sys.stderr)
        return 2
    if args.no_cache and (args.resume or args.gc_cache):
        flag = "--resume" if args.resume else "--gc-cache"
        print(f"error: {flag} needs the persistent result cache "
              f"(drop --no-cache)", file=sys.stderr)
        return 2
    runner = ExperimentRunner(scale=args.scale, jobs=args.jobs,
                              cache_dir=args.cache_dir,
                              use_cache=not args.no_cache,
                              cell_timeout=args.timeout)
    if args.gc_cache:
        removed = runner.cache.gc()
        print(f"cache gc: removed {removed} unreadable/stale files",
              file=sys.stderr)
    configs = [api.CONFIGS[name]() for name in args.configs]
    runner.run_suite(benchmarks, configs)
    runner.write_manifest(manifest_path)
    failed = [entry for entry in runner.manifest
              if entry["status"] != "ok"]
    if args.format == "json":
        _emit(_envelope("suite", scale=args.scale,
                        suite=args.suite_name,
                        benchmarks=list(benchmarks),
                        configs=list(args.configs),
                        resumed=bool(args.resume),
                        cells=len(runner.manifest),
                        cache_hits=runner.cache_hits,
                        simulated=runner.cache_misses,
                        failures=len(failed),
                        manifest=str(manifest_path),
                        runs=list(runner.manifest)), args)
    else:
        lines = [f"suite: {len(benchmarks)} benchmarks x "
                 f"{len(configs)} configs = {len(runner.manifest)} "
                 f"cells (scale {args.scale})",
                 f"  ok: {len(runner.manifest) - len(failed)} "
                 f"({runner.cache_hits} from cache, "
                 f"{runner.cache_misses} simulated)",
                 f"  failed: {len(failed)}"]
        for entry in failed:
            lines.append(f"    {entry['benchmark']}/"
                         f"{entry['config_name']}: {entry['status']}: "
                         f"{entry['error']}")
        lines.append(f"manifest: {manifest_path}")
        _emit("\n".join(lines), args)
    return 1 if failed else 0


def _emit_replay(kind: str, report, args) -> int:
    """Print a :class:`~repro.verify.corpus.ReplayReport`; exit 1 on a
    mismatch."""
    if args.format == "json":
        _emit(_envelope(kind, **report.to_dict()), args)
    else:
        _emit(report.format(), args)
    return 0 if report.ok else 1


def _cmd_conformance(args) -> int:
    return _emit_replay("conformance",
                        api.run_riscv_conformance(configs=args.configs),
                        args)


def _cmd_fuzz(args) -> int:
    if args.replay:
        if not args.corpus:
            print("--replay requires --corpus DIR", file=sys.stderr)
            return 2
        if not Path(args.corpus).is_dir():
            print(f"error: --corpus {args.corpus} is not a directory",
                  file=sys.stderr)
            return 2
        try:
            report = api.replay_corpus(args.corpus)
        except CorpusError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return _emit_replay("fuzz-replay", report, args)
    report = api.fuzz(iterations=args.iterations, seconds=args.seconds,
                      seed=args.seed, configs=args.configs,
                      corpus_dir=args.corpus,
                      minimize=not args.no_minimize)
    if args.format == "json":
        _emit(json.dumps(report.to_dict(), sort_keys=True, indent=2),
              args)
    else:
        _emit(report.format(), args)
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "suite":
            return _cmd_suite(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "conformance":
            return _cmd_conformance(args)
        if args.command == "litmus":
            return _cmd_litmus(args)
    except OSError as exc:
        # Malformed --out / --corpus / --trace-out paths and the like
        # should exit with a message, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
