"""Stable, versioned public API: ``repro.api``.

The supported programmatic surface of the reproduction.  Everything here
returns structured, schema-versioned results
(:class:`~repro.obs.runrecord.RunRecord`) instead of simulator-internal
objects, so callers no longer import from ``repro.pipeline.processor``
or ``repro.harness`` internals:

* :func:`simulate` -- one (benchmark, configuration) cell -> RunRecord;
* :func:`simulate_sampled` -- the same cell under checkpointed
  fast-forward + interval sampling -> RunRecord with a ``sampling``
  block (IPC mean, confidence interval, interval table);
* :func:`run_litmus` -- a litmus campaign over the shared-memory
  machine, every observed outcome judged by the operational-model
  oracle (:class:`~repro.verify.litmus_oracle.LitmusReport`);
* :func:`compare` -- one benchmark under several configurations ->
  one RunRecord per configuration, failed cells included;
* :func:`run_suite` -- a resumable (benchmark x configuration) grid
  -> RunRecords, including structured failure entries for cells that
  raised, timed out, or lost their worker;
* :func:`run_figure` -- regenerate one of the paper's figures/tables;
* :func:`trace` -- a sampled pipetrace run (ring buffer + epoch
  snapshots) for time-series analysis;
* :func:`fuzz` -- a differential fuzz campaign cross-checking every
  memory subsystem against the interpreter oracle
  (:class:`~repro.verify.fuzzer.FuzzReport`); seeds round-robin across
  the program frontends (native generator, RV32);
* :func:`simulate_riscv` -- load a real RV32 image (``.hex`` text, raw
  binary, or word list) through the :mod:`repro.isa.riscv` frontend and
  simulate it golden-trace-checked against the interpreter oracle;
* :func:`run_riscv_conformance` / :func:`replay_corpus` -- put the
  committed RV32 programs, or a crash corpus, through the fuzzer's
  differential check on every configuration of the matrix
  (:class:`~repro.verify.corpus.ReplayReport`);
* :func:`list_benchmarks` / :func:`list_configs` / :func:`list_figures`
  / :func:`list_suites` / :func:`list_frontends` -- the name spaces the
  other calls accept.

Example::

    from repro import api

    record = api.simulate("gzip", "baseline-sfc-mdt", scale=5000)
    print(record.ipc, record.metric("sfc_forwards"))
    print(record.to_json(indent=2))   # schema_version included
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from .harness import configs as config_presets
from .harness import experiment, figures
from .harness.experiment import DEFAULT_SCALE, ExperimentRunner
from .isa.interp import run_program
from .obs.runrecord import RunRecord
from .pipeline.config import ProcessorConfig
from .pipeline.pipetrace import PipeTracer, trace_run
from .pipeline.processor import Processor
from .workloads import ALL_BENCHMARKS, litmus_benchmark_names, suites

#: Named configuration presets (the CLI exposes exactly these).
CONFIGS: Dict[str, Callable[[], ProcessorConfig]] = {
    "baseline-lsq": config_presets.baseline_lsq_config,
    "baseline-sfc-mdt": config_presets.baseline_sfc_mdt_config,
    "aggressive-lsq": config_presets.aggressive_lsq_config,
    "aggressive-sfc-mdt": config_presets.aggressive_sfc_mdt_config,
    "aggressive-load-replay": config_presets.aggressive_load_replay_config,
}

#: Figure/table generators (the CLI exposes exactly these).
FIGURES: Dict[str, Callable[..., "figures.FigureResult"]] = {
    "fig5": figures.figure5,
    "fig6": figures.figure6,
    "enf-ablation": figures.enf_ablation,
    "associativity": figures.associativity_sweep,
    "corruption": figures.corruption_rates,
    "granularity": figures.granularity_sweep,
    "power": figures.power_comparison,
    "window-scaling": figures.window_scaling,
    "recovery": figures.recovery_policies,
}

ConfigLike = Union[str, ProcessorConfig]


def resolve_config(config: ConfigLike) -> ProcessorConfig:
    """A :class:`ProcessorConfig` from a preset name or a ready config."""
    if isinstance(config, ProcessorConfig):
        return config
    try:
        return CONFIGS[config]()
    except KeyError:
        raise KeyError(
            f"unknown configuration {config!r}; available presets: "
            f"{', '.join(sorted(CONFIGS))}") from None


def list_benchmarks() -> List[str]:
    """Names accepted by :func:`simulate`/:func:`compare`/:func:`trace`."""
    return sorted(ALL_BENCHMARKS)


def list_litmus_tests() -> List[str]:
    """Litmus-test names accepted by :func:`run_litmus` (and by
    ``repro run`` and ``repro litmus``)."""
    return litmus_benchmark_names()


def list_configs() -> List[str]:
    """Named configuration presets."""
    return sorted(CONFIGS)


def list_suites() -> List[str]:
    """Declared benchmark suites (``repro suite --suite NAME``)."""
    return suites.suite_names()


def list_frontends() -> List[str]:
    """Program frontends (every one fuzzed by default)."""
    from .verify.fuzzer import FRONTENDS

    return [name for name, _ in FRONTENDS]


def list_figures() -> List[str]:
    """Figure/table generators accepted by :func:`run_figure`."""
    return sorted(FIGURES)


def _runner(scale: Optional[int], runner: Optional[ExperimentRunner],
            default_scale: int = DEFAULT_SCALE,
            **runner_kwargs) -> ExperimentRunner:
    """``runner``, which then takes no engine kwargs and no other scale,
    else a fresh engine at ``scale`` (``default_scale`` when None)."""
    if runner is None:
        return ExperimentRunner(
            scale=default_scale if scale is None else scale,
            **runner_kwargs)
    if runner_kwargs:
        raise ValueError(
            f"runner= is given, so {', '.join(sorted(runner_kwargs))} "
            f"cannot configure it; set them on the runner")
    if scale is not None and scale != runner.scale:
        raise ValueError(
            f"scale={scale} does not match the runner's scale "
            f"{runner.scale}")
    return runner


def simulate(benchmark: str, config: ConfigLike = "baseline-sfc-mdt",
             scale: Optional[int] = None,
             runner: Optional[ExperimentRunner] = None,
             **runner_kwargs) -> RunRecord:
    """Simulate one benchmark under one configuration.

    Returns the versioned :class:`RunRecord` of the cell (also appended
    to the runner's manifest).  ``runner_kwargs`` (``jobs``,
    ``cache_dir``, ``use_cache``, ``cell_timeout``) configure a fresh
    :class:`ExperimentRunner` at ``scale`` (``DEFAULT_SCALE`` when None)
    when none is supplied.  A supplied ``runner`` brings its own scale
    and settings: ``runner_kwargs``, or a ``scale`` other than the
    runner's, raise ``ValueError``, here and in every call below that
    takes a runner.
    """
    engine = _runner(scale, runner, **runner_kwargs)
    engine.run(benchmark, resolve_config(config))
    return engine.last_record()


def simulate_sampled(benchmark: str,
                     config: ConfigLike = "baseline-sfc-mdt",
                     scale: Optional[int] = None, intervals: int = 10,
                     warmup_insts: int = 1_000,
                     interval_insts: int = 5_000,
                     runner: Optional[ExperimentRunner] = None,
                     **runner_kwargs) -> RunRecord:
    """Sampled simulation of one cell: checkpointed fast-forward with
    ``intervals`` detailed windows of ``warmup_insts + interval_insts``
    instructions each (warm-up counters discarded).

    The record's ``ipc`` is the per-interval mean; ``record.sampling``
    carries ``ipc_ci95`` (confidence half-width), the interval table,
    and the fast-forward/detailed instruction split.  The checkpoint
    train is one fast-forward pass to the halt, shared by the configs
    of one benchmark at one scale (not across scales, since each scale
    builds a different program).  See DESIGN.md "Sampling methodology"
    for the error model and when exact mode is required instead.
    """
    engine = _runner(scale, runner, **runner_kwargs)
    return engine.run_sampled(
        benchmark, resolve_config(config), intervals=intervals,
        warmup_insts=warmup_insts, interval_insts=interval_insts)


def run_litmus(tests: Optional[Sequence[str]] = None,
               configs: Optional[Sequence[ConfigLike]] = None):
    """Run a litmus campaign on the shared-memory machine; returns a
    :class:`~repro.verify.litmus_oracle.LitmusReport` whose ``.ok`` is
    True iff the operational-model oracle accepts every observed
    outcome.

    ``tests=None`` runs the full shipped suite (MP, SB, LB);
    ``configs=None`` uses the baseline SFC/MDT core.  Config names are
    resolved through :func:`resolve_config` (they name the *core*; each
    test supplies its own core count)."""
    from .verify import run_litmus_suite

    resolved = None
    if configs is not None:
        resolved = [resolve_config(config) for config in configs]
    return run_litmus_suite(tests=tests, core_configs=resolved)


def compare(benchmark: str,
            configs: Sequence[ConfigLike] = ("baseline-lsq",
                                             "baseline-sfc-mdt"),
            scale: Optional[int] = None,
            runner: Optional[ExperimentRunner] = None,
            **runner_kwargs) -> List[RunRecord]:
    """One benchmark under several configurations (grid-parallel and
    cache-aware through the experiment engine): one RunRecord per
    requested configuration, in request order, including structured
    failure entries (``status`` failed/timeout, ``error``) for cells
    that failed."""
    engine = _runner(scale, runner, **runner_kwargs)
    resolved = [resolve_config(config) for config in configs]
    start = len(engine.manifest)
    engine.run_suite([benchmark], resolved)
    by_name = {entry["config_name"]: entry
               for entry in engine.manifest[start:]}
    return [RunRecord.from_dict(by_name[config.name])
            for config in resolved]


def run_suite(benchmarks: Optional[Sequence[str]] = None,
              configs: Optional[Sequence[ConfigLike]] = None,
              scale: Optional[int] = None,
              runner: Optional[ExperimentRunner] = None,
              **runner_kwargs) -> List[RunRecord]:
    """Run a resumable (benchmark x configuration) grid.

    Returns one :class:`RunRecord` per grid cell *including* structured
    failure entries (``status`` failed/timeout, ``error``) for cells
    that raised, ran past the engine's ``cell_timeout`` seconds, or lost
    their worker -- one bad cell never discards the rest of the grid.
    Completed cells are cached as they finish, so calling again with
    the same runner settings resumes an interrupted sweep (only
    missing/failed cells are re-simulated).

    ``benchmarks`` defaults to every benchmark and ``configs`` to every
    named preset.  ``jobs`` and ``cell_timeout`` are engine settings
    like any other: ``runner_kwargs`` of a fresh engine, or the
    supplied ``runner``'s own.
    """
    engine = _runner(scale, runner, **runner_kwargs)
    names = list(benchmarks) if benchmarks else list_benchmarks()
    resolved = [resolve_config(config)
                for config in (configs if configs is not None
                               else list_configs())]
    start = len(engine.manifest)
    engine.run_suite(names, resolved)
    return [RunRecord.from_dict(entry)
            for entry in engine.manifest[start:]]


def run_figure(name: str, scale: Optional[int] = None,
               runner: Optional[ExperimentRunner] = None,
               **runner_kwargs) -> "figures.FigureResult":
    """Regenerate one of the paper's figures/tables, at scale 8 000 when
    neither ``scale`` nor ``runner`` sets one.  The generator runs on
    that engine and at its scale."""
    try:
        generator = FIGURES[name]
    except KeyError:
        raise KeyError(
            f"unknown figure {name!r}; available: "
            f"{', '.join(sorted(FIGURES))}") from None
    engine = _runner(scale, runner, 8_000, **runner_kwargs)
    return generator(engine)


def fuzz(iterations: Optional[int] = None,
         seconds: Optional[float] = None, seed: int = 0,
         configs: Optional[Sequence[ConfigLike]] = None,
         corpus_dir: Optional[str] = None, minimize: bool = True):
    """Run a differential fuzz campaign; returns a
    :class:`~repro.verify.fuzzer.FuzzReport`.

    With neither ``iterations`` nor ``seconds`` the campaign runs 100
    programs.  ``configs=None`` uses the subsystem-covering default
    matrix (:func:`repro.harness.configs.fuzz_config_matrix`); names are
    resolved through :func:`resolve_config`.  When ``corpus_dir`` is
    given, each failure is minimized (unless ``minimize=False``) and
    written there as a replayable JSON crash case.
    """
    from .verify import DifferentialFuzzer

    resolved = None
    if configs is not None:
        resolved = [resolve_config(config) for config in configs]
    fuzzer = DifferentialFuzzer(configs=resolved)
    return fuzzer.run(iterations=iterations, seconds=seconds, seed=seed,
                      corpus_dir=corpus_dir, minimize=minimize)


def simulate_riscv(source, config: ConfigLike = "baseline-sfc-mdt",
                   name: Optional[str] = None,
                   max_instructions: int = 2_000_000) -> RunRecord:
    """Simulate one real RV32 program end to end.

    ``source`` is anything the frontend loads: a ``.hex``/``.txt`` text
    file, a ``.bin`` file or raw bytes holding a little-endian binary
    image, or a list of 32-bit words.  The program runs on the in-order
    interpreter first (the architectural oracle), then on the pipeline
    with golden-trace validation against that trace -- a divergence
    raises
    :class:`~repro.pipeline.processor.SimulationError` rather than
    returning a record, and a program that does not halt within
    ``max_instructions`` raises
    :class:`~repro.isa.interp.ExecutionLimitExceeded`.
    """
    from .isa.interp import Interpreter
    from .isa.program import Program

    program = Program.from_riscv(source, name=name)
    resolved = resolve_config(config)
    trace = Interpreter(program).run(max_instructions)
    return RunRecord.from_sim_result(
        Processor(program, resolved, trace=trace).run())


def run_riscv_conformance(configs: Optional[Sequence[ConfigLike]] = None):
    """Differentially check every program of the ``riscv-conformance``
    suite; returns a :class:`~repro.verify.corpus.ReplayReport` whose
    ``.ok`` is True iff no program shows a mismatch on any
    configuration.

    ``configs=None`` uses the differential matrix, which covers every
    memory subsystem; names are resolved through
    :func:`resolve_config`.
    """
    from .verify import run_conformance

    resolved = None
    if configs is not None:
        resolved = [resolve_config(config) for config in configs]
    return run_conformance(configs=resolved)


def replay_corpus(corpus_dir: str):
    """Replay every committed corpus case under ``corpus_dir``; returns
    a :class:`~repro.verify.corpus.ReplayReport` (``.ok`` iff every
    case passes the full differential check)."""
    from .verify import replay_corpus as _replay

    return _replay(corpus_dir)


def trace(benchmark: str, config: ConfigLike = "baseline-sfc-mdt",
          scale: int = 2_000, ring_size: Optional[int] = None,
          epoch_cycles: Optional[int] = None,
          max_instructions: int = 100_000) -> PipeTracer:
    """Run one benchmark under a sampled pipetrace.

    Builds the workload, attaches a :class:`PipeTracer` (optionally with
    a bounded ring buffer and per-``epoch_cycles`` snapshots), runs to
    completion, and returns the tracer.  ``tracer.epochs_jsonl()`` /
    ``tracer.write_epochs(path)`` export the epoch time series.  The
    golden trace gets the experiment engine's instruction budget
    (``TRACE_LIMIT``), so any workload :func:`simulate` runs traces too.
    """
    program = suites.build(benchmark, scale)
    trace = run_program(program, experiment.TRACE_LIMIT)
    processor = Processor(program, resolve_config(config), trace=trace)
    return trace_run(processor, max_instructions=max_instructions,
                     ring_size=ring_size, epoch_cycles=epoch_cycles)


__all__ = [
    "CONFIGS",
    "FIGURES",
    "compare",
    "fuzz",
    "list_benchmarks",
    "list_configs",
    "list_figures",
    "list_frontends",
    "list_litmus_tests",
    "list_suites",
    "replay_corpus",
    "resolve_config",
    "run_figure",
    "run_litmus",
    "run_riscv_conformance",
    "run_suite",
    "simulate",
    "simulate_riscv",
    "simulate_sampled",
    "trace",
]
