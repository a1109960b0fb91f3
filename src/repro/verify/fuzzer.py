"""Differential fuzzer: cross-check every memory subsystem on random
programs against the in-order interpreter oracle.

The paper's correctness claim is differential at its core: the
address-indexed SFC/MDT/store-FIFO pipeline must retire *exactly* the
architectural trace that the associative-LSQ baseline and the in-order
interpreter produce, for any program.  The fuzzer industrialises that
claim: each iteration generates one adversarial program
(:class:`~repro.workloads.randprog.FuzzProgramBuilder`), executes it on
the interpreter to obtain the golden trace and final memory image, then
runs it under every configuration of the differential matrix and checks

* **trace equivalence** -- the pipeline's built-in golden-trace
  validation (a divergence raises ``SimulationError``);
* **final memory image** -- the architectural memory after the run must
  hash identically to the interpreter's;
* **final register file** -- the committed architectural registers must
  equal the interpreter's, so a recovery fault that leaves a wrong
  mapping behind is caught even when every retired value was right;
* **retire counts** -- every configuration retires exactly the trace's
  instruction/load/store counts;
* **determinism** -- re-running a configuration reproduces cycles and
  every counter bit-exactly;
* **metamorphic counter invariants** -- e.g. the non-enforcing
  (``NOT_ENF``) design must detect at least as many true-dependence
  violations as the enforcing design whose predictor stalls the
  offending loads, and no run may flush more violations than it
  detects.

Seeds round-robin over :data:`FRONTENDS`, the program sources: the
native generator and the RV32 generator, whose machine words go through
the RISC-V decoder and translator.

:meth:`DifferentialFuzzer.check_program` is the one differential check:
the campaign, corpus replay, the RV32 conformance suite and the
shrinker all judge a program through it.  A failing iteration is
reduced by :mod:`repro.verify.shrink` to a minimal instruction sequence
and written into a ``corpus/`` directory as a replayable JSON case
(:mod:`repro.verify.corpus`).
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core import registry
from ..harness.configs import fuzz_config_matrix
from ..isa.instructions import LOAD_OPS
from ..isa.interp import ExecutionLimitExceeded, Interpreter
from ..isa.program import Program
from ..obs.runrecord import KIND_FUZZ, SCHEMA_VERSION
from ..pipeline.config import ProcessorConfig
from ..pipeline.processor import Processor, SimulationError
from ..workloads.randprog import fuzz_program
from ..workloads.riscv_randprog import riscv_fuzz_program

#: Architectural execution budget per checked program.
TRACE_LIMIT = 500_000

#: The program frontends, each with its seed->program fuzz builder.
#: Seed ``s`` is built by ``FRONTENDS[s % len(FRONTENDS)]``.
FRONTENDS: Tuple[Tuple[str, Callable[[int], Program]], ...] = (
    ("native", fuzz_program),
    ("riscv", riscv_fuzz_program),
)

#: Counters whose values must be identical across every configuration
#: (they count architectural events, not microarchitectural ones).
_ARCHITECTURAL_COUNTERS = ("retired_loads", "retired_stores")


def check_iterations(iterations: Optional[int]) -> Optional[int]:
    """``iterations`` if it is None (no program budget) or an integer
    >= 1, else ``ValueError``."""
    if iterations is not None and not (isinstance(iterations, int)
                                       and iterations >= 1):
        raise ValueError(f"iterations must be an integer >= 1, "
                         f"got {iterations!r}")
    return iterations


def check_seconds(seconds: Optional[float]) -> Optional[float]:
    """``seconds`` if it is None (no time budget) or a finite number of
    seconds > 0, else ``ValueError``."""
    if seconds is not None and not (math.isfinite(seconds)
                                    and seconds > 0):
        raise ValueError(f"seconds must be a finite number > 0, "
                         f"got {seconds!r}")
    return seconds


class FuzzMismatch:
    """One divergence found by the fuzzer.

    ``kind`` is a short machine-readable discriminator
    (``trace-divergence``, ``memory-image``, ``register-file``,
    ``retire-count``, ``nondeterminism``, ``oracle-error``,
    ``invariant:<name>``);
    ``config_name`` is the configuration that failed (empty for
    cross-configuration invariants); ``detail`` is human-readable.
    """

    __slots__ = ("seed", "kind", "config_name", "detail")

    def __init__(self, seed: int, kind: str, config_name: str,
                 detail: str):
        self.seed = seed
        self.kind = kind
        self.config_name = config_name
        self.detail = detail

    def to_dict(self) -> dict:
        return {"seed": self.seed, "kind": self.kind,
                "config_name": self.config_name, "detail": self.detail}

    def __repr__(self) -> str:
        return (f"FuzzMismatch(seed={self.seed}, kind={self.kind!r}, "
                f"config={self.config_name!r}: {self.detail})")


class FuzzReport:
    """Outcome of one fuzz campaign (schema-versioned summary record)."""

    def __init__(self, seed: int, config_names: List[str]):
        self.seed = seed
        self.config_names = config_names
        self.iterations = 0
        self.instructions = 0
        self.elapsed = 0.0
        self.failures: List[FuzzMismatch] = []
        self.corpus_paths: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": KIND_FUZZ,
            "seed": self.seed,
            "configurations": list(self.config_names),
            "iterations": self.iterations,
            "instructions": self.instructions,
            "elapsed": self.elapsed,
            "ok": self.ok,
            "failures": [f.to_dict() for f in self.failures],
            "corpus_cases": list(self.corpus_paths),
        }

    def format(self) -> str:
        lines = [
            f"differential fuzz: {self.iterations} programs "
            f"({self.instructions} retired instructions) x "
            f"{len(self.config_names)} configurations "
            f"in {self.elapsed:.1f}s",
            "configurations: " + ", ".join(self.config_names),
        ]
        if self.ok:
            lines.append("no mismatches")
        else:
            lines.append(f"{len(self.failures)} MISMATCH(ES):")
            for failure in self.failures:
                lines.append(f"  seed {failure.seed} "
                             f"[{failure.kind}] {failure.config_name}: "
                             f"{failure.detail}")
            for path in self.corpus_paths:
                lines.append(f"  minimized case written: {path}")
        return "\n".join(lines)


def _counters_subset(result) -> Dict[str, float]:
    """Copy of a SimResult's counters for bit-exact comparison."""
    return dict(result.counters.as_dict())


def _build_program(seed: int) -> Program:
    """The fuzz program of ``seed``, from its frontend in
    :data:`FRONTENDS`."""
    return FRONTENDS[seed % len(FRONTENDS)][1](seed)


class DifferentialFuzzer:
    """Drives fuzz campaigns over a configuration matrix."""

    def __init__(self, configs: Optional[Sequence[ProcessorConfig]] = None,
                 max_instructions: int = TRACE_LIMIT):
        if configs is None:
            configs = fuzz_config_matrix()
            # The default matrix must exercise every subsystem; an
            # explicit config list is the caller's choice.
            uncovered = set(registry.SUBSYSTEMS) - {
                config.subsystem for config in configs}
            if uncovered:
                raise ValueError(
                    f"fuzz matrix covers no configuration for registered "
                    f"subsystem(s) {', '.join(sorted(uncovered))}; extend "
                    f"repro.harness.configs.fuzz_config_matrix or pass "
                    f"an explicit config list")
        names = [config.name for config in configs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate configuration names: {names}")
        self.configs = list(configs)
        self.builder = _build_program
        self.max_instructions = max_instructions

    # ------------------------------------------------------------ one seed

    def check_program(self, program: Program,
                      seed: int = -1) -> List[FuzzMismatch]:
        """Run one program through the full differential check."""
        return self._check(program, seed)[0]

    def _check(self, program: Program,
               seed: int) -> Tuple[List[FuzzMismatch], int]:
        """:meth:`check_program`'s mismatches and the length of the
        oracle's trace (0 when the oracle does not halt)."""
        mismatches: List[FuzzMismatch] = []
        try:
            interp = Interpreter(program)
            trace = interp.run(self.max_instructions)
        except ExecutionLimitExceeded as exc:
            return [FuzzMismatch(seed, "oracle-error", "",
                                 f"interpreter did not halt: {exc}")], 0
        oracle_digest = interp.memory.digest()
        oracle_regs = interp.regs
        oracle_loads = sum(1 for r in trace if r.op in LOAD_OPS)
        oracle_stores = sum(1 for r in trace if r.store_addr is not None)

        results = {}
        for config in self.configs:
            try:
                processor = Processor(program, config, trace=trace)
                result = processor.run()
            except SimulationError as exc:
                mismatches.append(FuzzMismatch(
                    seed, "trace-divergence", config.name, str(exc)))
                continue
            if processor.memory.digest() != oracle_digest:
                mismatches.append(FuzzMismatch(
                    seed, "memory-image", config.name,
                    "final architectural memory differs from the "
                    "interpreter oracle"))
            regs = processor.architectural_registers()
            if regs != oracle_regs:
                mismatches.append(FuzzMismatch(
                    seed, "register-file", config.name,
                    "final registers differ from the interpreter "
                    "oracle: " + ", ".join(
                        f"r{index}={got:#x} (oracle {want:#x})"
                        for index, (got, want)
                        in enumerate(zip(regs, oracle_regs))
                        if got != want)))
            if result.instructions != len(trace):
                mismatches.append(FuzzMismatch(
                    seed, "retire-count", config.name,
                    f"retired {result.instructions} instructions, "
                    f"oracle trace has {len(trace)}"))
            counters = _counters_subset(result)
            if counters.get("retired_loads", 0) != oracle_loads or \
                    counters.get("retired_stores", 0) != oracle_stores:
                mismatches.append(FuzzMismatch(
                    seed, "retire-count", config.name,
                    f"retired {counters.get('retired_loads', 0)} loads/"
                    f"{counters.get('retired_stores', 0)} stores, oracle "
                    f"has {oracle_loads}/{oracle_stores}"))
            rerun = Processor(program, config, trace=trace).run()
            if rerun.cycles != result.cycles or \
                    _counters_subset(rerun) != counters:
                mismatches.append(FuzzMismatch(
                    seed, "nondeterminism", config.name,
                    f"rerun produced {rerun.cycles} cycles vs "
                    f"{result.cycles}, or differing counters"))
            results[config.name] = result

        mismatches.extend(self._cross_config_invariants(seed, results))
        return mismatches, len(trace)

    def _cross_config_invariants(self, seed: int,
                                 results) -> List[FuzzMismatch]:
        """Metamorphic invariants over the per-config counter records."""
        mismatches: List[FuzzMismatch] = []
        for name in _ARCHITECTURAL_COUNTERS:
            values = {config_name: result.counters.get(name)
                      for config_name, result in results.items()}
            if len(set(values.values())) > 1:
                mismatches.append(FuzzMismatch(
                    seed, f"invariant:{name}", "",
                    f"architectural counter differs across "
                    f"configurations: {values}"))
        for config_name, result in results.items():
            detected = (result.counters.get("mdt_true_violations")
                        + result.counters.get("mdt_anti_violations")
                        + result.counters.get("mdt_output_violations")
                        + result.counters.get("mdt_true_violations_at_retire")
                        + result.counters.get("lsq_true_violations")
                        + result.counters.get("retire_replay_violations"))
            flushed = (result.counters.get("violation_flushes_true")
                       + result.counters.get("violation_flushes_anti")
                       + result.counters.get("violation_flushes_output"))
            if flushed > detected:
                mismatches.append(FuzzMismatch(
                    seed, "invariant:flushes_le_detected", config_name,
                    f"{flushed} violation flushes but only {detected} "
                    f"violations detected"))
        return mismatches

    def check_seed(self, seed: int) -> List[FuzzMismatch]:
        """Generate the seed's program and differentially check it."""
        return self.check_program(self.builder(seed), seed)

    # ------------------------------------------------------------ campaign

    def run(self, iterations: Optional[int] = None,
            seconds: Optional[float] = None, seed: int = 0,
            corpus_dir: Optional[str] = None, minimize: bool = True
            ) -> FuzzReport:
        """Run a campaign of ``iterations`` programs (or until the
        ``seconds`` budget expires; with both set, whichever limit is
        hit first stops the campaign).

        ``iterations`` must be an integer >= 1 and ``seconds`` a finite
        number > 0 (``ValueError`` otherwise).  Every failing seed is
        shrunk to a minimal program (unless ``minimize=False``) and, when
        ``corpus_dir`` is given, written there as a replayable JSON crash
        case.  The report counts the instructions the oracle retired.
        """
        check_iterations(iterations)
        check_seconds(seconds)
        if iterations is None and seconds is None:
            iterations = 100
        report = FuzzReport(seed, [c.name for c in self.configs])
        started = time.perf_counter()
        current = seed
        while True:
            if iterations is not None and report.iterations >= iterations:
                break
            if seconds is not None and \
                    time.perf_counter() - started >= seconds:
                break
            program = self.builder(current)
            failures, retired = self._check(program, current)
            report.iterations += 1
            report.instructions += retired
            if failures:
                report.failures.extend(failures)
                if corpus_dir is not None:
                    report.corpus_paths.extend(
                        str(path) for path in self._archive(
                            program, current, failures, corpus_dir,
                            minimize))
            current += 1
        report.elapsed = time.perf_counter() - started
        return report

    def _archive(self, program: Program, seed: int,
                 failures: List[FuzzMismatch], corpus_dir,
                 minimize: bool) -> List:
        """Shrink and write one corpus case per distinct failure."""
        from .corpus import CrashCase
        from .shrink import shrink_failure

        paths = []
        seen = set()
        for failure in failures:
            key = (failure.kind, failure.config_name)
            if key in seen:
                continue
            seen.add(key)
            minimized = program
            if minimize:
                minimized = shrink_failure(self, program, failure)
            case = CrashCase(
                seed=seed, kind=failure.kind,
                config_name=failure.config_name, detail=failure.detail,
                program_asm=minimized.to_asm())
            paths.append(case.save(corpus_dir))
        return paths
