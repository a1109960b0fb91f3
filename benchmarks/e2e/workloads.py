"""The benchmark's four workloads.

Each workload is a fixed set of *cells*; one op runs one cell through a
public simulator entry point.  ``setup`` builds the inputs every op
needs (programs, golden traces, predecode, the fuzzer), ``run_op`` is
the only timed call, and ``check`` turns its result into an
:class:`Outcome` (work done, result digest, the op's RunRecord and any
error) outside the timed region.  The seed only permutes op order for
the grids and chooses the programs for fuzz-diff, so the same seed
always gives the same inputs.

Sizes are arguments so the self-tests can run every workload tiny; the
defaults are the benchmark's.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.predictors import ENF, NOT_ENF, TOTAL
from repro.harness.configs import (
    aggressive_lsq_config,
    aggressive_sfc_mdt_config,
    baseline_lsq_config,
    baseline_sfc_mdt_config,
)
from repro.harness.experiment import ExperimentRunner, geometric_mean
from repro.isa import predecode
from repro.isa.interp import Interpreter
from repro.perf import manifest_digest
from repro.verify.fuzzer import DifferentialFuzzer
from repro.workloads import suites

#: The scale EXPERIMENTS.md reports Figures 5 and 6 at.
EXACT_SCALE = 20_000
#: The sampled horizon.  With 2 000-instruction intervals one sampled
#: answer takes about 0.85 s, so a pass over all 20 benchmarks fits a
#: 20 s run.  Host speed drifts within an op and only its ends are taken
#: against the yardstick: 1.5 s answers (2M instructions, 5 000-instruction
#: intervals) spread twice as wide from run to run.
SAMPLED_SCALE = 1_000_000
SAMPLED_BENCHMARKS = suites.FIGURE5_BENCHMARKS
#: Fuzz programs per pass: one pass takes about 10 s on the reference
#: host, so a 20 s run measures each program about twice.
FUZZ_PROGRAMS = 400


class PinError(ValueError):
    """``reference.json`` holds no pins for a workload that needs them."""


class Outcome:
    """What one op produced, checked against the pinned references."""

    __slots__ = ("insts", "digest", "record", "error")

    def __init__(self, insts: int, digest: Optional[str] = None,
                 record: Optional[dict] = None, error: Optional[str] = None):
        self.insts = insts
        self.digest = digest
        self.record = record
        self.error = error


def _cold_predecode() -> None:
    # The predecode cache is process-global; clearing it makes every
    # repeated set-up pay predecode the way a fresh process does.
    predecode._CACHE.clear()


def _pin_error(reference: Optional[dict], cell: str,
               digest: str) -> Optional[str]:
    if reference is None:
        # Unpinned: only the self-tests, at sizes nothing is pinned for;
        # build() always passes pins.
        return None
    pinned = reference.get("digests", {}).get(cell)
    if pinned is None:
        return f"{cell}: no pinned reference digest"
    if pinned != digest:
        return f"{cell}: digest {digest[:12]} != pinned {pinned[:12]}"
    return None


class ExactGrid:
    """Benchmarks x configurations, each cell one uncached
    ``ExperimentRunner.run`` on the detailed core."""

    def __init__(self, name: str, benchmarks: List[str], configs: list,
                 scale: int = EXACT_SCALE,
                 reference: Optional[dict] = None):
        self.name = name
        self.scale = scale
        self.reference = reference
        self._cells = {f"{bench}/{config.name}": (bench, config)
                       for bench in benchmarks for config in configs}
        self.baseline = configs[0].name

    def setup(self, seed: int) -> ExperimentRunner:
        _cold_predecode()
        runner = ExperimentRunner(scale=self.scale, jobs=1, use_cache=False)
        for bench in dict.fromkeys(b for b, _ in self._cells.values()):
            runner.trace(bench)
        return runner

    def cells(self, state) -> List[str]:
        return list(self._cells)

    def run_op(self, runner: ExperimentRunner, cell: str):
        bench, config = self._cells[cell]
        return runner.run(bench, config)

    def check(self, runner: ExperimentRunner, cell: str, result) -> Outcome:
        entry = runner.manifest[-1]
        digest = manifest_digest([entry])
        return Outcome(result.instructions, digest, entry,
                       _pin_error(self.reference, cell, digest))

    def accuracy(self, records: Dict[str, dict]) -> Dict[str, float]:
        """Geomean over benchmarks of the ENF cell's IPC over the
        baseline LSQ cell's IPC (Figure 5/6's headline ratio)."""
        ratios = []
        for cell, record in records.items():
            bench, config = self._cells[cell]
            if config.name == "ENF":
                base = records.get(f"{bench}/{self.baseline}")
                if base is not None:
                    ratios.append(record["ipc"] / base["ipc"])
        if not ratios:
            return {}
        return {"enf_vs_lsq_geomean": geometric_mean(ratios)}


def fig5_exact(scale: int = EXACT_SCALE,
               benchmarks: Optional[List[str]] = None,
               reference: Optional[dict] = None) -> ExactGrid:
    """Figure 5's grid: 4-wide core, MDT/SFC ENF and NOT-ENF against the
    48x32 LSQ (configurations as in ``repro.harness.figures.figure5``)."""
    configs = [baseline_lsq_config(),
               baseline_sfc_mdt_config(mode=ENF, name="ENF"),
               baseline_sfc_mdt_config(mode=NOT_ENF, name="NOT-ENF")]
    return ExactGrid("fig5-exact", benchmarks or suites.FIGURE5_BENCHMARKS,
                     configs, scale, reference)


def fig6_exact(scale: int = EXACT_SCALE,
               benchmarks: Optional[List[str]] = None,
               reference: Optional[dict] = None) -> ExactGrid:
    """Figure 6's grid: 8-wide core, 120x80 (baseline), 256x256 and 48x32
    LSQs and MDT/SFC with total-order ENF (as in ``figure6``)."""
    configs = [aggressive_lsq_config(120, 80),
               aggressive_lsq_config(256, 256, name="lsq256x256"),
               aggressive_lsq_config(48, 32, name="lsq48x32"),
               aggressive_sfc_mdt_config(mode=TOTAL, name="ENF")]
    return ExactGrid("fig6-exact", benchmarks or suites.FIGURE6_BENCHMARKS,
                     configs, scale, reference)


class SampledGrid:
    """One sampled IPC +/- CI answer per benchmark.  Every op runs a new
    runner over an empty cache directory, so it captures and persists its
    checkpoint train the way a user's first sampled run does."""

    name = "sampled-1m"
    INTERVALS = 10
    WARMUP_INSTS = 1_000
    INTERVAL_INSTS = 2_000

    def __init__(self, work_dir: Path, scale: int = SAMPLED_SCALE,
                 benchmarks: Optional[List[str]] = None,
                 reference: Optional[dict] = None):
        self.work_dir = Path(work_dir)
        self.scale = scale
        self.benchmarks = list(benchmarks or SAMPLED_BENCHMARKS)
        self.reference = reference
        self.config = baseline_sfc_mdt_config(mode=ENF)
        self._ops = 0

    def setup(self, seed: int) -> None:
        _cold_predecode()
        for bench in self.benchmarks:
            suites.build(bench, self.scale).predecoded()

    def cells(self, state) -> List[str]:
        return list(self.benchmarks)

    def _cache_dir(self) -> Path:
        return self.work_dir / f"op{self._ops}"

    def run_op(self, state, cell: str):
        self._ops += 1
        runner = ExperimentRunner(scale=self.scale, jobs=1,
                                  cache_dir=self._cache_dir())
        return runner.run_sampled(
            cell, self.config, intervals=self.INTERVALS,
            warmup_insts=self.WARMUP_INSTS,
            interval_insts=self.INTERVAL_INSTS)

    def check(self, state, cell: str, record) -> Outcome:
        shutil.rmtree(self._cache_dir(), ignore_errors=True)
        entry = record.to_dict()
        digest = hashlib.sha256(json.dumps(
            [manifest_digest([entry]), entry["sampling"]],
            sort_keys=True).encode()).hexdigest()
        return Outcome(entry["sampling"]["total_instructions"], digest,
                       entry, _pin_error(self.reference, cell, digest))

    def accuracy(self, records: Dict[str, dict]) -> Dict[str, float]:
        """Error and CI coverage against the pinned full-run IPCs."""
        full = (self.reference or {}).get("full_ipc", {})
        errors, covered = [], 0
        for cell, record in records.items():
            if cell not in full:
                continue
            error = abs(record["ipc"] - full[cell])
            errors.append(error / full[cell])
            covered += error <= record["sampling"]["ipc_ci95"]
        if not errors:
            return {}
        return {"sampled_ipc_err": sum(errors) / len(errors),
                "ci_coverage": covered / len(errors)}


class FuzzState:
    __slots__ = ("fuzzer", "programs", "oracle_insts")

    def __init__(self, fuzzer, programs, oracle_insts):
        self.fuzzer = fuzzer
        self.programs = programs
        self.oracle_insts = oracle_insts


class FuzzDiff:
    """Programs ``seed * n`` .. ``seed * n + n - 1`` from the fuzzer's
    default builder, each checked over the default matrix with
    determinism reruns and no shrinking.  Correctness is the oracle's
    verdict: there is nothing to pin."""

    name = "fuzz-diff"

    def __init__(self, programs: int = FUZZ_PROGRAMS):
        self.programs = programs

    def setup(self, seed: int) -> FuzzState:
        _cold_predecode()
        fuzzer = DifferentialFuzzer()
        first = seed * self.programs
        programs = {str(s): fuzzer.builder(s)
                    for s in range(first, first + self.programs)}
        # The oracle's instruction count is the op's unit of work.
        oracle = {cell: len(Interpreter(program).run(
            fuzzer.max_instructions)) for cell, program in programs.items()}
        return FuzzState(fuzzer, programs, oracle)

    def cells(self, state: FuzzState) -> List[str]:
        return list(state.programs)

    def run_op(self, state: FuzzState, cell: str):
        return state.fuzzer.check_program(state.programs[cell], int(cell))

    def check(self, state: FuzzState, cell: str, mismatches) -> Outcome:
        error = None
        if mismatches:
            error = f"program {cell}: {mismatches[0]!r}"
        insts = state.oracle_insts[cell]
        return Outcome(insts, record={"oracle_insts": insts}, error=error)

    def accuracy(self, records: Dict[str, dict]) -> Dict[str, float]:
        return {}


def _pins(reference: dict, name: str) -> dict:
    section = reference.get(name)
    if not isinstance(section, dict) or not section.get("digests"):
        raise PinError(f"reference.json holds no pinned digests for {name}; "
                       f"run benchmarks/e2e/pin.py {name}")
    return section


def build(name: str, work_dir: Path, reference: dict):
    """The named workload at the benchmark's sizes, with its pins from
    ``reference`` (the parsed ``reference.json``); raises
    :class:`PinError` when a pinned workload has none."""
    if name == "fig5-exact":
        return fig5_exact(reference=_pins(reference, name))
    if name == "fig6-exact":
        return fig6_exact(reference=_pins(reference, name))
    if name == "sampled-1m":
        return SampledGrid(work_dir, reference=_pins(reference, name))
    if name == "fuzz-diff":
        return FuzzDiff()
    raise KeyError(name)


NAMES = ("fig5-exact", "fig6-exact", "sampled-1m", "fuzz-diff")
