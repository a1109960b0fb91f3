"""Interval sampling over checkpointed fast-forward.

SMARTS/SimPoint-style sampling for the detailed simulator: partition an
N-instruction run into K detailed intervals separated by fast-forward
gaps.  One interpreter pass captures a train of architectural
checkpoints (optionally with warm branch-predictor/cache capsules); K of
them, evenly spaced, seed detailed windows of ``warmup_insts +
interval_insts`` instructions each.  Warm-up counters are discarded;
per-interval IPC and counter deltas over the measured span aggregate
into a mean with a confidence interval.

Error model (see DESIGN.md "Sampling methodology"): the reported
confidence half-width is the t-distribution sampling term
``t_{0.95,K-1} * s / sqrt(K)`` plus a fixed 2%-of-mean systematic
allowance covering non-sampling bias (finite warm-up, cold structures
the capsule does not capture, interval-boundary effects).  With a single
interval no variance estimate exists and a conservative 10% half-width
is reported instead.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..branch.gshare import GsharePredictor
from ..isa.interp import ExecutionLimitExceeded, Interpreter
from ..isa.program import Program
from ..memory.cache import paper_hierarchy
from ..memory.main_memory import MainMemory
from ..pipeline.config import ProcessorConfig
from ..pipeline.core import Core
from .arch import ArchCheckpoint
from .store import CheckpointStore, train_key

#: Fixed relative allowance for non-sampling (systematic) error, added
#: to the statistical term of every reported confidence interval.
SYSTEMATIC_ERROR = 0.02

#: Relative half-width reported when only one interval was measured.
SINGLE_INTERVAL_ERROR = 0.10

#: Cap on checkpoints kept per train; the capture pass thins the train
#: (dropping every other checkpoint, doubling the stride) beyond this.
#: It must be even for thinning to keep the last checkpoint.
MAX_TRAIN_CHECKPOINTS = 128

#: Dispatch slack appended to each interval's golden suffix trace: fetch
#: may run ``rob_size`` ahead of retirement plus a fetch-width margin.
TRACE_SLACK = 256

#: Two-sided 95% Student-t critical values by degrees of freedom.
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
        7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
        13: 2.160, 14: 2.145, 15: 2.131, 20: 2.086, 25: 2.060, 30: 2.042}


def t95(df: int) -> float:
    """95% two-sided Student-t critical value (1.96 asymptote)."""
    if df in _T95:
        return _T95[df]
    for bound in (30, 25, 20, 15):
        if df >= bound:
            return _T95[bound] if df < 60 else 1.96
    return _T95[max(1, min(df, 15))]


class SamplingError(Exception):
    """Sampling could not produce a usable estimate."""


class SampledResult:
    """Aggregate of K measured intervals of one (program, config) run."""

    __slots__ = ("program_name", "config_name", "ipc_mean", "ipc_std",
                 "ipc_ci95", "intervals", "counters", "cycles",
                 "instructions", "total_instructions",
                 "detailed_instructions", "warmup_insts", "interval_insts",
                 "checkpoint_every", "warm")

    def __init__(self, program_name: str, config_name: str,
                 ipc_mean: float, ipc_std: float, ipc_ci95: float,
                 intervals: List[dict], counters: Dict[str, float],
                 cycles: int, instructions: int, total_instructions: int,
                 detailed_instructions: int, warmup_insts: int,
                 interval_insts: int, checkpoint_every: int, warm: bool):
        self.program_name = program_name
        self.config_name = config_name
        self.ipc_mean = ipc_mean
        self.ipc_std = ipc_std
        self.ipc_ci95 = ipc_ci95
        self.intervals = intervals
        self.counters = counters
        self.cycles = cycles
        self.instructions = instructions
        self.total_instructions = total_instructions
        self.detailed_instructions = detailed_instructions
        self.warmup_insts = warmup_insts
        self.interval_insts = interval_insts
        self.checkpoint_every = checkpoint_every
        self.warm = warm

    def sampling_dict(self) -> dict:
        """The ``sampling`` metadata block of a sampled RunRecord."""
        return {
            "ipc_mean": self.ipc_mean,
            "ipc_std": self.ipc_std,
            "ipc_ci95": self.ipc_ci95,
            "intervals": [
                {"position": iv["position"], "retired": iv["retired"],
                 "cycles": iv["cycles"], "ipc": iv["ipc"]}
                for iv in self.intervals],
            "total_instructions": self.total_instructions,
            "detailed_instructions": self.detailed_instructions,
            "warmup_insts": self.warmup_insts,
            "interval_insts": self.interval_insts,
            "checkpoint_every": self.checkpoint_every,
            "warm": self.warm,
        }


def _warm_capsule(bpred: Optional[GsharePredictor],
                  hierarchy) -> Optional[dict]:
    if bpred is None:
        return None
    return {"bpred": bpred.export_state(),
            "caches": hierarchy.export_state()}


def capture_train(program: Program, every: int, warm: bool = True, *,
                  limit: int = 5_000_000) -> dict:
    """Fast-forward ``program`` from reset to the halt, capturing a
    checkpoint at position 0 and after every ``every`` retired
    instructions, each with a warm capsule when ``warm``.

    Past :data:`MAX_TRAIN_CHECKPOINTS` the train is thinned: every
    other checkpoint is dropped, the last one is kept, and the stride
    doubles.  The pinned sampled answers depend on exactly which
    checkpoints survive.

    Returns ``{"checkpoints", "total_instructions"}``; raises
    :class:`ExecutionLimitExceeded` when the program does not halt
    within ``limit`` instructions.
    """
    if every < 1:
        raise ValueError(f"checkpoint interval must be >= 1, got {every}")
    interp = Interpreter(program)
    bpred = GsharePredictor() if warm else None
    hierarchy = paper_hierarchy() if warm else None
    base_image = MainMemory()
    base_image.load_segments(program.data)
    checkpoints = [ArchCheckpoint.capture(
        interp, base_image, warm=_warm_capsule(bpred, hierarchy))]
    stride = every
    while not interp.halted:
        budget = min(stride, limit - interp.instructions_retired)
        if budget <= 0:
            break
        executed = interp.fast_forward(budget, bpred, hierarchy)
        if interp.halted or executed < budget:
            break
        checkpoints.append(ArchCheckpoint.capture(
            interp, base_image, warm=_warm_capsule(bpred, hierarchy)))
        if len(checkpoints) > MAX_TRAIN_CHECKPOINTS:
            # The train grows one checkpoint at a time, so it is thinned
            # at the even cap plus one: an odd length, whose [::2] keeps
            # the last checkpoint.
            checkpoints = checkpoints[::2]
            stride *= 2
    if not interp.halted:
        raise ExecutionLimitExceeded(
            f"program {program.name!r} did not halt within "
            f"{limit} instructions")
    return {"checkpoints": checkpoints,
            "total_instructions": interp.instructions_retired}


def ensure_train(program: Program, every: int, warm: bool,
                 store: Optional[CheckpointStore], limit: int) -> tuple:
    """``(key, train, captured)``: the train of ``program`` at stride
    ``every`` as ``store`` (or None) holds it under ``key``, else a
    fresh :func:`capture_train` (``captured``), which the caller stores
    once it has measured an interval.  The end-to-end benchmark times
    train capture under this function's name."""
    key = train_key(program.digest(), every, warm)
    train = store.load(key) if store is not None else None
    if train is not None:
        return key, train, False
    return key, capture_train(program, every, warm, limit=limit), True


def select_checkpoints(checkpoints: List[ArchCheckpoint], total: int,
                       intervals: int,
                       window: int) -> List[ArchCheckpoint]:
    """Pick up to ``intervals`` evenly spaced checkpoints whose detailed
    window of ``window`` instructions fits before the program halts."""
    if intervals < 1:
        raise ValueError(f"intervals must be >= 1, got {intervals}")
    eligible = [ckpt for ckpt in checkpoints
                if ckpt.retired + window <= total]
    if not eligible:
        # Program shorter than one window: a single from-the-start
        # interval degenerates to (truncated) full detailed simulation.
        return [checkpoints[0]]
    count = min(intervals, len(eligible))
    if count == 1:
        return [eligible[len(eligible) // 2]]
    span = len(eligible) - 1
    picked = []
    seen = set()
    for i in range(count):
        index = round(i * span / (count - 1))
        if index not in seen:
            seen.add(index)
            picked.append(eligible[index])
    return picked


def simulate_interval(program: Program, config: ProcessorConfig,
                      ckpt: ArchCheckpoint, warmup_insts: int,
                      interval_insts: int) -> Optional[dict]:
    """Detailed-simulate one window from ``ckpt``: warm up
    ``warmup_insts`` (counters discarded), measure ``interval_insts``.

    Returns the per-interval measurement dict, or None when the program
    halts inside the warm-up (nothing measurable).
    """
    resumed = ckpt.resume_interpreter(program)
    # Suffix golden trace: record 0 must be the first instruction the
    # restored core retires (trace indices are validated against the
    # core's own retire count).
    resumed.instructions_retired = 0
    needed = warmup_insts + interval_insts + config.rob_size + TRACE_SLACK
    records = []
    append = records.append
    step = resumed.step
    for _ in range(needed):
        record = step()
        if record is None:
            break
        append(record)
        if resumed.halted:
            break
    core = Core(program, config, trace=records,
                memory=ckpt.restore_memory(program),
                start_pc=ckpt.pc, start_regs=ckpt.regs,
                warm_state=ckpt.warm)
    core.run_until(min(warmup_insts, len(records)))
    warm_cycle = core.cycle
    warm_retired = core.retired
    warm_counters = core.counters.as_dict()
    core.run_until(min(warmup_insts + interval_insts, len(records)))
    retired = core.retired - warm_retired
    cycles = core.cycle - warm_cycle
    if retired <= 0 or cycles <= 0:
        return None
    end_counters = core.counters.as_dict()
    deltas = {key: value - warm_counters.get(key, 0)
              for key, value in end_counters.items()}
    return {"position": ckpt.retired, "retired": retired,
            "cycles": cycles, "ipc": retired / cycles,
            "detailed_retired": core.retired, "counters": deltas}


def sample_run(program: Program, config: ProcessorConfig, *,
               intervals: int = 10, warmup_insts: int = 1_000,
               interval_insts: int = 5_000, warm: bool = True,
               store: Optional[CheckpointStore] = None,
               limit: int = 5_000_000) -> SampledResult:
    """Sampled detailed simulation of ``program`` under ``config``.

    The checkpoint train is one pass to the halt at a stride of one
    window (at least 500 instructions).  With a
    :class:`~repro.checkpoint.store.CheckpointStore` it is looked up
    first, and a fresh train is stored only once an interval has been
    measured: grid cells sharing a benchmark (any config) fast-forward
    once, and a run with nothing to measure leaves no train behind.
    """
    window = warmup_insts + interval_insts
    every = max(window, 500)
    key, train, captured = ensure_train(program, every, warm, store,
                                        limit)
    total = train["total_instructions"]
    selected = select_checkpoints(train["checkpoints"], total, intervals,
                                  window)
    measured = []
    for ckpt in selected:
        result = simulate_interval(program, config, ckpt, warmup_insts,
                                   interval_insts)
        if result is not None:
            measured.append(result)
    if not measured:
        raise SamplingError(
            f"no measurable interval for {program.name!r}: program "
            f"halts inside every warm-up window (sampled span "
            f"{total} instructions, warm-up {warmup_insts})")
    if captured and store is not None:
        store.store(key, train)

    ipcs = [iv["ipc"] for iv in measured]
    count = len(ipcs)
    mean = sum(ipcs) / count
    if count > 1:
        variance = sum((x - mean) ** 2 for x in ipcs) / (count - 1)
        std = math.sqrt(variance)
        half = t95(count - 1) * std / math.sqrt(count) \
            + SYSTEMATIC_ERROR * mean
    else:
        std = 0.0
        half = SINGLE_INTERVAL_ERROR * mean

    counters: Dict[str, float] = {}
    for iv in measured:
        for key_, value in iv["counters"].items():
            counters[key_] = counters.get(key_, 0) + value
    cycles = sum(iv["cycles"] for iv in measured)
    instructions = sum(iv["retired"] for iv in measured)
    counters["cycles"] = cycles
    counters["retired_instructions"] = instructions
    detailed = sum(iv["detailed_retired"] for iv in measured)
    return SampledResult(
        program_name=program.name, config_name=config.name,
        ipc_mean=mean, ipc_std=std, ipc_ci95=half, intervals=measured,
        counters=counters, cycles=cycles, instructions=instructions,
        total_instructions=total, detailed_instructions=detailed,
        warmup_insts=warmup_insts, interval_insts=interval_insts,
        checkpoint_every=every, warm=warm)
