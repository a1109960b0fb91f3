"""N-core system: lockstepped :class:`~repro.pipeline.core.Core` objects
over one shared memory image and one shared L2 -- the machine the litmus
tests (:mod:`repro.verify.litmus_oracle`) run on.

The cycle loop moves up a level here: :meth:`System.step` advances every
still-running core by exactly one cycle, in ascending core order.
Lockstep plus that fixed round-robin order is the system's *coherence
point*: a store becomes globally visible the moment its core's retire
stage writes the shared image, and which same-cycle accesses observe it
is fully determined by core order -- so multicore runs are as
deterministic and replayable as single-core ones (idle-cycle
fast-forwarding is disabled on every core to keep their clocks equal).

:class:`System` owns the memory side of the machine: one L2
:class:`~repro.memory.cache.Cache` threaded into every core's
:class:`~repro.memory.cache.CacheHierarchy` (so cores contend for, and
constructively share, L2 capacity), per-core L1I/L1D in the paper's
Figure 4 geometry, and the one architectural image every core executes
over.  Loads execute speculatively and out of order against it with no
cross-core snooping, so weak-memory outcomes (store buffering, load
reordering) become observable; per-core golden-trace *value* validation
is off, because another core's store legitimately changes what a load
returns relative to its single-threaded golden trace.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..isa.program import Program
from ..memory.cache import (
    Cache,
    CacheHierarchy,
    paper_l1d_config,
    paper_l1i_config,
    paper_l2_config,
)
from ..memory.main_memory import MainMemory
from .config import SystemConfig
from .core import Core, SimResult, SimulationError


class SystemResult:
    """Outcome of one N-core system run.

    ``counters`` namespaces every per-core counter as
    ``core<N>_<name>`` and adds the system-level aggregates (``cycles``,
    ``retired_instructions``) plus the shared-L2 statistics unprefixed.
    """

    def __init__(self, config: SystemConfig,
                 core_results: List[SimResult], cycles: int,
                 counters: Dict[str, float]):
        self.config = config
        self.core_results = core_results
        self.cycles = cycles
        self.instructions = sum(result.instructions
                                for result in core_results)
        self.counters = counters
        self.program_name = "+".join(result.program_name
                                     for result in core_results)

    @property
    def ipc(self) -> float:
        """Aggregate system IPC (all cores' retirements per cycle)."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def __repr__(self) -> str:
        return (f"SystemResult({self.program_name} on "
                f"{self.config.name}: {self.config.cores} cores, "
                f"IPC={self.ipc:.3f}, {self.instructions} insts, "
                f"{self.cycles} cycles)")


class System:
    """N lockstepped cores over one shared image and one shared L2.

    ``programs`` is one :class:`~repro.isa.program.Program` per core,
    written for one shared image (a litmus test's threads); each
    program's data is loaded into that image in core order.  Each core
    interprets its own golden trace -- its program's *single-threaded*
    architectural execution, used for fetch-path tracking and the
    branch oracle only.
    """

    def __init__(self, programs: Sequence[Program], config: SystemConfig):
        if len(programs) != config.cores:
            raise ValueError(
                f"got {len(programs)} program(s) for {config.cores} "
                f"core(s); pass one per core")
        self.config = config
        #: The shared architectural image (the coherence point).
        self.shared_memory = MainMemory()
        for program in programs:
            self.shared_memory.load_segments(program.data)
        self.l2 = Cache(paper_l2_config())
        self.cores: List[Core] = [
            Core(program, config.core, memory=self.shared_memory,
                 hierarchy=CacheHierarchy(l1i=paper_l1i_config(),
                                          l1d=paper_l1d_config(),
                                          l2=self.l2),
                 validate=False, idle_skip=False)
            for program in programs]
        self.cycle = 0

    @property
    def done(self) -> bool:
        return all(core.done for core in self.cores)

    # ------------------------------------------------------------------ cycle

    def step(self) -> None:
        """Advance every still-running core by one cycle, in core
        order (the deterministic coherence order)."""
        for core in self.cores:
            if not core.done:
                core.step()
        self.cycle += 1

    # ------------------------------------------------------------------ run

    def run(self) -> SystemResult:
        """Simulate until every core's HALT retires."""
        max_cycles = self.config.core.max_cycles
        while not self.done:
            if self.cycle > max_cycles:
                stuck = [index for index, core in enumerate(self.cores)
                         if not core.done]
                raise SimulationError(
                    f"system exceeded {max_cycles} cycles with "
                    f"core(s) {stuck} still running")
            self.step()
        return self.finalize()

    def finalize(self) -> SystemResult:
        """Finalize every core and merge the per-core counters under
        ``core<N>_`` prefixes plus the system-level aggregates."""
        core_results = [core.finalize() for core in self.cores]
        cycles = max((core.cycle for core in self.cores), default=0)
        merged: Dict[str, float] = {}
        for index, result in enumerate(core_results):
            for name, value in result.counters.as_dict().items():
                merged[f"core{index}_{name}"] = value
        merged["l2_accesses"] = self.l2.accesses
        merged["l2_misses"] = self.l2.misses
        merged["l2_miss_rate"] = self.l2.miss_rate
        merged["cycles"] = cycles
        merged["retired_instructions"] = sum(result.instructions
                                             for result in core_results)
        return SystemResult(self.config, core_results, cycles, merged)
