"""Cycle-level out-of-order superscalar core.

Execution-driven, as in the paper: the pipeline fetches along the
*predicted* path, so wrong-path loads and stores really execute and touch
the SFC/MDT (the source of SFC corruptions), and every retired instruction
is validated against the golden trace of the in-order architectural
simulator.  Recovery from branch mispredictions and memory-ordering
violations is a partial pipeline flush: squash everything younger than the
recovery point, restore the register alias table from the per-instruction
undo log, and redirect fetch.

The cycle loop
--------------

:meth:`Core._cycles` is the whole pipeline: a generator that binds the
hot structures to locals once and yields once per simulated cycle.
:meth:`Core.run` and :meth:`Core.run_until` drain it; :meth:`Core.step`
(and through it :meth:`~repro.pipeline.system.System.step`) advances it
by one cycle, so single-core runs, sampled windows and lockstepped
multicore share one implementation.  The scalar state (``cycle``,
``retired``, ``done``, the fetch PC, trace index and stall, ``next_seq``,
the last seen eviction count) lives on the :class:`Core` and is re-read
at the top of each cycle, so any mix of the three entry points, and the
recovery helpers that redirect fetch, stay exact, and a loop can be
dropped and made anew between any two cycles.  The stages run in this
order each cycle:

1. writeback: complete instructions whose latency expires this cycle;
2. retire from the ROB head, validating against the golden trace;
3. clear scheduler stall bits if the MDT/SFC evicted entries;
4. select, then execute, the ready instructions: the whole selected
   group is popped before any executes, because executing one can
   squash or wake another (loads/stores consult the memory subsystem
   here, speculatively and out of order);
5. fetch/rename/dispatch along the predicted path;
6. advance the clock, skipping guaranteed-idle spans.

Work every instruction does runs inline in the loop: rename (decoded
through the per-opcode tables
:data:`~repro.isa.instructions.READS_RS1`, ``READS_RS2`` and
``WRITES_RD``) and the ROB insert at dispatch, ALU execution through
:func:`~repro.isa.interp.execute_op` and completion scheduling,
writeback, and retirement with the golden-trace comparison.  So does
the scheduling window's per-instruction work, on the
:class:`~repro.pipeline.scheduler.Scheduler`'s ready heap, waiter maps
and occupancy bound to locals: the insert at dispatch (list the
instruction once per unready source read and once on a pending consumed
dependence tag, or push it onto the ready heap when nothing is pending)
and the wakeup at writeback (pop a completing register's waiters and
count each down, skipping squashed and issued ones; ``in_ready`` guards
against a second push).  Select is one
:meth:`~repro.pipeline.scheduler.Scheduler.select` call per cycle,
which takes the group out of the window.  The ROB's and the window's
room are locals for a whole fetch group, which probes the L1I once per
line: a later fetch from the line fetched just before it is a hit on
its set's MRU line, because nothing else touches the L1I inside a fetch
group, and those hits join the L1I's access count when the group ends.

Work specific to one instruction class stays in one helper per stage:
memory instructions use :meth:`Core._dispatch_mem` (dependence-predictor
tags, subsystem dispatch), :meth:`Core._execute_mem` and
:meth:`Core._retire_mem`; control instructions use
:meth:`Core._predict`, :meth:`Core._execute_control` (resolution through
:func:`~repro.isa.interp.branch_taken`, mispredict redirect) and
:meth:`Core._retire_control`; recovery is :meth:`Core._ordering_violation`,
:meth:`Core._flush_after` and :meth:`Core._squash_after`.

Observer
--------

``Core.observer`` is an optional event sink (the
:class:`~repro.pipeline.pipetrace.PipeTracer` is one).  The loop reads
it into a local at the top of each cycle and, when it is set, calls
``on_dispatch``, ``on_issue`` (after execution, so a replayed access is
already ``stalled``), ``on_complete``, ``on_retire`` and ``on_squash``
with ``(inst, cycle)``, and ``on_cycle(cycle)`` once the clock has
advanced.  With no observer each event costs one ``is not None`` test,
and an observer never changes a simulated outcome.

A :class:`Core` owns every *per-core* structure (fetch state, rename
table, scheduler, ROB, store FIFO, SFC/MDT subsystem, gshare, counters)
but its architectural memory image and cache hierarchy are injectable:
standalone (the single-core path) it builds a private
:class:`~repro.memory.main_memory.MainMemory` and the paper's hierarchy;
under a :class:`~repro.pipeline.system.System` it is handed a shared
image and a per-core hierarchy over a shared L2 instead.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from heapq import heappush
from typing import Deque, Dict, Iterator, List, Optional

from ..branch.gshare import GsharePredictor
from ..core import registry
from ..core.predictors import DependenceTagFile, ProducerSetPredictor
from ..core.subsystem import REPLAY
from ..isa import instructions as ops
from ..isa.instructions import MASK64, SIGNED_LOADS, sign_extend
from ..isa.interp import GoldenTrace, branch_taken, execute_op, run_program
from ..isa.program import INSTRUCTION_BYTES, Program
from ..memory.cache import CacheHierarchy, paper_hierarchy
from ..memory.main_memory import MainMemory
from ..obs.metrics import COUNTER, GAUGE, declare_metric
from ..stats.counters import Counters
from .config import ProcessorConfig
from .dyninst import DynInst
from .rename import RenameTable
from .scheduler import Scheduler

# -- declared metrics (metadata only; see repro.obs.metrics) -----------------
for _name, _kind, _unit, _desc in (
    ("dispatched_instructions", COUNTER, "insts",
     "instructions renamed and dispatched (right and wrong path)"),
    ("executed_loads", COUNTER, "insts", "loads issued to the memory unit"),
    ("executed_stores", COUNTER, "insts",
     "stores issued to the memory unit"),
    ("retired_loads", COUNTER, "insts", "loads retired from the ROB head"),
    ("retired_stores", COUNTER, "insts",
     "stores retired from the ROB head"),
    ("mem_replays", COUNTER, "events",
     "memory accesses bounced back to the scheduler for replay"),
    ("idle_cycles_skipped", COUNTER, "cycles",
     "guaranteed-idle cycles fast-forwarded by the clock"),
    ("dispatch_stalls_rob", COUNTER, "slots",
     "dispatch slots lost to a full ROB"),
    ("dispatch_stalls_sched", COUNTER, "slots",
     "dispatch slots lost to a full scheduler window"),
    ("dispatch_stalls_phys", COUNTER, "slots",
     "dispatch slots lost to physical-register exhaustion"),
    ("dispatch_stalls_lq", COUNTER, "slots",
     "dispatch slots lost to a full load queue"),
    ("dispatch_stalls_sq", COUNTER, "slots",
     "dispatch slots lost to a full store queue/FIFO"),
    ("rob_head_bypass_grants", COUNTER, "events",
     "ROB-lockup avoidance grants (Section 2.2)"),
    ("branch_mispredict_flushes", COUNTER, "events",
     "partial flushes caused by branch mispredictions"),
    ("violation_flushes_true", COUNTER, "events",
     "recovery flushes for true (RAW) ordering violations"),
    ("violation_flushes_anti", COUNTER, "events",
     "recovery flushes for anti (WAR) ordering violations"),
    ("violation_flushes_output", COUNTER, "events",
     "recovery flushes for output (WAW) ordering violations"),
    ("partial_flushes", COUNTER, "events",
     "partial pipeline flushes (all causes)"),
    ("squashed_instructions", COUNTER, "insts",
     "in-flight instructions squashed by recovery flushes"),
    ("cycles", GAUGE, "cycles", "total simulated cycles"),
    ("retired_instructions", GAUGE, "insts",
     "architecturally retired instructions"),
    ("branch_predictions", GAUGE, "events",
     "conditional-branch predictions made"),
    ("branch_mispredictions", GAUGE, "events",
     "conditional-branch mispredictions"),
):
    declare_metric(_name, kind=_kind, subsystem="pipeline",
                   description=_desc, unit=_unit)


class SimulationError(Exception):
    """Retired state diverged from the golden trace (simulator bug) or the
    simulation exceeded its cycle budget."""


class SimResult:
    """Outcome of one simulation run."""

    def __init__(self, program_name: str, config: ProcessorConfig,
                 cycles: int, instructions: int, counters: Counters):
        self.program_name = program_name
        self.config = config
        self.cycles = cycles
        self.instructions = instructions
        self.counters = counters

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def rate(self, numerator: str, denominator: str) -> float:
        return self.counters.rate(numerator, denominator)

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (result cache / run manifests)."""
        return {
            "program_name": self.program_name,
            "config": self.config.to_dict(),
            "cycles": self.cycles,
            "instructions": self.instructions,
            "counters": self.counters.as_dict(),
        }

    def __repr__(self) -> str:
        return (f"SimResult({self.program_name} on {self.config.name}: "
                f"IPC={self.ipc:.3f}, {self.instructions} insts, "
                f"{self.cycles} cycles)")


class Core:
    """One configured superscalar core bound to one program.

    ``memory``/``hierarchy`` default to a private image and the paper's
    single-core hierarchy; a :class:`~repro.pipeline.system.System`
    injects shared ones instead.  ``validate=False`` disables golden-
    trace value/effect validation at retirement (required under a shared
    memory image, where cross-core stores legitimately change what a
    load returns relative to its single-threaded golden trace).
    ``idle_skip=False`` disables the guaranteed-idle clock fast-forward
    so lockstepped cores keep identical cycle counts.

    Checkpoint restore (see :mod:`repro.checkpoint`): ``start_pc`` and
    ``start_regs`` begin detailed simulation mid-program from a
    fast-forwarded architectural state instead of from reset.  The
    supplied ``trace`` must then be the golden *suffix* starting at
    ``start_pc`` (record 0 is the first instruction this core retires),
    and ``memory`` the checkpoint's restored image.  ``warm_state``, a
    checkpoint's warm capsule (``{"bpred": ..., "caches": ...}``, both
    halves required), pre-loads trained branch-predictor state and
    cache tag arrays; statistics always start from zero.
    """

    def __init__(self, program: Program, config: ProcessorConfig,
                 trace: Optional[GoldenTrace] = None,
                 memory: Optional[MainMemory] = None,
                 hierarchy: Optional[CacheHierarchy] = None,
                 validate: bool = True,
                 idle_skip: bool = True, start_pc: int = 0,
                 start_regs: Optional[List[int]] = None,
                 warm_state: Optional[dict] = None):
        self.program = program
        self.config = config
        self.trace = trace if trace is not None else run_program(program)
        self.counters = Counters()
        if memory is None:
            memory = MainMemory()
            memory.load_segments(program.data)
        self.memory = memory
        self.hierarchy = hierarchy if hierarchy is not None \
            else paper_hierarchy()
        self.validate_trace = validate
        self.idle_skip = idle_skip
        self.subsystem = registry.SUBSYSTEMS[
            registry.validate(config.subsystem)](
                config, self.memory, self.hierarchy, self.counters)
        self.tag_file = DependenceTagFile()
        self.predictor = ProducerSetPredictor(config.predictor,
                                              self.counters)
        self.scheduler = Scheduler(config.sched_size)
        self.rename = RenameTable(num_phys=config.rob_size + 64)
        self.bpred = GsharePredictor(oracle_fix_rate=config.oracle_fix_rate,
                                     seed=config.branch_seed)

        self.rob: Deque[DynInst] = deque()
        self._completions: Dict[int, List[DynInst]] = {}
        #: Event sink for pipeline tracing (see the module docstring).
        self.observer = None

        # Interned counter handles for per-instruction events (a plain
        # attribute add instead of a string-dict lookup per event); rare
        # events stay on Counters.incr.
        counters = self.counters
        self._c_dispatched = counters.cell("dispatched_instructions")
        self._c_executed_loads = counters.cell("executed_loads")
        self._c_executed_stores = counters.cell("executed_stores")
        self._c_retired_loads = counters.cell("retired_loads")
        self._c_retired_stores = counters.cell("retired_stores")
        self._c_mem_replays = counters.cell("mem_replays")
        self._c_idle_skipped = counters.cell("idle_cycles_skipped")
        self._c_stall_rob = counters.cell("dispatch_stalls_rob")
        self._c_stall_sched = counters.cell("dispatch_stalls_sched")
        self._c_stall_phys = counters.cell("dispatch_stalls_phys")

        self.cycle = 0
        self.next_seq = 0
        self.retired = 0
        self.done = False

        # Fetch state: ``_fetch_trace_index >= 0`` means fetch is on the
        # architecturally correct path and the next instruction fetched is
        # the trace's row ``_fetch_trace_index``.
        self._fetch_pc: Optional[int] = start_pc
        self._fetch_trace_index = 0
        self._fetch_stall_until = 0
        self._last_evictions = 0

        # Checkpoint restore: seed the architectural register values into
        # the identity-mapped rename table (arch i -> phys i at reset) and
        # optionally pre-warm predictor/cache state.  r0 stays hardwired
        # zero.  Defaults (pc 0, no regs, no warm state) leave a
        # from-reset core bit-identical to before this feature existed.
        if start_regs is not None:
            values = self.rename.values
            for arch in range(1, ops.NUM_REGS):
                values[arch] = start_regs[arch] & MASK64
        if warm_state is not None:
            self.bpred.import_state(warm_state["bpred"])
            self.hierarchy.import_state(warm_state["caches"])

        #: The cycle loop :meth:`step` advances (made on first use).
        self._loop: Optional[Iterator[None]] = None

    # ------------------------------------------------------------------ run

    def run(self) -> SimResult:
        """Simulate until the program's HALT retires."""
        self._drain(None)
        return self.finalize()

    def run_until(self, retired_target: int) -> None:
        """Run cycles until ``retired_target`` instructions have retired
        (or the program halts).  The sampling engine uses this to split a
        detailed window into a discarded warm-up span and a measured
        span; call :meth:`finalize` (or read counters directly) after the
        last window."""
        self._drain(retired_target)

    def step(self) -> None:
        """Advance one cycle (nothing happens once the program halted)."""
        if self.done:
            return
        if self._loop is None:
            self._loop = self._cycles()
        next(self._loop, None)

    def _drain(self, retired_target: Optional[int]) -> None:
        # The loop is let go on return: a suspended loop refers back to
        # its core, and a core abandoned mid-run (a sampled window) must
        # not wait for the cycle collector to be freed.
        loop = self._loop or self._cycles()
        self._loop = None
        max_cycles = self.config.max_cycles
        while not self.done and (retired_target is None or
                                 self.retired < retired_target):
            if self.cycle > max_cycles:
                raise SimulationError(
                    f"exceeded {max_cycles} cycles "
                    f"({self.retired}/{len(self.trace)} retired; "
                    f"rob head={self.rob[0] if self.rob else None})")
            next(loop, None)

    def architectural_registers(self) -> List[int]:
        """The committed architectural register file.

        Only meaningful once the core is quiescent (``done`` or between
        retirement groups): reads each architectural register through the
        retirement-consistent rename table.  The differential check
        (:meth:`~repro.verify.fuzzer.DifferentialFuzzer.check_program`)
        compares this against the in-order interpreter's register file.
        """
        rename = self.rename
        return [rename.values[rename.rat[arch]] if arch else 0
                for arch in range(ops.NUM_REGS)]

    def finalize(self) -> SimResult:
        """Snapshot end-of-run gauges and wrap up the result.

        Split from :meth:`run` so a :class:`~repro.pipeline.system.
        System` that drives cores cycle-by-cycle can finalize each one
        after the whole system quiesces.
        """
        self.counters.set("cycles", self.cycle)
        self.counters.set("retired_instructions", self.retired)
        for key, value in self.hierarchy.stats().items():
            self.counters.set(key, value)
        self.counters.set("branch_mispredictions",
                          self.bpred.mispredictions)
        self.counters.set("branch_predictions", self.bpred.predictions)
        return SimResult(self.program.name, self.config, self.cycle,
                         self.retired, self.counters)

    # ------------------------------------------------------------------ cycle loop

    def _cycles(self) -> Iterator[None]:
        """The pipeline: yields after each simulated cycle and returns
        in the cycle the HALT retires."""
        config = self.config
        width_slots = range(config.width)
        num_fus = config.num_fus
        rob_size = config.rob_size
        branch_limit = config.fetch_branches_per_cycle
        validate = self.validate_trace
        idle_skip = self.idle_skip
        # The golden trace's columns (see GoldenTrace): fetch reads the
        # PC, retirement every column.
        trace = self.trace
        trace_len = len(trace)
        trace_pc = trace.pc
        trace_op = trace.op
        trace_dest = trace.dest
        store_rows = trace.store_rows
        store_addr = trace.store_addr
        store_data = trace.store_data
        counters = self.counters
        rob = self.rob
        rob_append = rob.append
        rob_popleft = rob.popleft
        completions = self._completions
        pop_due = completions.pop
        rename = self.rename
        rat = rename.rat
        values = rename.values
        ready = rename.ready
        free = rename._free
        free_pop = free.pop
        free_append = free.append
        scheduler = self.scheduler
        sched_capacity = scheduler.capacity
        ready_heap = scheduler.ready_heap
        phys_waiters = scheduler.phys_waiters
        tag_waiters = scheduler.tag_waiters
        select = scheduler.select
        tag_file = self.tag_file
        tag_is_ready = tag_file.is_ready
        subsystem = self.subsystem
        instructions = self.program.instructions
        num_insts = len(instructions)
        fetch = self.program.fetch
        inst_latency = self.hierarchy.inst_latency
        l1i = self.hierarchy.l1i
        line_shift = l1i._line_shift
        dispatch_mem = self._dispatch_mem
        predict = self._predict
        execute_mem = self._execute_mem
        execute_control = self._execute_control
        retire_mem = self._retire_mem
        retire_control = self._retire_control
        c_dispatched = self._c_dispatched
        c_idle_skipped = self._c_idle_skipped
        c_stall_rob = self._c_stall_rob
        c_stall_sched = self._c_stall_sched
        c_stall_phys = self._c_stall_phys
        reads_rs1 = ops.READS_RS1
        reads_rs2 = ops.READS_RS2
        writes_rd = ops.WRITES_RD
        nop = ops.NOP
        halt = ops.HALT

        while True:
            cycle = self.cycle
            observer = self.observer

            # 1. Writeback.
            due = pop_due(cycle, None)
            if due is not None:
                for inst in due:
                    if inst.squashed:
                        continue
                    inst.completed = True
                    phys = inst.rd_phys
                    if phys is not None:
                        values[phys] = inst.dest_value or 0
                        ready[phys] = True
                        # Wakeup: a waiter is listed once per source it
                        # reads this register through.
                        waiters = phys_waiters.pop(phys, None)
                        if waiters is not None:
                            for waiter in waiters:
                                if waiter.squashed or waiter.issued:
                                    continue
                                wait = waiter.wait_count - 1
                                waiter.wait_count = wait
                                if not wait and not waiter.stalled and \
                                        not waiter.in_ready:
                                    waiter.in_ready = True
                                    heappush(ready_heap,
                                             (waiter.seq, waiter))
                    tag = inst.produced_tag
                    if tag is not None:
                        # The idealized scheduler only wakes predicted
                        # consumers of accesses that complete successfully
                        # (Section 3).
                        tag_file.mark_ready(tag)
                        scheduler.on_tag_ready(tag)
                    if observer is not None:
                        observer.on_complete(inst, cycle)

            # 2. Retire from the ROB head.
            retired = self.retired
            for _ in width_slots:
                if not rob:
                    break
                head = rob[0]
                if not head.completed:
                    if head.stalled and head.inst.is_mem and \
                            not head.rob_head_bypass:
                        # ROB-lockup avoidance (Section 2.2): let the head
                        # access bypass the MDT/SFC.
                        head.rob_head_bypass = True
                        counters.incr("rob_head_bypass_grants")
                        scheduler.force_ready(head)
                    break
                static = head.inst
                if static.is_mem:
                    retire_mem(head)
                elif static.is_control:
                    retire_control(head)
                # Validation runs after retirement-replay correction so
                # the value compared against the golden trace is the
                # retiring one.  Once the opcode matches, the row holds a
                # destination value to check exactly when the instruction
                # renamed a destination other than r0, and is a store row
                # exactly when the instruction is a store.  A failing
                # check reads the row back as a RetireRecord for its
                # message.
                if validate:
                    if head.trace_index != retired:
                        raise SimulationError(
                            f"retired {head!r} out of order: trace index "
                            f"{head.trace_index} != retire count {retired}")
                    if head.pc != trace_pc[retired] or \
                            static.op != trace_op[retired]:
                        raise SimulationError(
                            f"retired {head!r} does not match "
                            f"trace[{retired}] {trace[retired]!r}")
                    if head.rd_phys is not None and \
                            head.dest_value != trace_dest[retired]:
                        record = trace[retired]
                        raise SimulationError(
                            f"wrong destination value at {head!r}: "
                            f"{head.dest_value} != {record.dest_value} "
                            f"(trace[{retired}] {record!r})")
                    if static.is_store:
                        slot = bisect_left(store_rows, retired)
                        if slot == len(store_rows) or \
                                store_rows[slot] != retired or \
                                head.addr != store_addr[slot] or \
                                head.store_data != store_data[slot]:
                            record = trace[retired]
                            raise SimulationError(
                                f"wrong store effect at {head!r}: "
                                f"{head.addr}/{head.store_data} != "
                                f"{record.store_addr}/{record.store_data} "
                                f"(trace[{retired}])")
                    if static.is_control and \
                            head.actual_target != trace_pc[retired + 1]:
                        raise SimulationError(
                            f"wrong control target at {head!r}: "
                            f"{head.actual_target:#x} != "
                            f"{trace_pc[retired + 1]:#x} "
                            f"(trace[{retired}])")
                phys = head.old_rd_phys
                if phys is not None:
                    ready[phys] = False
                    free_append(phys)
                if head.produced_tag is not None:
                    tag_file.release(head.produced_tag)
                rob_popleft()
                retired += 1
                if observer is not None:
                    observer.on_retire(head, cycle)
                if static.op == halt:
                    self.done = True
                    break
            self.retired = retired
            if self.done:
                return

            # 3. An MDT/SFC eviction lets every parked access retry.
            evictions = subsystem.eviction_events
            if evictions != self._last_evictions:
                self._last_evictions = evictions
                scheduler.clear_stall_bits()

            # 4. Select the cycle's group, then execute it.
            for inst in select(num_fus) if ready_heap else ():
                if inst.squashed:
                    continue
                static = inst.inst
                a = values[inst.rs1_phys]
                b = values[inst.rs2_phys]
                if static.is_mem:
                    latency = execute_mem(inst, a, b)
                elif static.is_control:
                    execute_control(inst, a, b)
                    latency = 1
                else:
                    op = static.op
                    if op == nop or op == halt:
                        latency = 1
                    else:
                        inst.dest_value = execute_op(op, a, b, static.imm)
                        latency = static.latency
                if latency is not None:
                    due_cycle = cycle + (latency if latency > 1 else 1)
                    pending = completions.get(due_cycle)
                    if pending is None:
                        completions[due_cycle] = [inst]
                    else:
                        pending.append(inst)
                if observer is not None:
                    observer.on_issue(inst, cycle)

            # 5. Fetch, rename and dispatch along the predicted path.
            fetch_progress = False
            fetch_pc = self._fetch_pc
            if fetch_pc is not None and cycle >= self._fetch_stall_until:
                trace_index = self._fetch_trace_index
                first_seq = seq = self.next_seq
                branches = 0
                # Nothing but this group's dispatches fills the ROB or the
                # window until the group ends.  (A replay can leave the
                # window over capacity, so its room can be negative.)
                rob_room = rob_size - len(rob)
                window_room = sched_capacity - scheduler.occupancy
                # The line the group fetched last, and how many fetches
                # re-read it: nothing else touches the L1I inside a fetch
                # group, so each of those is a hit on its set's MRU line.
                fetched_line = -1
                line_hits = 0
                for _ in width_slots:
                    if rob_room <= 0:
                        c_stall_rob.value += 1
                        break
                    if window_room <= 0:
                        c_stall_sched.value += 1
                        break
                    if not free:
                        c_stall_phys.value += 1
                        break
                    pc = fetch_pc
                    # Program.fetch's aligned in-range fast path; the slow
                    # path (pad/HALT for wrong-path fetch) stays in fetch().
                    index = pc >> 2
                    if index < num_insts and not pc & 3:
                        static = instructions[index]
                    else:
                        static = fetch(pc)
                    if static.is_load and not subsystem.can_dispatch_load():
                        counters.incr("dispatch_stalls_lq")
                        break
                    if static.is_store and \
                            not subsystem.can_dispatch_store():
                        counters.incr("dispatch_stalls_sq")
                        break
                    if static.is_control and branches >= branch_limit:
                        break
                    # Instruction cache: a miss stalls fetch; the lookup
                    # filled the line, so the re-fetch after the stall hits.
                    line = pc >> line_shift
                    if line == fetched_line:
                        line_hits += 1
                    else:
                        ilat = inst_latency(pc)
                        if ilat > 1:
                            self._fetch_stall_until = cycle + ilat - 1
                            break
                        fetched_line = line

                    if trace_index >= 0:
                        if trace_index >= trace_len:
                            raise SimulationError(
                                f"right-path fetch ran past the golden "
                                f"trace ({trace_len} records) at "
                                f"pc={pc:#x}; the trace does not belong "
                                f"to this program")
                        if trace_pc[trace_index] != pc:
                            raise SimulationError(
                                f"right-path fetch diverged: pc={pc:#x} "
                                f"but trace expects "
                                f"{trace_pc[trace_index]:#x} at "
                                f"index {trace_index}")
                    inst = DynInst(seq, pc, static, trace_index)

                    # Rename, listing the instruction once as a waiter on
                    # each source read that is not ready yet (the same
                    # register twice waits twice).  The RAT needs no
                    # checkpoint: recovery walks the undo log (each
                    # instruction's old_rd_phys).
                    wait = 0
                    op = static.op
                    if reads_rs1[op]:
                        phys = rat[static.rs1]
                        inst.rs1_phys = phys
                        if not ready[phys]:
                            waiters = phys_waiters.get(phys)
                            if waiters is None:
                                phys_waiters[phys] = [inst]
                            else:
                                waiters.append(inst)
                            wait = 1
                    if reads_rs2[op]:
                        phys = rat[static.rs2]
                        inst.rs2_phys = phys
                        if not ready[phys]:
                            waiters = phys_waiters.get(phys)
                            if waiters is None:
                                phys_waiters[phys] = [inst]
                            else:
                                waiters.append(inst)
                            wait += 1
                    rd = static.rd
                    if rd and writes_rd[op]:
                        inst.old_rd_phys = rat[rd]
                        phys = free_pop()
                        ready[phys] = False
                        rat[rd] = phys
                        inst.rd_phys = phys

                    # Window insert: a pending consumed dependence tag is
                    # one more wait; with none, straight onto the ready
                    # heap.
                    if static.is_mem:
                        dispatch_mem(inst)
                        tag = inst.consumed_tag
                        if tag is not None and not tag_is_ready(tag):
                            waiters = tag_waiters.get(tag)
                            if waiters is None:
                                tag_waiters[tag] = [inst]
                            else:
                                waiters.append(inst)
                            wait += 1
                    inst.wait_count = wait
                    if not wait:
                        inst.in_ready = True
                        heappush(ready_heap, (seq, inst))
                    seq += 1
                    rob_append(inst)
                    rob_room -= 1
                    window_room -= 1
                    if observer is not None:
                        observer.on_dispatch(inst, cycle)

                    # Next fetch PC and right-path tracking.
                    if static.is_control:
                        branches += 1
                        trace_index = predict(inst)
                        fetch_pc = inst.predicted_target
                    elif op == halt:
                        fetch_pc = None
                        break
                    else:
                        fetch_pc = (pc + INSTRUCTION_BYTES) & MASK64
                        if trace_index >= 0:
                            trace_index += 1
                l1i.accesses += line_hits
                self._fetch_pc = fetch_pc
                self._fetch_trace_index = trace_index
                self.next_seq = seq
                dispatched = seq - first_seq
                scheduler.occupancy += dispatched
                c_dispatched.value += dispatched
                fetch_progress = dispatched != 0

            # 6. Advance the clock, skipping guaranteed-idle spans.
            cycle += 1
            self.cycle = cycle
            if idle_skip and not fetch_progress and not ready_heap and \
                    not (rob and rob[0].completed):
                target = min(completions) if completions else -1
                stall = self._fetch_stall_until
                if self._fetch_pc is not None and stall > cycle:
                    if target < 0 or stall < target:
                        target = stall
                if target > cycle:
                    c_idle_skipped.value += target - cycle
                    cycle = target
                    self.cycle = cycle
            if observer is not None:
                observer.on_cycle(cycle)
            yield

    # ------------------------------------------------------------------ memory instructions

    def _dispatch_mem(self, inst: DynInst) -> None:
        """Memory dependence prediction (Section 2.1) and the memory
        subsystem's dispatch-time allocation."""
        static = inst.inst
        consumed, produced = self.predictor.on_dispatch(
            inst.pc, static.is_store, self.tag_file)
        inst.consumed_tag = consumed
        inst.produced_tag = produced
        if static.is_load:
            self.subsystem.dispatch_load(inst.seq, inst.pc)
        else:
            self.subsystem.dispatch_store(inst.seq, inst.pc)

    def _execute_mem(self, inst: DynInst, a: int, b: int) -> Optional[int]:
        """Issue a load/store to the memory subsystem.  Returns its
        latency, or None when it did not complete (replayed, or squashed
        by its own ordering violation)."""
        static = inst.inst
        op = static.op
        addr = (a + static.imm) & MASK64
        size = static.access_size
        inst.addr = addr
        watermark = self.rob[0].seq if self.rob else self.next_seq
        if static.is_load:
            self._c_executed_loads.value += 1
            outcome = self.subsystem.execute_load(
                inst.seq, inst.pc, addr, size, watermark,
                at_rob_head=inst.rob_head_bypass)
        else:
            data = b & ((1 << (8 * size)) - 1)
            inst.store_data = data
            self._c_executed_stores.value += 1
            outcome = self.subsystem.execute_store(
                inst.seq, inst.pc, addr, size, data, watermark,
                at_rob_head=inst.rob_head_bypass)

        if outcome.status == REPLAY:
            self._c_mem_replays.value += 1
            self.scheduler.replay(inst)
            return None

        for violation in outcome.train_only:
            self.predictor.on_violation(violation.kind,
                                        violation.producer_pc,
                                        violation.consumer_pc)
        if outcome.violations:
            self._ordering_violation(inst, outcome.violations)
        if inst.squashed:
            # An anti-dependence flush squashes the triggering load itself.
            return None
        if static.is_load:
            value = outcome.value or 0
            if op in SIGNED_LOADS:
                value = sign_extend(value, size * 8)
            inst.dest_value = value
        return outcome.latency

    def _retire_mem(self, head: DynInst) -> None:
        """Retire a load/store through the memory subsystem; stores write
        the architectural image here."""
        static = head.inst
        size = static.access_size
        if static.is_load:
            corrected, violations = self.subsystem.retire_load(
                head.seq, head.addr, size)
            self._c_retired_loads.value += 1
            if corrected is not None:
                # Value-based retirement replay (Cain & Lipasti): the
                # load consumed stale data; retire it with the corrected
                # value and flush everything that may have used the old
                # one.  The physical register becomes architectural state
                # here, so it must carry the corrected value too.  The
                # subsystem replays the raw memory bytes; signed loads
                # need the same extension the execute path applies.
                if static.op in SIGNED_LOADS:
                    corrected = sign_extend(corrected, size * 8)
                head.dest_value = corrected
                if head.rd_phys is not None:
                    self.rename.write(head.rd_phys, corrected)
            if violations:
                self._ordering_violation(head, violations)
        else:
            addr, size, data, violations = self.subsystem.retire_store(
                head.seq, head.addr, size,
                bypassed=head.rob_head_bypass, pc=head.pc)
            self.memory.write_int(addr, size, data)
            self.hierarchy.data_latency(addr)  # commit-port cache traffic
            self._c_retired_stores.value += 1
            if violations:
                # A bypassed store found younger loads that already read
                # stale data: conservative recovery flush (see
                # MemoryDisambiguationTable.check_store).
                self._ordering_violation(head, violations)

    # ------------------------------------------------------------------ control instructions

    def _predict(self, inst: DynInst) -> int:
        """Predict a fetched control instruction's target into
        ``inst.predicted_target``; on the right path the oracle reads the
        trace's taken flag and next PC.  Returns the next fetch's trace
        index (-1 once fetch leaves the architecturally correct path)."""
        static = inst.inst
        pc = inst.pc
        op = static.op
        index = inst.trace_index
        bpred = self.bpred
        if static.is_branch:
            if index >= 0:
                predicted = bpred.predict_with_oracle(
                    pc, self.trace.taken[index] == 1)
            else:
                predicted = bpred.predict(pc)
                bpred.predictions += 1
            inst.predicted_taken = predicted
            target = static.imm if predicted \
                else (pc + INSTRUCTION_BYTES) & MASK64
        else:
            if op == ops.J or op == ops.JAL:
                inst.predicted_target = static.imm
                return index + 1 if index >= 0 else -1
            target = bpred.predict_indirect(pc)
            if index >= 0:
                next_pc = self.trace.pc[index + 1]
                if target != next_pc and bpred.oracle_should_fix():
                    target = next_pc
        inst.predicted_target = target
        if index >= 0 and target == self.trace.pc[index + 1]:
            return index + 1
        return -1

    def _execute_control(self, inst: DynInst, a: int, b: int) -> None:
        """Resolve a control instruction; a mispredicted one redirects
        fetch."""
        static = inst.inst
        op = static.op
        if static.is_branch:
            inst.actual_taken = taken = branch_taken(op, a, b)
            inst.actual_target = static.imm if taken \
                else (inst.pc + INSTRUCTION_BYTES) & MASK64
        else:
            if op == ops.JR:
                inst.actual_target = a
            elif op == ops.JALR:
                inst.actual_target = (a + static.imm) & MASK64 & ~1
                inst.dest_value = (inst.pc + INSTRUCTION_BYTES) & MASK64
            else:  # J / JAL: the target is static, never mispredicted
                inst.actual_target = static.imm
                if op == ops.JAL:
                    inst.dest_value = \
                        (inst.pc + INSTRUCTION_BYTES) & MASK64
                return
        if inst.actual_target != inst.predicted_target:
            self._branch_mispredict(inst)

    def _retire_control(self, head: DynInst) -> None:
        """Train the branch predictor with a retiring control
        instruction."""
        op = head.inst.op
        if op in ops.BRANCH_OPS:
            self.bpred.update(head.pc, head.actual_taken,
                              head.predicted_taken)
        elif op == ops.JR or op == ops.JALR:
            self.bpred.update_indirect(head.pc, head.actual_target)

    # ------------------------------------------------------------------ recovery

    def _branch_mispredict(self, inst: DynInst) -> None:
        self.counters.incr("branch_mispredict_flushes")
        resume_trace = -1
        if inst.on_right_path:
            if inst.actual_target == self.trace.pc[inst.trace_index + 1]:
                resume_trace = inst.trace_index + 1
            # Otherwise the branch resolved from misspeculated inputs (a
            # stale load value whose ordering violation has not been
            # detected yet): the redirect target is itself wrong-path,
            # and the eventual violation flush re-fetches the truth.
        self._flush_after(inst.seq, inst.actual_target, resume_trace,
                          self.config.mispredict_penalty)

    def _ordering_violation(self, inst: DynInst,
                            violations: List) -> None:
        """Recover from MDT/LSQ-detected ordering violations."""
        flush_after = None
        for violation in violations:
            self.counters.incr(f"violation_flushes_{violation.kind}")
            self.predictor.on_violation(violation.kind,
                                        violation.producer_pc,
                                        violation.consumer_pc)
            if flush_after is None or \
                    violation.flush_after_seq < flush_after:
                flush_after = violation.flush_after_seq
        assert flush_after is not None
        penalty = self.config.mispredict_penalty + \
            self.subsystem.violation_extra_penalty
        first_squashed = self._squash_after(flush_after)
        if first_squashed is None:
            # Nothing younger in flight; fetch continues where it was.
            return
        resume_trace = first_squashed.trace_index
        self._redirect_fetch(first_squashed.pc, resume_trace, penalty)
        self.subsystem.on_partial_flush(flush_after, self.next_seq - 1)
        self.counters.incr("partial_flushes")

    def _flush_after(self, flush_after_seq: int, resume_pc: int,
                     resume_trace_index: int, penalty: int) -> None:
        """Partial pipeline flush with an explicit resume point."""
        self._squash_after(flush_after_seq)
        self._redirect_fetch(resume_pc, resume_trace_index, penalty)
        self.subsystem.on_partial_flush(flush_after_seq,
                                        self.next_seq - 1)
        self.counters.incr("partial_flushes")

    def _squash_after(self, flush_after_seq: int) -> Optional[DynInst]:
        """Squash every instruction younger than the flush point.

        Returns the oldest squashed instruction (None when nothing was
        squashed).  The RAT is recovered through the undo log: walking
        the squashed instructions youngest-first and re-mapping each
        destination back to ``old_rd_phys`` (the mapping that instruction
        displaced at rename) reconstructs exactly the pre-rename RAT of
        the oldest squashed instruction, without per-dispatch snapshots.
        """
        rob = self.rob
        rename = self.rename
        rat = rename.rat
        scheduler = self.scheduler
        tag_file = self.tag_file
        observer = self.observer
        first_squashed: Optional[DynInst] = None
        squashed_count = 0
        while rob and rob[-1].seq > flush_after_seq:
            dead = rob.pop()
            dead.squashed = True
            scheduler.note_squashed(dead)
            if dead.produced_tag is not None:
                tag_file.mark_ready(dead.produced_tag)
                scheduler.on_tag_ready(dead.produced_tag)
                tag_file.release(dead.produced_tag)
            if dead.rd_phys is not None:
                rat[dead.inst.rd] = dead.old_rd_phys
                rename.release(dead.rd_phys)
            if observer is not None:
                observer.on_squash(dead, self.cycle)
            first_squashed = dead
            squashed_count += 1
        if first_squashed is not None:
            self.counters.incr("squashed_instructions", squashed_count)
            scheduler.squash_after()
        return first_squashed

    def _redirect_fetch(self, resume_pc: int, resume_trace_index: int,
                        penalty: int) -> None:
        self._fetch_pc = resume_pc
        self._fetch_trace_index = resume_trace_index
        # A redirect supersedes any pending stall for the abandoned path.
        self._fetch_stall_until = self.cycle + penalty
