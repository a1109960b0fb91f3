"""In-order architectural simulator (ISS).

Runs a :class:`~repro.isa.program.Program` to completion, producing a golden
retirement trace (a :class:`GoldenTrace`).  The out-of-order pipeline
validates every retired instruction against this trace, mirroring the
paper's methodology ("the results produced by retiring instructions are
validated against a trace generated by an architectural simulator").
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterator, List, Optional

from ..memory.main_memory import MainMemory
from . import instructions as ops
from .instructions import MASK64, sign_extend, to_signed
from .predecode import K_J, K_JAL
from .program import INSTRUCTION_BYTES, Program


class RetireRecord:
    """Architectural effects of one retired instruction.

    ``dest_value`` is the value written to the destination register (None
    when the instruction has none), ``store_addr``/``store_data``
    describe the memory write (None for non-stores), and ``next_pc`` is
    the architecturally correct successor PC.
    """

    __slots__ = ("pc", "op", "dest_value", "store_addr", "store_data",
                 "next_pc", "taken")

    def __init__(self, pc: int, op: int, dest_value: Optional[int],
                 store_addr: Optional[int], store_data: Optional[int],
                 next_pc: int, taken: bool):
        self.pc = pc
        self.op = op
        self.dest_value = dest_value
        self.store_addr = store_addr
        self.store_data = store_data
        self.next_pc = next_pc
        self.taken = taken

    def __repr__(self) -> str:
        name = ops.OPCODE_NAMES.get(self.op, f"op{self.op}")
        return (f"RetireRecord(pc={self.pc:#x} {name} val={self.dest_value} "
                f"st={self.store_addr}/{self.store_data})")


class GoldenTrace:
    """A golden retirement trace stored as columns, one compact sequence
    per field, instead of one :class:`RetireRecord` per instruction.

    Row ``i`` is the ``i``-th instruction retired:

    * ``pc`` -- a list with one entry more than there are rows: ``pc[i]``
      is row ``i``'s PC and ``pc[i + 1]`` its architecturally correct
      successor (the last entry is the PC after the last row);
    * ``op`` -- a bytearray of opcodes;
    * ``taken`` -- a bytearray, 1 where the row transferred control;
    * ``dest`` -- a list of the values written to the destination
      register, 0 in rows whose opcode writes none
      (:data:`~repro.isa.instructions.WRITES_RD` is false);
    * ``store_rows``, ``store_addr``, ``store_data`` -- typed arrays with
      one entry per store row, in row order: its row index, address and
      data.

    The pipeline reads ``pc`` and ``dest`` once per instruction, so they
    are lists, whose reads allocate nothing; a typed array would make a
    new int on every read of a value above 256.  Equal destination
    values share one int object.  ``len()``, ``trace[i]`` (negative
    ``i`` and slices too) and iteration read rows back as
    :class:`RetireRecord` objects built on demand.  A trace pickles as
    its column buffers.

    :meth:`Interpreter.record` builds one; ``Interpreter.step(trace)``
    appends a row.
    """

    __slots__ = ("pc", "op", "taken", "dest", "store_rows", "store_addr",
                 "store_data")

    def __init__(self):
        self.pc: List[int] = []
        self.op = bytearray()
        self.taken = bytearray()
        self.dest: List[int] = []
        self.store_rows = array("L")
        self.store_addr = array("Q")
        self.store_data = array("Q")

    def _close(self, next_pc: int) -> None:
        """Append the PC after the last row, and let equal destination
        values share one int object."""
        self.pc.append(next_pc)
        shared: dict = {}
        self.dest = list(map(shared.setdefault, self.dest, self.dest))

    def __len__(self) -> int:
        return len(self.op)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self.op)))]
        rows = len(self.op)
        if index < 0:
            index += rows
        if not 0 <= index < rows:
            raise IndexError(f"trace index {index} out of range "
                             f"({rows} rows)")
        op = self.op[index]
        store_addr = store_data = None
        slot = bisect_left(self.store_rows, index)
        if slot < len(self.store_rows) and self.store_rows[slot] == index:
            store_addr = self.store_addr[slot]
            store_data = self.store_data[slot]
        return RetireRecord(
            self.pc[index], op,
            self.dest[index] if ops.WRITES_RD[op] else None,
            store_addr, store_data, self.pc[index + 1],
            self.taken[index] == 1)

    def __iter__(self) -> Iterator[RetireRecord]:
        return map(self.__getitem__, range(len(self.op)))

    def __reduce__(self):
        return (_load_trace, (
            array("Q", self.pc).tobytes(), bytes(self.op),
            bytes(self.taken), array("Q", self.dest).tobytes(),
            self.store_rows.tobytes(), self.store_addr.tobytes(),
            self.store_data.tobytes()))

    def __repr__(self) -> str:
        return (f"GoldenTrace({len(self.op)} rows, "
                f"{len(self.store_rows)} stores)")


def _load_trace(pc: bytes, op: bytes, taken: bytes, dest: bytes,
                store_rows: bytes, store_addr: bytes,
                store_data: bytes) -> GoldenTrace:
    """Unpickle a :class:`GoldenTrace` from its column buffers."""
    trace = GoldenTrace()
    trace.pc = array("Q", pc).tolist()
    trace.op = bytearray(op)
    trace.taken = bytearray(taken)
    trace.dest = array("Q", dest).tolist()
    trace.store_rows.frombytes(store_rows)
    trace.store_addr.frombytes(store_addr)
    trace.store_data.frombytes(store_data)
    return trace


class ExecutionLimitExceeded(Exception):
    """The program did not halt within the instruction budget."""


MASK32 = (1 << 32) - 1


def _signed32(value: int) -> int:
    """Interpret the low 32 bits of ``value`` as two's-complement signed."""
    value &= MASK32
    return value - (1 << 32) if value & (1 << 31) else value


def execute_op(op: int, a: int, b: int, imm: int) -> int:
    """Pure ALU semantics shared by the ISS and the OoO execute stage.

    ``a``/``b`` are the source register values; ``imm`` is the immediate.
    Returns the 64-bit unsigned result.  Memory and control opcodes are
    handled by the callers, not here.
    """
    # Ordered by rough dynamic frequency: the immediate-ALU forms and ADD
    # dominate every workload, so they are tested first.
    if op == ops.ADDI:
        return (a + imm) & MASK64
    if op == ops.ADD:
        return (a + b) & MASK64
    if op == ops.LI:
        return imm & MASK64
    if op == ops.SUB:
        return (a - b) & MASK64
    if op == ops.AND:
        return a & b
    if op == ops.OR:
        return a | b
    if op == ops.XOR:
        return a ^ b
    if op == ops.SLT:
        return 1 if to_signed(a) < to_signed(b) else 0
    if op == ops.SLTU:
        return 1 if a < b else 0
    if op == ops.SLL:
        return (a << (b & 63)) & MASK64
    if op == ops.SRL:
        return a >> (b & 63)
    if op == ops.SRA:
        return (to_signed(a) >> (b & 63)) & MASK64
    if op == ops.ANDI:
        return a & (imm & MASK64)
    if op == ops.ORI:
        return a | (imm & MASK64)
    if op == ops.XORI:
        return a ^ (imm & MASK64)
    if op == ops.SLTI:
        return 1 if to_signed(a) < imm else 0
    if op == ops.SLLI:
        return (a << (imm & 63)) & MASK64
    if op == ops.SRLI:
        return a >> (imm & 63)
    if op == ops.SRAI:
        return (to_signed(a) >> (imm & 63)) & MASK64
    if op in (ops.MUL, ops.FMUL):
        return (a * b) & MASK64
    if op == ops.DIV:
        sa, sb = to_signed(a), to_signed(b)
        if sb == 0:
            return MASK64
        quotient = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            quotient = -quotient
        return quotient & MASK64
    if op == ops.REM:
        sa, sb = to_signed(a), to_signed(b)
        if sb == 0:
            return a
        remainder = abs(sa) % abs(sb)
        if sa < 0:
            remainder = -remainder
        return remainder & MASK64
    if op in (ops.FADD,):
        return (a + b) & MASK64
    if op == ops.FSUB:
        return (a - b) & MASK64
    if op == ops.FDIV:
        if b == 0:
            return MASK64
        return (a // b) & MASK64
    # 32-bit ("W") operations with exact RV32 semantics, appended after the
    # original opcode checks so the hot-path ordering above is untouched.
    # Every W result is the sign-extension of its 32-bit value.
    if op == ops.ADDW:
        return sign_extend((a + b) & MASK32, 32)
    if op == ops.ADDIW:
        return sign_extend((a + imm) & MASK32, 32)
    if op == ops.SUBW:
        return sign_extend((a - b) & MASK32, 32)
    if op == ops.SLLW:
        return sign_extend((a << (b & 31)) & MASK32, 32)
    if op == ops.SRLW:
        return sign_extend((a & MASK32) >> (b & 31), 32)
    if op == ops.SRAW:
        return sign_extend((_signed32(a) >> (b & 31)) & MASK32, 32)
    if op == ops.SLLIW:
        return sign_extend((a << (imm & 31)) & MASK32, 32)
    if op == ops.SRLIW:
        return sign_extend((a & MASK32) >> (imm & 31), 32)
    if op == ops.SRAIW:
        return sign_extend((_signed32(a) >> (imm & 31)) & MASK32, 32)
    if op == ops.SLTIU:
        return 1 if a < (imm & MASK64) else 0
    if op == ops.MULW:
        return sign_extend((a * b) & MASK32, 32)
    if op == ops.MULHW:
        return sign_extend(((_signed32(a) * _signed32(b)) >> 32) & MASK32, 32)
    if op == ops.MULHSUW:
        return sign_extend(((_signed32(a) * (b & MASK32)) >> 32) & MASK32, 32)
    if op == ops.MULHUW:
        return sign_extend((((a & MASK32) * (b & MASK32)) >> 32) & MASK32, 32)
    if op == ops.DIVW:
        sa, sb = _signed32(a), _signed32(b)
        if sb == 0:
            return MASK64  # RV32: division by zero yields all ones.
        quotient = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            quotient = -quotient
        # The INT_MIN / -1 overflow wraps back to INT_MIN via the 32-bit mask.
        return sign_extend(quotient & MASK32, 32)
    if op == ops.DIVUW:
        ua, ub = a & MASK32, b & MASK32
        if ub == 0:
            return MASK64  # RV32: unsigned division by zero yields 2**32-1.
        return sign_extend((ua // ub) & MASK32, 32)
    if op == ops.REMW:
        sa, sb = _signed32(a), _signed32(b)
        if sb == 0:
            return sign_extend(sa & MASK32, 32)  # RV32: dividend.
        remainder = abs(sa) % abs(sb)
        if sa < 0:
            remainder = -remainder
        return sign_extend(remainder & MASK32, 32)
    if op == ops.REMUW:
        ua, ub = a & MASK32, b & MASK32
        if ub == 0:
            return sign_extend(ua, 32)  # RV32: dividend.
        return sign_extend(ua % ub, 32)
    raise ValueError(f"execute_op cannot handle opcode {op}")


def branch_taken(op: int, a: int, b: int) -> bool:
    """Resolve a conditional branch's direction from its source values."""
    if op == ops.BEQ:
        return a == b
    if op == ops.BNE:
        return a != b
    if op == ops.BLT:
        return to_signed(a) < to_signed(b)
    if op == ops.BGE:
        return to_signed(a) >= to_signed(b)
    if op == ops.BLTU:
        return a < b
    if op == ops.BGEU:
        return a >= b
    raise ValueError(f"opcode {op} is not a conditional branch")


def load_value(memory: MainMemory, op: int, addr: int) -> int:
    """Perform a load of the given opcode from functional memory."""
    size = ops.ACCESS_SIZE[op]
    raw = memory.read_int(addr, size)
    if op in ops.SIGNED_LOADS:
        return sign_extend(raw, size * 8)
    return raw


class Interpreter:
    """Executes a program in order, recording the retirement trace.

    ``load_segments=False`` leaves a caller-supplied ``memory`` untouched
    instead of re-stamping the program image over it -- required when the
    memory already *is* mid-run state (checkpoint restore, shared-memory
    reuse), where re-initialising the data segments would silently undo
    every store executed so far.
    """

    def __init__(self, program: Program,
                 memory: Optional[MainMemory] = None,
                 load_segments: bool = True):
        self.program = program
        self.memory = memory if memory is not None else MainMemory()
        if load_segments:
            self.memory.load_segments(program.data)
        self.regs: List[int] = [0] * ops.NUM_REGS
        self.pc = 0
        self.halted = False
        self.instructions_retired = 0
        # Predecoded image, resolved lazily on first execution so cheap
        # construct-and-inspect uses never pay for the digest/predecode.
        self._pd = None

    def _predecoded(self):
        pd = self._pd
        if pd is None:
            pd = self._pd = self.program.predecoded()
        return pd

    def step(self, trace: Optional[GoldenTrace] = None
             ) -> Optional[RetireRecord]:
        """Execute one instruction; return its retire record, or None if
        the machine has already halted.  With ``trace``, append the
        instruction's row to that trace's columns instead, and return
        None.

        The one per-instruction implementation of the ISA: the golden
        trace is built from it (:meth:`record`), and :meth:`fast_forward`
        steps every instruction its compiled blocks and inline direct
        jumps do not cover.  An unaligned or out-of-range PC executes the
        pad instruction :meth:`Program.fetch` returns."""
        if self.halted:
            return None
        pc = self.pc
        pd = self._predecoded()
        index = pc >> 2
        if not (pc & 3) and 0 <= index < pd.length:
            op = pd.op[index]
            rd = pd.rd[index]
            imm = pd.imm[index]
            regs = self.regs
            a = regs[pd.rs1[index]]
            b = regs[pd.rs2[index]]
        else:
            op = self.program.fetch(pc).op  # the pad: a nop or the halt
            rd = imm = 0
            regs = self.regs
            a = b = 0
        dest_value: Optional[int] = None
        store_addr: Optional[int] = None
        store_data: Optional[int] = None
        next_pc = pc + INSTRUCTION_BYTES
        taken = False

        if op == ops.HALT:
            self.halted = True
            next_pc = pc
        elif op == ops.NOP:
            pass
        elif op in ops.LOAD_OPS:
            addr = (a + imm) & MASK64
            dest_value = load_value(self.memory, op, addr)
        elif op in ops.STORE_OPS:
            store_addr = (a + imm) & MASK64
            size = ops.ACCESS_SIZE[op]
            store_data = b & ((1 << (8 * size)) - 1)
            self.memory.write_int(store_addr, size, store_data)
        elif op in ops.BRANCH_OPS:
            taken = branch_taken(op, a, b)
            if taken:
                next_pc = imm
        elif op == ops.J:
            taken = True
            next_pc = imm
        elif op == ops.JAL:
            taken = True
            dest_value = (pc + INSTRUCTION_BYTES) & MASK64
            next_pc = imm
        elif op == ops.JR:
            taken = True
            next_pc = a
        elif op == ops.JALR:
            taken = True
            dest_value = (pc + INSTRUCTION_BYTES) & MASK64
            next_pc = (a + imm) & MASK64 & ~1
        else:
            dest_value = execute_op(op, a, b, imm)

        if dest_value is not None and rd != 0:
            regs[rd] = dest_value

        self.pc = next_pc
        self.instructions_retired += 1
        if trace is None:
            return RetireRecord(pc, op, dest_value, store_addr, store_data,
                                next_pc, taken)
        if store_addr is not None:
            trace.store_rows.append(len(trace.op))
            trace.store_addr.append(store_addr)
            trace.store_data.append(store_data)
        trace.pc.append(pc)
        trace.op.append(op)
        trace.taken.append(taken)
        trace.dest.append(dest_value or 0)
        return None

    def _step_warm(self, bpred, hierarchy) -> None:
        """:meth:`step` one instruction, training the warm state a
        pipeline would have trained: the I-cache at its PC, the D-cache
        at a load's or store's address, and ``bpred`` as
        ``update(pc, taken, predict(pc))`` for a conditional branch or
        with the target of a JR/JALR."""
        pc = self.pc
        hierarchy.inst_latency(pc)
        pd = self._predecoded()
        index = pc >> 2
        addr = None
        if not pc & 3 and 0 <= index < pd.length and pd.size[index]:
            # Before the step: a load may overwrite its base register.
            addr = (self.regs[pd.rs1[index]] + pd.imm[index]) & MASK64
        record = self.step()
        if addr is not None:
            hierarchy.data_latency(addr)
        if record.op in ops.BRANCH_OPS:
            bpred.update(pc, record.taken, bpred.predict(pc))
        elif record.op == ops.JR or record.op == ops.JALR:
            bpred.update_indirect(pc, record.next_pc)

    def fast_forward(self, count: int, bpred, hierarchy) -> int:
        """Execute up to ``count`` instructions *without* building retire
        records, training ``bpred`` and ``hierarchy`` on the way -- the
        checkpointing fast-forward engine.

        Architecturally identical to calling :meth:`step` ``count`` times
        (same registers, memory, PC, retire count afterwards), but runs
        straight-line basic blocks, with the conditional branch that
        ends them, as "superinstruction" functions compiled from the
        predecoded arrays (:mod:`repro.isa.predecode`), and J and JAL
        inline, which is what makes checkpoint-based sampling faster
        than full detailed simulation.  Every other instruction is
        stepped: a run the budget or the full block table leaves over
        (stepped in one go), a conditional branch no block folded, JR,
        JALR, HALT, an opcode ``execute_op`` rejects (which raises with
        the PC, retire count and registers stepping leaves), and
        unaligned or pad PCs.

        A block runs on Python locals and the memory's pages: it loads
        the registers it reads once and stores back the ones it wrote,
        and reads and writes ``self.memory._pages`` directly, calling
        ``read_int``/``write_int`` only for an access that crosses a
        page or finds none.  A ``MainMemory`` subclass that overrides
        those two methods is therefore bypassed on the block path.

        Every conditional branch trains ``bpred`` (a
        :class:`~repro.branch.gshare.GsharePredictor`; a folded branch
        updates its counters and global history inside the block,
        without the oracle, so no RNG state is consumed) and every
        fetch/access touches ``hierarchy`` (a
        :class:`~repro.memory.cache.CacheHierarchy`), filling tag arrays
        the way a warm pipeline would have.  A compiled block performs
        each L1 hit's LRU update inline and calls the hierarchy only on
        an L1 miss: a hit reaches no other level.

        The warm state this leaves -- every ``export_state()`` capsule
        -- is bit-identical to :meth:`fast_forward_reference`'s.  The
        statistics of ``bpred`` and ``hierarchy`` are not: an inline L1
        hit is not counted in ``Cache.accesses``, and inline training
        counts no ``GsharePredictor`` predictions or mispredictions.

        Returns the number of instructions actually executed (less than
        ``count`` only if the program halts first).
        """
        if self.halted or count <= 0:
            return 0
        pd = self._predecoded()
        regs = self.regs
        memory = self.memory
        pg = memory._pages.get
        rdint = memory.read_int
        wrint = memory.write_int
        kind = pd.kind
        run_len = pd.run_len
        p_rd = pd.rd
        p_imm = pd.imm
        n = pd.length
        il = hierarchy.inst_latency
        dl = hierarchy.data_latency
        l1i = hierarchy.l1i
        l1d = hierarchy.l1d
        isets = l1i._sets
        dsets = l1d._sets
        counters = bpred._counters
        key = (l1i._line_shift, l1i._set_mask, l1d._line_shift,
               l1d._set_mask, bpred._mask, bpred._history_mask)
        blocks = pd.blocks(key)
        step_warm = self._step_warm
        retired = self.instructions_retired
        pc = self.pc
        left = count
        while left > 0:
            blk = blocks.get(pc)
            if blk is not None and blk[1] <= left:
                # A compiled block that fits the budget: it trains the
                # caches and gshare and returns the next PC.
                pc = blk[0](regs, pg, rdint, wrint, execute_op, il, dl,
                            isets, dsets, bpred, counters)
                left -= blk[1]
                continue
            index = pc >> 2
            steps = 1
            if not pc & 3 and 0 <= index < n:
                if blk is None and run_len[index] \
                        and pd.compile_block(index, key) is not None:
                    continue
                k = kind[index]
                if k == K_J or k == K_JAL:
                    il(pc)
                    rd = p_rd[index]
                    if k == K_JAL and rd:
                        regs[rd] = (pc + INSTRUCTION_BYTES) & MASK64
                    pc = p_imm[index]
                    left -= 1
                    continue
                # A run left over by the budget or the full block table
                # is stepped in one go, so that no block is compiled in
                # its middle.
                steps = min(run_len[index], left) or 1
            # Everything else is stepped: hand step() the PC and retire
            # count, and take the PC back after.
            self.pc = pc
            self.instructions_retired = retired + count - left
            for _ in range(steps):
                step_warm(bpred, hierarchy)
            pc = self.pc
            left -= steps
            if self.halted:
                break
        self.pc = pc
        executed = count - left
        self.instructions_retired = retired + executed
        return executed

    def fast_forward_reference(self, count: int, bpred, hierarchy) -> int:
        """Fast-forward by :meth:`step` plus per-instruction training of
        ``bpred`` and ``hierarchy``: the warm-state reference for
        :meth:`fast_forward`.

        It runs neither the compiled blocks nor the dispatcher's inline
        paths, so ``tests/test_predecode.py`` checks against it the
        registers, memory, retire count and warm bpred/cache capsules
        they leave.  Returns the number of instructions executed.
        """
        executed = 0
        while executed < count and not self.halted:
            self._step_warm(bpred, hierarchy)
            executed += 1
        return executed

    def record(self, count: int) -> GoldenTrace:
        """Step up to ``count`` instructions, stopping once the machine
        halts, and return their rows as a :class:`GoldenTrace`: the one
        builder of golden traces, for whole runs (:meth:`run`) and for
        sampled windows' suffixes alike."""
        trace = GoldenTrace()
        step = self.step
        for _ in range(count):
            if self.halted:
                break
            step(trace)
        trace._close(self.pc)
        return trace

    def run(self, max_instructions: int = 1_000_000) -> GoldenTrace:
        """Run to halt (or budget), returning the full retirement trace.

        A program that halts on exactly the ``max_instructions``-th
        instruction returns its trace normally; the limit only trips when
        the budget is exhausted with the machine still running.
        """
        trace = self.record(max_instructions)
        if not self.halted:
            raise ExecutionLimitExceeded(
                f"program {self.program.name!r} did not halt within "
                f"{max_instructions} instructions")
        return trace


def run_program(program: Program,
                max_instructions: int = 1_000_000) -> GoldenTrace:
    """Convenience wrapper: interpret ``program`` and return its trace."""
    return Interpreter(program).run(max_instructions)
