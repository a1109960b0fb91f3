"""Random structured program generator for property-based testing.

Generates programs that always halt (loops are counted, branches are
forward-skips) while exercising the hazards the memory subsystems must
handle: loads and stores of every width to a small shared arena (dense
aliasing), store data fed by long-latency chains (late-executing stores ->
true-dependence violations), and data-dependent branches (wrong-path
execution and partial flushes).

The property under test: for any generated program, the out-of-order
pipeline retires exactly the architectural trace, under every memory
subsystem configuration.  The pipeline itself enforces this (retirement
validation raises :class:`~repro.pipeline.processor.SimulationError`), so
the property test only needs to run programs to completion.
"""

from __future__ import annotations

import random

from ..isa import instructions as ops
from ..isa.assembler import Assembler
from ..isa.program import Program

#: Register conventions inside generated programs.
DATA_REGS = [f"r{i}" for i in range(1, 14)]
LOOP_REGS = ["r16", "r17", "r18"]
BASE_REG = "r20"
SCRATCH = "r15"

ARENA_BASE = 0x10000
ARENA_BYTES = 256          # small arena => dense aliasing

_LOAD_EMITTERS = ["lb", "lbu", "lh", "lhu", "lw", "lwu", "ld"]
_STORE_EMITTERS = ["sb", "sh", "sw", "sd"]
_SIZE_OF = {ops.OPCODE_NAMES[op]: size
            for op, size in ops.ACCESS_SIZE.items()}
_ALU_OPS = ["add", "sub", "and_", "or_", "xor", "slt", "sltu"]
_IMM_OPS = ["addi", "andi", "ori", "xori"]
_LONG_OPS = ["mul", "fadd", "fmul"]


class RandomProgramBuilder:
    """Builds one random, always-halting program from a seed."""

    def __init__(self, seed: int, max_blocks: int = 12,
                 loop_depth_limit: int = 2):
        self.rng = random.Random(seed)
        self.seed = seed
        self.max_blocks = max_blocks
        self.loop_depth_limit = loop_depth_limit
        self.asm = Assembler()
        self._label_counter = 0
        self._loop_regs_in_use = 0

    def _fresh_label(self, prefix: str) -> str:
        self._label_counter += 1
        return f"{prefix}_{self._label_counter}"

    def _reg(self) -> str:
        return self.rng.choice(DATA_REGS)

    def _offset(self, size: int) -> int:
        # Aligned offsets within the arena; alignment keeps accesses
        # inside one SFC word except for deliberate 8-byte accesses.
        slots = ARENA_BYTES // size
        return self.rng.randrange(slots) * size

    # -- block emitters -------------------------------------------------------

    def _emit_alu(self) -> None:
        rng = self.rng
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.5:
                getattr(self.asm, rng.choice(_ALU_OPS))(
                    self._reg(), self._reg(), self._reg())
            elif kind < 0.8:
                getattr(self.asm, rng.choice(_IMM_OPS))(
                    self._reg(), self._reg(), rng.randint(-64, 64))
            else:
                getattr(self.asm, rng.choice(_LONG_OPS))(
                    self._reg(), self._reg(), self._reg())

    def _emit_memory(self) -> None:
        rng = self.rng
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.5:
                op = rng.choice(_LOAD_EMITTERS)
                getattr(self.asm, op)(self._reg(), BASE_REG,
                                      self._offset(_SIZE_OF[op]))
            else:
                op = rng.choice(_STORE_EMITTERS)
                getattr(self.asm, op)(self._reg(), BASE_REG,
                                      self._offset(_SIZE_OF[op]))

    def _emit_indexed_memory(self) -> None:
        """Register-computed (possibly word-straddling) addressing."""
        rng = self.rng
        index = self._reg()
        # SCRATCH = base + (index & (ARENA_BYTES/2 - 1)): always in the
        # arena, any byte alignment, so 4/8-byte accesses can straddle
        # SFC words and MDT granules.
        self.asm.andi(SCRATCH, index, ARENA_BYTES // 2 - 1)
        self.asm.add(SCRATCH, SCRATCH, BASE_REG)
        if rng.random() < 0.5:
            op = rng.choice(_LOAD_EMITTERS)
            getattr(self.asm, op)(self._reg(), SCRATCH, 0)
        else:
            op = rng.choice(_STORE_EMITTERS)
            data = self._reg()
            if data == SCRATCH:
                data = DATA_REGS[0]
            getattr(self.asm, op)(data, SCRATCH, 0)

    def _emit_late_store_pattern(self) -> None:
        """Store fed by a long chain, then a load of the same address --
        the canonical true-dependence-violation shape."""
        rng = self.rng
        src = self._reg()
        dst = self._reg()
        op = rng.choice(_STORE_EMITTERS)
        size = _SIZE_OF[op]
        offset = self._offset(size)
        self.asm.mul(src, src, src)
        if rng.random() < 0.5:
            self.asm.mul(src, src, src)
        getattr(self.asm, op)(src, BASE_REG, offset)
        load_op = {1: "lbu", 2: "lhu", 4: "lwu", 8: "ld"}[size]
        getattr(self.asm, load_op)(dst, BASE_REG, offset)

    def _emit_branch(self, depth: int) -> None:
        """A data-dependent forward skip (wrong-path fodder)."""
        rng = self.rng
        skip = self._fresh_label("skip")
        reg = self._reg()
        self.asm.andi(SCRATCH, reg, rng.choice([1, 3, 7]))
        if rng.random() < 0.5:
            self.asm.beq(SCRATCH, "r0", skip)
        else:
            self.asm.bne(SCRATCH, "r0", skip)
        self._emit_body(depth + 1)  # the skippable side
        self.asm.label(skip)

    def _emit_loop(self, depth: int) -> None:
        rng = self.rng
        counter = LOOP_REGS[self._loop_regs_in_use]
        self._loop_regs_in_use += 1
        top = self._fresh_label("loop")
        self.asm.li(counter, rng.randint(2, 6))
        self.asm.label(top)
        self._emit_body(depth + 1)
        self.asm.addi(counter, counter, -1)
        self.asm.bne(counter, "r0", top)
        self._loop_regs_in_use -= 1

    def _emit_body(self, depth: int) -> None:
        rng = self.rng
        choice = rng.random()
        if choice < 0.25:
            self._emit_alu()
        elif choice < 0.5:
            self._emit_memory()
        elif choice < 0.6:
            self._emit_indexed_memory()
        elif choice < 0.75:
            self._emit_late_store_pattern()
        elif choice < 0.9 and depth < self.loop_depth_limit and \
                self._loop_regs_in_use < len(LOOP_REGS):
            self._emit_loop(depth)
        elif depth < 4:
            self._emit_branch(depth)
        else:
            self._emit_alu()

    # -- top level ---------------------------------------------------------------

    def build(self) -> Program:
        rng = self.rng
        asm = self.asm
        asm.li(BASE_REG, ARENA_BASE)
        for reg in DATA_REGS:
            asm.li(reg, rng.getrandbits(16))
        arena = bytes(rng.getrandbits(8) for _ in range(ARENA_BYTES))
        asm.data(ARENA_BASE, arena)
        for _ in range(rng.randint(3, self.max_blocks)):
            self._emit_body(depth=0)
        asm.halt()
        return asm.build(name=f"random-{self.seed}")


def random_program(seed: int, max_blocks: int = 12) -> Program:
    """Generate one random, always-halting hazard-rich program."""
    return RandomProgramBuilder(seed, max_blocks=max_blocks).build()


class FuzzProgramBuilder(RandomProgramBuilder):
    """Adversarial variant of the generator for differential fuzzing.

    Extends :class:`RandomProgramBuilder` with the access shapes most
    likely to expose memory-subsystem divergence:

    * **unaligned offsets** -- immediate-addressed accesses at any byte
      offset, so 2/4/8-byte accesses straddle SFC words and MDT granules
      without going through the register-indexed path;
    * **byte-granularity partial forwarding** -- a wide store followed by
      narrow loads of its interior bytes (forwardable sub-ranges) and a
      narrow store followed by a wide load over it (a partial match the
      SFC must *refuse* to forward);
    * **overlapping stores** -- differently sized stores over the same
      bytes, then a load of the overlap (output-dependence and
      merge-order fodder);
    * **deeper loop nests** -- loop depth 3 (every loop register), so
      stores retire while aliasing loads from the next iteration are
      already in flight.
    """

    def __init__(self, seed: int, max_blocks: int = 12,
                 loop_depth_limit: int = 3):
        super().__init__(seed, max_blocks=max_blocks,
                         loop_depth_limit=loop_depth_limit)

    def _offset(self, size: int) -> int:
        # One access in four lands on an arbitrary byte boundary.
        if self.rng.random() < 0.25:
            return self.rng.randrange(ARENA_BYTES - size)
        return super()._offset(size)

    def _emit_partial_forward(self) -> None:
        rng = self.rng
        wide_op, wide_size = rng.choice([("sw", 4), ("sd", 8)])
        offset = rng.randrange(ARENA_BYTES - wide_size)
        getattr(self.asm, wide_op)(self._reg(), BASE_REG, offset)
        if rng.random() < 0.5:
            # Narrow loads of the wide store's interior bytes.
            for _ in range(rng.randint(1, 3)):
                narrow_op, narrow_size = rng.choice(
                    [("lbu", 1), ("lb", 1), ("lhu", 2), ("lh", 2)])
                inner = rng.randrange(wide_size - narrow_size + 1)
                getattr(self.asm, narrow_op)(self._reg(), BASE_REG,
                                             offset + inner)
        else:
            # A narrow store inside the range, then a wide load over it:
            # the load partially matches in-flight store data.
            narrow_op, narrow_size = rng.choice([("sb", 1), ("sh", 2)])
            inner = rng.randrange(wide_size - narrow_size + 1)
            getattr(self.asm, narrow_op)(self._reg(), BASE_REG,
                                         offset + inner)
            load_op = {4: "lwu", 8: "ld"}[wide_size]
            getattr(self.asm, load_op)(self._reg(), BASE_REG, offset)

    def _emit_overlapping_stores(self) -> None:
        rng = self.rng
        offset = rng.randrange(ARENA_BYTES - 16)
        ops = rng.sample(_STORE_EMITTERS, 2)
        for op in ops:
            shift = rng.randrange(4)
            getattr(self.asm, op)(self._reg(), BASE_REG, offset + shift)
        load_op = rng.choice(_LOAD_EMITTERS)
        getattr(self.asm, load_op)(self._reg(), BASE_REG, offset)

    def _emit_body(self, depth: int) -> None:
        choice = self.rng.random()
        if choice < 0.12:
            self._emit_partial_forward()
        elif choice < 0.2:
            self._emit_overlapping_stores()
        else:
            super()._emit_body(depth)


def fuzz_program(seed: int, max_blocks: int = 12) -> Program:
    """Generate one adversarial program for the differential fuzzer."""
    return FuzzProgramBuilder(seed, max_blocks=max_blocks).build()
