"""Program container: code image plus initial data segment.

Instructions occupy 4 bytes each starting at address 0; data lives anywhere
in the 64-bit address space.  Fetching past the end of the code image yields
``nop`` padding followed by a ``halt`` -- this matters because the simulator
executes down mispredicted paths, which may run off the end of the program.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from .instructions import HALT, NOP, Instruction

INSTRUCTION_BYTES = 4

#: How many nop instructions are implicitly appended past the end of the
#: code image before the implicit halt.  Wrong-path fetch may fall through
#: the last instruction; the pad keeps it harmless until the flush arrives.
WRONG_PATH_PAD = 64

_NOP = Instruction(NOP)
_HALT = Instruction(HALT)


class Program:
    """An executable image: instruction list + initial memory contents."""

    def __init__(self, instructions: List[Instruction],
                 data: Optional[Dict[int, bytes]] = None,
                 name: str = "program"):
        self.instructions = instructions
        self.data = dict(data or {})
        self.name = name

    def __len__(self) -> int:
        return len(self.instructions)

    @classmethod
    def from_riscv(cls, source, name: Optional[str] = None) -> "Program":
        """Load RV32 machine code (a ``.hex``/``.txt`` hex text or
        ``.bin`` flat binary path, raw binary bytes, or an iterable of
        32-bit words) and translate it to an executable internal-ISA
        program.  See :func:`repro.isa.riscv.load_words`."""
        from .riscv import load_program  # local import: avoid a cycle
        return load_program(source, name=name)

    def predecoded(self):
        """Dense-array predecoded form (see :mod:`repro.isa.predecode`).

        Cached globally by content digest, so identical images -- however
        they were built -- share one predecode and its compiled blocks.
        """
        from .predecode import predecode  # local import: avoid a cycle
        return predecode(self)

    def __getstate__(self) -> dict:
        # The predecode memo holds exec-compiled blocks, which do not
        # pickle; an engine worker predecodes again if it needs to.
        state = dict(self.__dict__)
        state.pop("_predecode_memo", None)
        return state

    def fetch(self, pc: int) -> Instruction:
        """Return the instruction at byte address ``pc``.

        Unaligned or out-of-range addresses return pad instructions rather
        than raising, because wrong-path execution routinely produces them.
        """
        if pc & (INSTRUCTION_BYTES - 1):
            return _NOP
        index = pc >> 2
        instructions = self.instructions
        if 0 <= index < len(instructions):
            return instructions[index]
        if len(instructions) <= index < len(instructions) + WRONG_PATH_PAD:
            return _NOP
        return _HALT

    def pc_of(self, index: int) -> int:
        """Byte address of the instruction at position ``index``."""
        return index * INSTRUCTION_BYTES

    def disassemble(self) -> str:
        """Human-readable listing of the code image."""
        lines = []
        for i, inst in enumerate(self.instructions):
            lines.append(f"{i * INSTRUCTION_BYTES:#06x}: {inst!r}")
        return "\n".join(lines)

    def to_asm(self) -> str:
        """Complete textual form: data directives plus the disassembly.

        Unlike :meth:`disassemble`, the output carries the initial data
        segments, so ``parse_asm(program.to_asm())`` rebuilds an
        equivalent program -- the replayable-corpus and failure-shrinking
        machinery in :mod:`repro.verify` round-trips programs through
        this form.  Branch targets appear as absolute byte addresses.
        """
        lines = []
        for addr in sorted(self.data):
            payload = self.data[addr]
            for start in range(0, len(payload), 16):
                chunk = payload[start:start + 16]
                lines.append(f".data {addr + start:#x} bytes "
                             + " ".join(str(b) for b in chunk))
        for inst in self.instructions:
            lines.append(repr(inst))
        return "\n".join(lines)

    def digest(self) -> str:
        """Content hash (sha256 hex) of the executable image.

        Covers every instruction field and every data segment, but not
        the display name, so two identically generated programs compare
        equal.  Guards the random-program generator against
        nondeterminism (dict-order or global-``random`` leakage)."""
        hasher = hashlib.sha256()
        for inst in self.instructions:
            hasher.update(repr((inst.op, inst.rd, inst.rs1, inst.rs2,
                                inst.imm)).encode())
        for addr in sorted(self.data):
            hasher.update(repr(addr).encode())
            hasher.update(self.data[addr])
        return hasher.hexdigest()
