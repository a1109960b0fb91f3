"""A small programmatic assembler for building workload kernels.

The assembler is a builder: each mnemonic method appends one instruction,
labels mark branch targets, and :meth:`Assembler.build` resolves label
references into byte addresses and returns a :class:`Program`.

The mnemonic methods are not written out one by one: at import, each
opcode gets the emitter of its operand format
(:data:`~repro.isa.instructions.OPERAND_FORMAT`), named after its
mnemonic (``and_`` and ``or_`` where the mnemonic is a Python keyword).
Their parameters follow the operands' assembly order: ``(rd, rs1,
rs2)``, ``(rd, rs1, imm)``, ``(rd, imm)``, ``(rd, base, offset=0)`` for
loads and ``jalr``, ``(src, base, offset=0)`` for stores, ``(rs1, rs2,
target)`` for branches, ``(target)``, ``(rd, target)``, ``(rs1)`` or
none.  ``mov`` is the one pseudo-instruction.

Example
-------
>>> a = Assembler()
>>> a.li("r1", 0)
>>> a.li("r2", 10)
>>> a.label("loop")
>>> a.addi("r1", "r1", 1)
>>> a.bne("r1", "r2", "loop")
>>> a.halt()
>>> program = a.build(name="count")
"""

from __future__ import annotations

import keyword
from typing import Dict, List, Optional, Union

from . import instructions as ops
from .instructions import Instruction
from .program import INSTRUCTION_BYTES, Program

Reg = Union[int, str]
Target = Union[int, str]


def parse_reg(reg: Reg) -> int:
    """Convert ``"r7"`` or ``7`` to a register index, validating range."""
    if isinstance(reg, str):
        if not reg.startswith("r"):
            raise ValueError(f"bad register name {reg!r}")
        reg = int(reg[1:])
    if not 0 <= reg < ops.NUM_REGS:
        raise ValueError(f"register index {reg} out of range")
    return reg


class AssemblyError(Exception):
    """Raised for malformed programs (duplicate or undefined labels)."""


class _LabelRef:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Assembler:
    """Builder that assembles instruction sequences with symbolic labels."""

    def __init__(self):
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._data: Dict[int, bytes] = {}

    # -- structure ----------------------------------------------------------

    def label(self, name: str) -> None:
        """Define ``name`` as the address of the next instruction."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions) * INSTRUCTION_BYTES

    def data(self, addr: int, payload: bytes) -> None:
        """Place ``payload`` into the initial data segment at ``addr``."""
        self._data[addr] = bytes(payload)

    def data_words(self, addr: int, values, width: int = 8) -> None:
        """Place little-endian integers of ``width`` bytes starting at addr."""
        blob = b"".join(
            (v & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
            for v in values
        )
        self.data(addr, blob)

    def here(self) -> int:
        """Byte address of the next instruction to be emitted."""
        return len(self._instructions) * INSTRUCTION_BYTES

    def build(self, name: str = "program",
              data: Optional[Dict[int, bytes]] = None) -> Program:
        """Resolve labels and produce an executable :class:`Program`."""
        resolved: List[Instruction] = []
        for inst in self._instructions:
            if isinstance(inst.imm, _LabelRef):
                target = self._labels.get(inst.imm.name)
                if target is None:
                    raise AssemblyError(f"undefined label {inst.imm.name!r}")
                inst = Instruction(inst.op, inst.rd, inst.rs1, inst.rs2,
                                   target)
            resolved.append(inst)
        merged = dict(self._data)
        if data:
            merged.update(data)
        return Program(resolved, data=merged, name=name)

    # -- pseudo-instructions --------------------------------------------------

    def mov(self, rd: Reg, rs1: Reg) -> None:
        """Pseudo-instruction: ``add rd, rs1, r0``."""
        self.add(rd, rs1, 0)


def _target(target: Target):
    if isinstance(target, str):
        return _LabelRef(target)
    return target


# One emitter per operand format (:data:`repro.isa.instructions.
# OPERAND_FORMAT`), made once per opcode with the opcode bound in.

def _rrr(op: int):
    def emit(self, rd: Reg, rs1: Reg, rs2: Reg) -> None:
        self._instructions.append(Instruction(
            op, parse_reg(rd), parse_reg(rs1), parse_reg(rs2)))
    return emit


def _rri(op: int):
    def emit(self, rd: Reg, rs1: Reg, imm: int) -> None:
        self._instructions.append(Instruction(
            op, parse_reg(rd), parse_reg(rs1), 0, imm))
    return emit


def _ri(op: int):
    def emit(self, rd: Reg, imm: int) -> None:
        self._instructions.append(Instruction(op, parse_reg(rd), 0, 0, imm))
    return emit


def _load(op: int):
    def emit(self, rd: Reg, base: Reg, offset: int = 0) -> None:
        self._instructions.append(Instruction(
            op, parse_reg(rd), parse_reg(base), 0, offset))
    return emit


def _store(op: int):
    def emit(self, src: Reg, base: Reg, offset: int = 0) -> None:
        self._instructions.append(Instruction(
            op, 0, parse_reg(base), parse_reg(src), offset))
    return emit


def _branch(op: int):
    def emit(self, rs1: Reg, rs2: Reg, target: Target) -> None:
        self._instructions.append(Instruction(
            op, 0, parse_reg(rs1), parse_reg(rs2), _target(target)))
    return emit


def _j(op: int):
    def emit(self, target: Target) -> None:
        self._instructions.append(Instruction(op, 0, 0, 0, _target(target)))
    return emit


def _jal(op: int):
    def emit(self, rd: Reg, target: Target) -> None:
        self._instructions.append(Instruction(
            op, parse_reg(rd), 0, 0, _target(target)))
    return emit


def _jr(op: int):
    def emit(self, rs1: Reg) -> None:
        self._instructions.append(Instruction(op, 0, parse_reg(rs1)))
    return emit


def _none(op: int):
    def emit(self) -> None:
        self._instructions.append(Instruction(op))
    return emit


_EMITTERS = {
    ops.FMT_RRR: _rrr, ops.FMT_RRI: _rri, ops.FMT_RI: _ri,
    ops.FMT_LOAD: _load, ops.FMT_STORE: _store, ops.FMT_BRANCH: _branch,
    ops.FMT_J: _j, ops.FMT_JAL: _jal, ops.FMT_JR: _jr, ops.FMT_NONE: _none,
}

#: The :class:`Assembler` method of each opcode: its mnemonic, with a
#: trailing underscore where that is a Python keyword (``and_``, ``or_``).
METHOD_NAMES = {op: name + "_" if keyword.iskeyword(name) else name
                for op, name in ops.OPCODE_NAMES.items()}

for _op, _format in ops.OPERAND_FORMAT.items():
    _method = _EMITTERS[_format](_op)
    _method.__name__ = METHOD_NAMES[_op]
    _method.__qualname__ = f"Assembler.{_method.__name__}"
    setattr(Assembler, _method.__name__, _method)
