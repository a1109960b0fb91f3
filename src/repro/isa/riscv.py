"""RV32I(+M) frontend: run real RISC-V instruction streams on the simulator.

The rest of the stack (interpreter oracle, OoO pipeline, checkpointed
fast-forward, differential fuzzer) speaks the internal 64-bit ISA of
:mod:`repro.isa.instructions`.  This module accepts real RV32 machine code
-- raw hex word lists, flat little-endian binary images (``.bin`` files or
raw bytes), or ``.hex`` text files in the synapse32 style (one word per
line, ``#``/``//`` comments), each source read by one rule
(:func:`load_words`) -- and translates it 1:1 into internal instructions,
one internal instruction per RV32 word at the same byte address, so branch
offsets and ``jal`` link values need no relocation.

Translation model
-----------------
The internal machine is 64-bit; RV32 results are represented under the
RV64 convention that *every register holds the sign-extension of its
32-bit value*.  Arithmetic that can overflow 32 bits maps to the
W-opcodes (``ADDW``/``SUBW``/``MULW``/... with exact RV32 semantics,
including division edge cases and 5-bit shift amounts); bitwise ops,
comparisons, branches, loads and stores map directly because
sign-extension preserves bit patterns, 32-bit signed/unsigned ordering,
and low-order memory bytes.

Boundaries (documented, asserted by tests):

* Addresses are computed in 64 bits (RV64-style): a base+offset sum that
  would wrap around 2**32 on real RV32 hardware lands in high 64-bit
  space here instead.  Oracle and pipeline agree, so conformance holds,
  but programs relying on 32-bit address wraparound are out of scope.
* ``fence``/``fence.i`` translate to ``nop`` (single core, strong
  ordering); ``ecall``/``ebreak`` translate to ``halt``.
* CSR instructions and anything outside RV32IM raise
  :class:`UnsupportedInstructionError` (a :class:`DecodeError`).
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Union

from . import instructions as ops
from .instructions import Instruction
from .program import INSTRUCTION_BYTES, Program

MASK32 = (1 << 32) - 1

__all__ = [
    "DecodeError",
    "UnsupportedInstructionError",
    "RVInstruction",
    "RVAssembler",
    "decode_word",
    "encode",
    "translate",
    "words_from_hex_text",
    "words_from_binary",
    "load_words",
    "load_program",
]


class DecodeError(ValueError):
    """An instruction word is not a valid, supported RV32 encoding."""

    def __init__(self, message: str, word: Optional[int] = None,
                 pc: Optional[int] = None):
        if word is not None:
            where = f" (word={word & MASK32:#010x}"
            where += f", pc={pc:#x})" if pc is not None else ")"
            message += where
        super().__init__(message)
        self.word = word
        self.pc = pc


class UnsupportedInstructionError(DecodeError):
    """A real RV32 encoding this frontend deliberately does not model
    (CSR accesses, privileged instructions, other extensions)."""


class RVInstruction:
    """One decoded RV32 instruction: mnemonic plus raw operand fields.

    ``imm`` is the fully sign-extended immediate as a Python int (the
    PC-relative *offset* for branches/``jal``, not an absolute target);
    for shifts it is the 5-bit shamt, for ``lui``/``auipc`` the
    already-shifted 32-bit immediate.
    """

    __slots__ = ("mnemonic", "rd", "rs1", "rs2", "imm")

    def __init__(self, mnemonic: str, rd: int = 0, rs1: int = 0,
                 rs2: int = 0, imm: int = 0):
        self.mnemonic = mnemonic
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm

    def key(self):
        return (self.mnemonic, self.rd, self.rs1, self.rs2, self.imm)

    def __eq__(self, other) -> bool:
        return isinstance(other, RVInstruction) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return (f"RVInstruction({self.mnemonic!r}, rd={self.rd}, "
                f"rs1={self.rs1}, rs2={self.rs2}, imm={self.imm})")


# --- decode -----------------------------------------------------------------

def _sext(value: int, bits: int) -> int:
    """Sign-extend ``value`` from ``bits`` bits to a Python int."""
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


_BRANCH_F3 = {0: "beq", 1: "bne", 4: "blt", 5: "bge", 6: "bltu", 7: "bgeu"}
_LOAD_F3 = {0: "lb", 1: "lh", 2: "lw", 4: "lbu", 5: "lhu"}
_STORE_F3 = {0: "sb", 1: "sh", 2: "sw"}
_OPIMM_F3 = {0: "addi", 2: "slti", 3: "sltiu", 4: "xori", 6: "ori",
             7: "andi"}
_OP_F3 = {  # (funct3, funct7) -> mnemonic
    (0, 0x00): "add", (0, 0x20): "sub",
    (1, 0x00): "sll", (2, 0x00): "slt", (3, 0x00): "sltu",
    (4, 0x00): "xor", (5, 0x00): "srl", (5, 0x20): "sra",
    (6, 0x00): "or", (7, 0x00): "and",
    (0, 0x01): "mul", (1, 0x01): "mulh", (2, 0x01): "mulhsu",
    (3, 0x01): "mulhu", (4, 0x01): "div", (5, 0x01): "divu",
    (6, 0x01): "rem", (7, 0x01): "remu",
}


def decode_word(word: int, pc: Optional[int] = None) -> RVInstruction:
    """Decode one 32-bit RV32I(+M) instruction word.

    Raises :class:`DecodeError` on invalid encodings and
    :class:`UnsupportedInstructionError` on valid-but-unmodelled ones
    (CSR/privileged).  Never raises ``KeyError``.
    """
    if not isinstance(word, int):
        raise DecodeError(f"instruction word must be an int, "
                          f"got {type(word).__name__}", pc=pc)
    if not 0 <= word <= MASK32:
        raise DecodeError("instruction word out of 32-bit range",
                          word=word, pc=pc)
    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    funct3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    funct7 = word >> 25

    if opcode == 0x37:  # LUI
        return RVInstruction("lui", rd=rd, imm=_sext(word & 0xFFFFF000, 32))
    if opcode == 0x17:  # AUIPC
        return RVInstruction("auipc", rd=rd, imm=_sext(word & 0xFFFFF000, 32))
    if opcode == 0x6F:  # JAL
        imm = _sext(((word >> 31) << 20)
                    | (((word >> 21) & 0x3FF) << 1)
                    | (((word >> 20) & 1) << 11)
                    | (((word >> 12) & 0xFF) << 12), 21)
        return RVInstruction("jal", rd=rd, imm=imm)
    if opcode == 0x67:  # JALR
        if funct3 != 0:
            raise DecodeError("jalr requires funct3=0", word=word, pc=pc)
        return RVInstruction("jalr", rd=rd, rs1=rs1, imm=_sext(word >> 20, 12))
    if opcode == 0x63:  # conditional branches
        mnemonic = _BRANCH_F3.get(funct3)
        if mnemonic is None:
            raise DecodeError(f"invalid branch funct3={funct3}",
                              word=word, pc=pc)
        imm = _sext(((word >> 31) << 12)
                    | (((word >> 25) & 0x3F) << 5)
                    | (((word >> 8) & 0xF) << 1)
                    | (((word >> 7) & 1) << 11), 13)
        return RVInstruction(mnemonic, rs1=rs1, rs2=rs2, imm=imm)
    if opcode == 0x03:  # loads
        mnemonic = _LOAD_F3.get(funct3)
        if mnemonic is None:
            raise DecodeError(f"invalid load funct3={funct3}",
                              word=word, pc=pc)
        return RVInstruction(mnemonic, rd=rd, rs1=rs1,
                             imm=_sext(word >> 20, 12))
    if opcode == 0x23:  # stores
        mnemonic = _STORE_F3.get(funct3)
        if mnemonic is None:
            raise DecodeError(f"invalid store funct3={funct3}",
                              word=word, pc=pc)
        imm = _sext((funct7 << 5) | rd, 12)
        return RVInstruction(mnemonic, rs1=rs1, rs2=rs2, imm=imm)
    if opcode == 0x13:  # OP-IMM
        if funct3 == 1:  # slli
            if funct7 != 0:
                raise DecodeError("slli requires funct7=0", word=word, pc=pc)
            return RVInstruction("slli", rd=rd, rs1=rs1, imm=rs2)
        if funct3 == 5:  # srli / srai
            if funct7 == 0x00:
                return RVInstruction("srli", rd=rd, rs1=rs1, imm=rs2)
            if funct7 == 0x20:
                return RVInstruction("srai", rd=rd, rs1=rs1, imm=rs2)
            raise DecodeError(f"invalid shift funct7={funct7:#x}",
                              word=word, pc=pc)
        mnemonic = _OPIMM_F3[funct3]  # funct3 1/5 handled; rest all valid
        return RVInstruction(mnemonic, rd=rd, rs1=rs1,
                             imm=_sext(word >> 20, 12))
    if opcode == 0x33:  # OP (register-register, incl. the M extension)
        mnemonic = _OP_F3.get((funct3, funct7))
        if mnemonic is None:
            raise DecodeError(
                f"invalid OP funct3={funct3} funct7={funct7:#x}",
                word=word, pc=pc)
        return RVInstruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2)
    if opcode == 0x0F:  # MISC-MEM
        if funct3 == 0:
            return RVInstruction("fence", rd=rd, rs1=rs1,
                                 imm=_sext(word >> 20, 12))
        if funct3 == 1:
            return RVInstruction("fence.i", rd=rd, rs1=rs1,
                                 imm=_sext(word >> 20, 12))
        raise DecodeError(f"invalid MISC-MEM funct3={funct3}",
                          word=word, pc=pc)
    if opcode == 0x73:  # SYSTEM
        if funct3 == 0:
            funct12 = word >> 20
            if rd == 0 and rs1 == 0 and funct12 == 0:
                return RVInstruction("ecall")
            if rd == 0 and rs1 == 0 and funct12 == 1:
                return RVInstruction("ebreak")
            raise UnsupportedInstructionError(
                "privileged SYSTEM instruction is not modelled",
                word=word, pc=pc)
        raise UnsupportedInstructionError(
            "CSR instructions are not modelled", word=word, pc=pc)
    raise DecodeError(f"invalid major opcode {opcode:#04x}",
                      word=word, pc=pc)


# --- encode (round-trip support for tests and corpus generation) ------------

_R_ENC = {  # mnemonic -> (funct3, funct7)
    "add": (0, 0x00), "sub": (0, 0x20), "sll": (1, 0x00), "slt": (2, 0x00),
    "sltu": (3, 0x00), "xor": (4, 0x00), "srl": (5, 0x00), "sra": (5, 0x20),
    "or": (6, 0x00), "and": (7, 0x00),
    "mul": (0, 0x01), "mulh": (1, 0x01), "mulhsu": (2, 0x01),
    "mulhu": (3, 0x01), "div": (4, 0x01), "divu": (5, 0x01),
    "rem": (6, 0x01), "remu": (7, 0x01),
}
_I_ENC = {"addi": 0, "slti": 2, "sltiu": 3, "xori": 4, "ori": 6, "andi": 7}
_SHIFT_ENC = {"slli": (1, 0x00), "srli": (5, 0x00), "srai": (5, 0x20)}
_LOAD_ENC = {"lb": 0, "lh": 1, "lw": 2, "lbu": 4, "lhu": 5}
_STORE_ENC = {"sb": 0, "sh": 1, "sw": 2}
_BRANCH_ENC = {"beq": 0, "bne": 1, "blt": 4, "bge": 5, "bltu": 6, "bgeu": 7}


def encode(rv: RVInstruction) -> int:
    """Re-encode a decoded instruction into its RV32 word.

    Exact inverse of :func:`decode_word` for every accepted encoding:
    ``encode(decode_word(w)) == w``.
    """
    m, rd, rs1, rs2 = rv.mnemonic, rv.rd, rv.rs1, rv.rs2
    imm = rv.imm
    if m in _R_ENC:
        f3, f7 = _R_ENC[m]
        return (f7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) \
            | (rd << 7) | 0x33
    if m in _I_ENC:
        return ((imm & 0xFFF) << 20) | (rs1 << 15) | (_I_ENC[m] << 12) \
            | (rd << 7) | 0x13
    if m in _SHIFT_ENC:
        f3, f7 = _SHIFT_ENC[m]
        return (f7 << 25) | ((imm & 0x1F) << 20) | (rs1 << 15) | (f3 << 12) \
            | (rd << 7) | 0x13
    if m in _LOAD_ENC:
        return ((imm & 0xFFF) << 20) | (rs1 << 15) | (_LOAD_ENC[m] << 12) \
            | (rd << 7) | 0x03
    if m in _STORE_ENC:
        return (((imm >> 5) & 0x7F) << 25) | (rs2 << 20) | (rs1 << 15) \
            | (_STORE_ENC[m] << 12) | ((imm & 0x1F) << 7) | 0x23
    if m in _BRANCH_ENC:
        return (((imm >> 12) & 1) << 31) | (((imm >> 5) & 0x3F) << 25) \
            | (rs2 << 20) | (rs1 << 15) | (_BRANCH_ENC[m] << 12) \
            | (((imm >> 1) & 0xF) << 8) | (((imm >> 11) & 1) << 7) | 0x63
    if m == "lui":
        return (imm & 0xFFFFF000) | (rd << 7) | 0x37
    if m == "auipc":
        return (imm & 0xFFFFF000) | (rd << 7) | 0x17
    if m == "jal":
        return (((imm >> 20) & 1) << 31) | (((imm >> 1) & 0x3FF) << 21) \
            | (((imm >> 11) & 1) << 20) | (((imm >> 12) & 0xFF) << 12) \
            | (rd << 7) | 0x6F
    if m == "jalr":
        return ((imm & 0xFFF) << 20) | (rs1 << 15) | (rd << 7) | 0x67
    if m == "fence":
        return ((imm & 0xFFF) << 20) | (rs1 << 15) | (rd << 7) | 0x0F
    if m == "fence.i":
        return ((imm & 0xFFF) << 20) | (rs1 << 15) | (1 << 12) \
            | (rd << 7) | 0x0F
    if m == "ecall":
        return 0x00000073
    if m == "ebreak":
        return 0x00100073
    raise DecodeError(f"cannot encode mnemonic {m!r}")


class RVAssembler:
    """Tiny two-pass RV32 assembler over :class:`RVInstruction` +
    :func:`encode` -- enough to write corpus and fuzz programs as real
    machine code with symbolic branch labels."""

    def __init__(self):
        self._items: List[object] = []
        self._labels: dict = {}

    def label(self, name: str) -> None:
        if name in self._labels:
            raise DecodeError(f"duplicate label {name!r}")
        self._labels[name] = len(self._items) * INSTRUCTION_BYTES

    def emit(self, mnemonic: str, rd: int = 0, rs1: int = 0, rs2: int = 0,
             imm: int = 0) -> None:
        self._items.append(RVInstruction(mnemonic, rd=rd, rs1=rs1,
                                         rs2=rs2, imm=imm))

    def branch(self, mnemonic: str, rs1: int, rs2: int, label: str) -> None:
        """A conditional branch to a symbolic label."""
        self._items.append(("branch", mnemonic, rs1, rs2, label))

    def jal(self, rd: int, label: str) -> None:
        self._items.append(("jal", rd, label))

    def li32(self, rd: int, value: int) -> None:
        """Materialise a 32-bit constant via the lui/addi idiom (with the
        +0x800 rounding that compensates addi's sign-extension)."""
        lo = (value & 0xFFF) - ((value & 0x800) << 1)
        hi = (value - lo) & MASK32
        self.emit("lui", rd=rd, imm=hi - (1 << 32) if hi >> 31 else hi)
        if lo:
            self.emit("addi", rd=rd, rs1=rd, imm=lo)

    def here(self) -> int:
        return len(self._items) * INSTRUCTION_BYTES

    def words(self) -> List[int]:
        """Resolve labels and return the encoded instruction words."""
        out: List[int] = []
        for index, item in enumerate(self._items):
            pc = index * INSTRUCTION_BYTES
            if isinstance(item, RVInstruction):
                rv = item
            elif item[0] == "branch":
                _, mnemonic, rs1, rs2, label = item
                if label not in self._labels:
                    raise DecodeError(f"undefined label {label!r}")
                rv = RVInstruction(mnemonic, rs1=rs1, rs2=rs2,
                                   imm=self._labels[label] - pc)
            else:
                _, rd, label = item
                if label not in self._labels:
                    raise DecodeError(f"undefined label {label!r}")
                rv = RVInstruction("jal", rd=rd,
                                   imm=self._labels[label] - pc)
            out.append(encode(rv))
        return out

    def build(self, name: str = "riscv") -> Program:
        return translate(self.words(), name=name)


# --- translation ------------------------------------------------------------

# mnemonic -> internal opcode, for the classes that map field-for-field.
_DIRECT_RRR = {
    "add": ops.ADDW, "sub": ops.SUBW, "sll": ops.SLLW, "srl": ops.SRLW,
    "sra": ops.SRAW, "slt": ops.SLT, "sltu": ops.SLTU,
    "xor": ops.XOR, "or": ops.OR, "and": ops.AND,
    "mul": ops.MULW, "mulh": ops.MULHW, "mulhsu": ops.MULHSUW,
    "mulhu": ops.MULHUW, "div": ops.DIVW, "divu": ops.DIVUW,
    "rem": ops.REMW, "remu": ops.REMUW,
}
_DIRECT_RRI = {
    "addi": ops.ADDIW, "slti": ops.SLTI, "sltiu": ops.SLTIU,
    "xori": ops.XORI, "ori": ops.ORI, "andi": ops.ANDI,
    "slli": ops.SLLIW, "srli": ops.SRLIW, "srai": ops.SRAIW,
}
_DIRECT_LOAD = {"lb": ops.LB, "lh": ops.LH, "lw": ops.LW,
                "lbu": ops.LBU, "lhu": ops.LHU}
_DIRECT_STORE = {"sb": ops.SB, "sh": ops.SH, "sw": ops.SW}
_DIRECT_BRANCH = {"beq": ops.BEQ, "bne": ops.BNE, "blt": ops.BLT,
                  "bge": ops.BGE, "bltu": ops.BLTU, "bgeu": ops.BGEU}


def _translate_one(rv: RVInstruction, pc: int) -> Instruction:
    m = rv.mnemonic
    op = _DIRECT_RRR.get(m)
    if op is not None:
        return Instruction(op, rd=rv.rd, rs1=rv.rs1, rs2=rv.rs2)
    op = _DIRECT_RRI.get(m)
    if op is not None:
        return Instruction(op, rd=rv.rd, rs1=rv.rs1, imm=rv.imm)
    op = _DIRECT_LOAD.get(m)
    if op is not None:
        return Instruction(op, rd=rv.rd, rs1=rv.rs1, imm=rv.imm)
    op = _DIRECT_STORE.get(m)
    if op is not None:
        # Internal store convention: rs1 = base, rs2 = data source.
        return Instruction(op, rs1=rv.rs1, rs2=rv.rs2, imm=rv.imm)
    op = _DIRECT_BRANCH.get(m)
    if op is not None:
        # Internal branches carry the absolute byte target.
        return Instruction(op, rs1=rv.rs1, rs2=rv.rs2, imm=pc + rv.imm)
    if m == "lui":
        return Instruction(ops.LI, rd=rv.rd, imm=rv.imm)
    if m == "auipc":
        return Instruction(ops.LI, rd=rv.rd,
                           imm=_sext((pc + rv.imm) & MASK32, 32))
    if m == "jal":
        if rv.rd == 0:
            return Instruction(ops.J, imm=pc + rv.imm)
        return Instruction(ops.JAL, rd=rv.rd, imm=pc + rv.imm)
    if m == "jalr":
        return Instruction(ops.JALR, rd=rv.rd, rs1=rv.rs1, imm=rv.imm)
    if m in ("fence", "fence.i"):
        return Instruction(ops.NOP)
    if m in ("ecall", "ebreak"):
        return Instruction(ops.HALT)
    raise DecodeError(f"cannot translate mnemonic {m!r}", pc=pc)


def translate(words: Iterable[int], name: str = "riscv") -> Program:
    """Translate a sequence of RV32 words into an executable Program.

    Instruction ``i`` of the result sits at the same byte address
    ``4*i`` as its RV32 source, so PC-relative control flow needs no
    relocation.  A ``halt`` sentinel is appended after the stream so a
    program that falls off the end stops immediately instead of sliding
    through the wrong-path ``nop`` pad.
    """
    internal: List[Instruction] = []
    for index, word in enumerate(words):
        pc = index * INSTRUCTION_BYTES
        internal.append(_translate_one(decode_word(word, pc=pc), pc))
    internal.append(Instruction(ops.HALT))
    return Program(internal, name=name)


# --- image loaders ----------------------------------------------------------

def words_from_hex_text(text: str) -> List[int]:
    """Parse ``.hex`` text: whitespace/comma-separated hex words, one or
    more per line; ``#``, ``//`` and ``;`` start comments; an optional
    ``0x`` prefix is accepted."""
    words: List[int] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split("//", 1)[0].split(";", 1)[0]
        for token in line.replace(",", " ").split():
            body = token[2:] if token[:2].lower() == "0x" else token
            try:
                value = int(body, 16)
            except ValueError:
                raise DecodeError(
                    f"line {line_number}: bad hex word {token!r}") from None
            if not 0 <= value <= MASK32:
                raise DecodeError(
                    f"line {line_number}: word {token!r} out of 32-bit "
                    f"range")
            words.append(value)
    return words


def words_from_binary(blob: bytes) -> List[int]:
    """Split a flat binary image into little-endian 32-bit words."""
    if len(blob) % 4:
        raise DecodeError(f"flat binary image length {len(blob)} is not a "
                          f"multiple of 4")
    return [int.from_bytes(blob[i:i + 4], "little")
            for i in range(0, len(blob), 4)]


Source = Union[str, "os.PathLike[str]", bytes, bytearray, Iterable[int]]

#: Path suffixes read as hex text and as a flat little-endian binary.
HEX_SUFFIXES = (".hex", ".txt")
BINARY_SUFFIXES = (".bin",)


def load_words(source: Source) -> List[int]:
    """Extract RV32 words from a path, raw bytes, or an int iterable.

    One rule per source, with no guessing: a path ending in ``.hex`` or
    ``.txt`` is hex text, a path ending in ``.bin`` and raw ``bytes``
    are a flat little-endian binary, and an int iterable is the words
    themselves.  Any other path, and an image that holds no instruction
    words, raise :class:`DecodeError`.
    """
    where = "image"
    if isinstance(source, (str, os.PathLike)):
        path = where = os.fspath(source)
        suffix = os.path.splitext(path)[1].lower()
        if suffix not in HEX_SUFFIXES + BINARY_SUFFIXES:
            raise DecodeError(
                f"{path}: an RV32 image is read by its suffix: .hex or "
                f".txt for hex text, .bin for a flat little-endian binary")
        with open(path, "rb") as fh:
            blob = fh.read()
        if suffix in BINARY_SUFFIXES:
            words = words_from_binary(blob)
        else:
            try:
                text = blob.decode("ascii")
            except UnicodeDecodeError:
                raise DecodeError(f"{path}: hex text file is not "
                                  f"ascii") from None
            words = words_from_hex_text(text)
    elif isinstance(source, (bytes, bytearray, memoryview)):
        words = words_from_binary(bytes(source))
    else:
        words = list(source)
    if not words:
        raise DecodeError(f"{where}: no instruction words")
    return words


def load_program(source: Source, name: Optional[str] = None) -> Program:
    """Load + translate in one step (the engine behind
    :meth:`repro.isa.program.Program.from_riscv` and ``repro run
    --riscv``)."""
    if name is None:
        if isinstance(source, (str, os.PathLike)):
            base = os.path.basename(os.fspath(source))
            name = f"riscv-{os.path.splitext(base)[0]}"
        else:
            name = "riscv"
    return translate(load_words(source), name=name)
