"""Instruction set for the simulated 64-bit RISC machine.

The paper evaluates its memory subsystem on a 64-bit MIPS pipeline.  We
define a small MIPS-like load/store ISA that is sufficient to express the
workload kernels: integer ALU operations, long-latency multiply/divide,
"floating-point class" operations (integer semantics, FP latencies, used by
the specfp-style kernels), byte/half/word/double loads and stores, and
conditional branches and jumps.

All register values are 64-bit unsigned integers in ``[0, 2**64)``; signed
operations interpret them as two's complement.  Register 0 is hardwired to
zero, as in MIPS.
"""

from __future__ import annotations

from typing import Optional

MASK64 = (1 << 64) - 1
NUM_REGS = 32

# --- opcode constants -------------------------------------------------------
# Grouped by execution class.  Values are small ints so dispatch tables are
# plain list lookups in the hot interpreter/pipeline loops.

# ALU register-register
ADD, SUB, AND, OR, XOR, SLT, SLTU, SLL, SRL, SRA = range(10)
# ALU register-immediate
ADDI, ANDI, ORI, XORI, SLTI, SLLI, SRLI, SRAI, LI = range(10, 19)
# Long-latency integer
MUL, DIV, REM = range(19, 22)
# FP-class (integer semantics, FP latency) -- used by specfp-style kernels
FADD, FSUB, FMUL, FDIV = range(22, 26)
# Loads (signed/unsigned byte, half, word; doubleword)
LB, LBU, LH, LHU, LW, LWU, LD = range(26, 33)
# Stores
SB, SH, SW, SD = range(33, 37)
# Control
BEQ, BNE, BLT, BGE, BLTU, BGEU, J, JAL, JR, HALT, NOP = range(37, 48)
# 32-bit ("W") operations with RV32 semantics, used by the RISC-V frontend
# (repro.isa.riscv).  Invariant: a W-op destination always holds the 64-bit
# sign-extension of its 32-bit result, so 64-bit SLT/SLTU/branches compare
# 32-bit values correctly.  Appended after the original opcode space so the
# existing opcode numbering (and the pinned result digests) are untouched.
ADDW, SUBW, SLLW, SRLW, SRAW = range(48, 53)
ADDIW, SLLIW, SRLIW, SRAIW, SLTIU = range(53, 58)
MULW, MULHW, MULHSUW, MULHUW, DIVW, DIVUW, REMW, REMUW = range(58, 66)
# Indirect jump-and-link: rd <- pc+4, pc <- (rs1 + imm) & ~1.
JALR = 66

NUM_OPCODES = 67

OPCODE_NAMES = {
    ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
    SLT: "slt", SLTU: "sltu", SLL: "sll", SRL: "srl", SRA: "sra",
    ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori", SLTI: "slti",
    SLLI: "slli", SRLI: "srli", SRAI: "srai", LI: "li",
    MUL: "mul", DIV: "div", REM: "rem",
    FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv",
    LB: "lb", LBU: "lbu", LH: "lh", LHU: "lhu", LW: "lw", LWU: "lwu",
    LD: "ld",
    SB: "sb", SH: "sh", SW: "sw", SD: "sd",
    BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", BLTU: "bltu",
    BGEU: "bgeu", J: "j", JAL: "jal", JR: "jr", HALT: "halt", NOP: "nop",
    ADDW: "addw", SUBW: "subw", SLLW: "sllw", SRLW: "srlw", SRAW: "sraw",
    ADDIW: "addiw", SLLIW: "slliw", SRLIW: "srliw", SRAIW: "sraiw",
    SLTIU: "sltiu",
    MULW: "mulw", MULHW: "mulhw", MULHSUW: "mulhsuw", MULHUW: "mulhuw",
    DIVW: "divw", DIVUW: "divuw", REMW: "remw", REMUW: "remuw",
    JALR: "jalr",
}

LOAD_OPS = frozenset({LB, LBU, LH, LHU, LW, LWU, LD})
STORE_OPS = frozenset({SB, SH, SW, SD})
MEM_OPS = LOAD_OPS | STORE_OPS
BRANCH_OPS = frozenset({BEQ, BNE, BLT, BGE, BLTU, BGEU})
JUMP_OPS = frozenset({J, JAL, JR, JALR})
CONTROL_OPS = BRANCH_OPS | JUMP_OPS

#: Number of bytes accessed by each memory opcode.
ACCESS_SIZE = {
    LB: 1, LBU: 1, LH: 2, LHU: 2, LW: 4, LWU: 4, LD: 8,
    SB: 1, SH: 2, SW: 4, SD: 8,
}
#: Loads that sign-extend the value they read to 64 bits.
SIGNED_LOADS = frozenset({LB, LH, LW})

# --- operand formats --------------------------------------------------------
# Which fields an opcode's operands fill, and in what order, written as the
# text that lists them: ``r{rd}`` is a register field, ``{imm}`` a signed
# immediate (``{imm:#x}`` for LI's 64-bit literal), ``{imm}(r{rs1})`` a
# base-plus-offset address and ``{target:#x}`` a branch or jump target
# (the byte address in ``imm``; a label in assembly text).  The assembler's
# methods, the text parser, ``Instruction.__repr__`` and the core's rename
# decode all read :data:`OPERAND_FORMAT`.
FMT_RRR = "r{rd}, r{rs1}, r{rs2}"
FMT_RRI = "r{rd}, r{rs1}, {imm}"
FMT_RI = "r{rd}, {imm:#x}"
FMT_LOAD = "r{rd}, {imm}(r{rs1})"
FMT_STORE = "r{rs2}, {imm}(r{rs1})"
FMT_BRANCH = "r{rs1}, r{rs2}, {target:#x}"
FMT_J = "{target:#x}"
FMT_JAL = "r{rd}, {target:#x}"
FMT_JR = "r{rs1}"
FMT_NONE = ""

#: The operand format of every opcode.
OPERAND_FORMAT = {op: fmt for fmt, group in (
    (FMT_RRR, (ADD, SUB, AND, OR, XOR, SLT, SLTU, SLL, SRL, SRA,
               MUL, DIV, REM, FADD, FSUB, FMUL, FDIV,
               ADDW, SUBW, SLLW, SRLW, SRAW,
               MULW, MULHW, MULHSUW, MULHUW, DIVW, DIVUW, REMW, REMUW)),
    (FMT_RRI, (ADDI, ANDI, ORI, XORI, SLTI, SLLI, SRLI, SRAI,
               ADDIW, SLLIW, SRLIW, SRAIW, SLTIU)),
    (FMT_RI, (LI,)),
    (FMT_LOAD, (LB, LBU, LH, LHU, LW, LWU, LD, JALR)),
    (FMT_STORE, (SB, SH, SW, SD)),
    (FMT_BRANCH, (BEQ, BNE, BLT, BGE, BLTU, BGEU)),
    (FMT_J, (J,)),
    (FMT_JAL, (JAL,)),
    (FMT_JR, (JR,)),
    (FMT_NONE, (HALT, NOP)),
) for op in group}

#: Execution latency class for each opcode (cycles in the function unit).
#: Matches common superscalar models: single-cycle integer ALU, pipelined
#: multi-cycle multiply and FP, long divide.
OP_LATENCY = {MUL: 3, DIV: 12, REM: 12, FADD: 4, FSUB: 4, FMUL: 4, FDIV: 12,
              MULW: 3, MULHW: 3, MULHSUW: 3, MULHUW: 3,
              DIVW: 12, DIVUW: 12, REMW: 12, REMUW: 12}
DEFAULT_LATENCY = 1


def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned value as two's-complement signed."""
    return value - (1 << 64) if value & (1 << 63) else value


def to_unsigned(value: int) -> int:
    """Wrap an arbitrary Python int into the 64-bit unsigned range."""
    return value & MASK64


def sign_extend(value: int, bits: int) -> int:
    """Sign-extend ``value`` from ``bits`` bits to the full 64-bit range."""
    sign_bit = 1 << (bits - 1)
    if value & sign_bit:
        value |= MASK64 ^ ((1 << bits) - 1)
    return value & MASK64


class Instruction:
    """A single static instruction.

    Attributes
    ----------
    op:
        One of the opcode constants in this module.
    rd:
        Destination register index (0 means "no destination" for every
        opcode except the degenerate write to r0, which is discarded).
    rs1, rs2:
        Source register indices.
    imm:
        Immediate operand: the signed offset for loads/stores/ALU-imm, the
        byte target address for branches and jumps, or the 64-bit literal
        for ``li``.
    """

    __slots__ = ("op", "rd", "rs1", "rs2", "imm",
                 "is_load", "is_store", "is_mem", "is_branch", "is_control",
                 "access_size", "latency")

    def __init__(self, op: int, rd: int = 0, rs1: int = 0, rs2: int = 0,
                 imm: int = 0):
        self.op = op
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        # Opcode classification, precomputed once per *static* instruction:
        # the pipeline reads these every fetch/dispatch/execute/retire, so
        # they must be attribute loads, not per-access set-membership
        # properties.
        self.is_load = op in LOAD_OPS
        self.is_store = op in STORE_OPS
        self.is_mem = op in MEM_OPS
        self.is_branch = op in BRANCH_OPS
        self.is_control = op in CONTROL_OPS
        self.access_size: Optional[int] = ACCESS_SIZE.get(op)
        self.latency = OP_LATENCY.get(op, DEFAULT_LATENCY)

    def __repr__(self) -> str:
        name = OPCODE_NAMES.get(self.op, f"op{self.op}")
        operands = OPERAND_FORMAT.get(self.op, FMT_RRR).format(
            rd=self.rd, rs1=self.rs1, rs2=self.rs2, imm=self.imm,
            target=self.imm)
        return f"{name} {operands}" if operands else name
