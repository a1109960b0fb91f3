"""Instruction set, assembler, program container, and architectural ISS."""

from .assembler import Assembler, AssemblyError, parse_reg
from .instructions import (
    ACCESS_SIZE,
    BRANCH_OPS,
    CONTROL_OPS,
    JUMP_OPS,
    LOAD_OPS,
    MASK64,
    MEM_OPS,
    NUM_REGS,
    OPCODE_NAMES,
    STORE_OPS,
    Instruction,
    sign_extend,
    to_signed,
    to_unsigned,
)
from .parser import AsmSyntaxError, parse_asm
from .riscv import (
    DecodeError,
    RVInstruction,
    UnsupportedInstructionError,
    decode_word,
)
from .interp import (
    ExecutionLimitExceeded,
    GoldenTrace,
    Interpreter,
    RetireRecord,
    branch_taken,
    execute_op,
    load_value,
    run_program,
)
from .program import INSTRUCTION_BYTES, Program

__all__ = [
    "ACCESS_SIZE",
    "Assembler",
    "AsmSyntaxError",
    "AssemblyError",
    "BRANCH_OPS",
    "CONTROL_OPS",
    "DecodeError",
    "ExecutionLimitExceeded",
    "GoldenTrace",
    "INSTRUCTION_BYTES",
    "Instruction",
    "Interpreter",
    "JUMP_OPS",
    "LOAD_OPS",
    "MASK64",
    "MEM_OPS",
    "NUM_REGS",
    "OPCODE_NAMES",
    "Program",
    "RetireRecord",
    "RVInstruction",
    "STORE_OPS",
    "UnsupportedInstructionError",
    "decode_word",
    "branch_taken",
    "parse_asm",
    "execute_op",
    "load_value",
    "parse_reg",
    "run_program",
    "sign_extend",
    "to_signed",
    "to_unsigned",
]
