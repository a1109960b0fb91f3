"""Unit tests for the instruction set definitions."""

import pytest

from repro.isa import instructions as ops
from repro.isa.instructions import (
    Instruction,
    sign_extend,
    to_signed,
    to_unsigned,
)


class TestOpcodeSets:
    def test_opcode_values_are_unique(self):
        names = list(ops.OPCODE_NAMES)
        assert len(names) == len(set(names))

    def test_every_opcode_has_a_name(self):
        for value in range(ops.NUM_OPCODES):
            assert value in ops.OPCODE_NAMES
            assert value in ops.OPERAND_FORMAT

    def test_load_and_store_sets_are_disjoint(self):
        assert not (ops.LOAD_OPS & ops.STORE_OPS)

    def test_mem_ops_is_union_of_loads_and_stores(self):
        assert ops.MEM_OPS == ops.LOAD_OPS | ops.STORE_OPS

    def test_control_ops_cover_branches_and_jumps(self):
        assert ops.BEQ in ops.CONTROL_OPS
        assert ops.J in ops.CONTROL_OPS
        assert ops.JR in ops.CONTROL_OPS
        assert ops.ADD not in ops.CONTROL_OPS

    def test_access_sizes(self):
        assert ops.ACCESS_SIZE[ops.LB] == 1
        assert ops.ACCESS_SIZE[ops.LH] == 2
        assert ops.ACCESS_SIZE[ops.LW] == 4
        assert ops.ACCESS_SIZE[ops.LD] == 8
        assert ops.ACCESS_SIZE[ops.SB] == 1
        assert ops.ACCESS_SIZE[ops.SD] == 8

    def test_latencies(self):
        assert Instruction(ops.ADD).latency == 1
        assert Instruction(ops.MUL).latency == 3
        assert Instruction(ops.DIV).latency == 12
        assert Instruction(ops.FADD).latency == 4
        assert Instruction(ops.LD).latency == 1


class TestInstruction:
    def test_predicates_load(self):
        inst = Instruction(ops.LW, rd=3, rs1=2, imm=8)
        assert inst.is_load and inst.is_mem
        assert not inst.is_store and not inst.is_branch

    def test_predicates_store(self):
        inst = Instruction(ops.SW, rs1=2, rs2=3, imm=8)
        assert inst.is_store and inst.is_mem
        assert not inst.is_load

    def test_predicates_branch(self):
        inst = Instruction(ops.BNE, rs1=1, rs2=2, imm=0x40)
        assert inst.is_branch and inst.is_control
        assert not inst.is_mem

    def test_access_size_none_for_alu(self):
        assert Instruction(ops.ADD).access_size is None

    def test_repr_forms(self):
        assert "lw" in repr(Instruction(ops.LW, rd=1, rs1=2, imm=4))
        assert "sd" in repr(Instruction(ops.SD, rs1=2, rs2=3, imm=4))
        assert "beq" in repr(Instruction(ops.BEQ, rs1=1, rs2=2, imm=8))
        assert repr(Instruction(ops.NOP)) == "nop"
        assert "li" in repr(Instruction(ops.LI, rd=1, imm=7))
        assert "jr" in repr(Instruction(ops.JR, rs1=5))
        assert "add" in repr(Instruction(ops.ADD, rd=1, rs1=2, rs2=3))


class TestValueHelpers:
    def test_to_signed_positive(self):
        assert to_signed(5) == 5

    def test_to_signed_negative(self):
        assert to_signed((1 << 64) - 1) == -1
        assert to_signed(1 << 63) == -(1 << 63)

    def test_to_unsigned_wraps(self):
        assert to_unsigned(-1) == (1 << 64) - 1
        assert to_unsigned(1 << 64) == 0

    @pytest.mark.parametrize("value,bits,expected", [
        (0x80, 8, (1 << 64) - 0x80),
        (0x7F, 8, 0x7F),
        (0x8000, 16, (1 << 64) - 0x8000),
        (0x7FFF, 16, 0x7FFF),
        (0x8000_0000, 32, (1 << 64) - 0x8000_0000),
    ])
    def test_sign_extend(self, value, bits, expected):
        assert sign_extend(value, bits) == expected

    def test_sign_extend_roundtrip(self):
        for bits in (8, 16, 32):
            for v in (0, 1, (1 << (bits - 1)) - 1, 1 << (bits - 1),
                      (1 << bits) - 1):
                extended = sign_extend(v, bits)
                assert extended & ((1 << bits) - 1) == v
