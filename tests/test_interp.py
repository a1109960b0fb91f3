"""Unit tests for the in-order architectural simulator (ISS)."""

import pytest

from repro.isa import (
    Assembler,
    ExecutionLimitExceeded,
    Interpreter,
    run_program,
)
from repro.isa import instructions as ops
from repro.isa.instructions import MASK64
from repro.isa.interp import branch_taken, execute_op


def run_regs(build_fn, max_instructions=10_000):
    a = Assembler()
    build_fn(a)
    interp = Interpreter(a.build())
    interp.run(max_instructions)
    return interp.regs


class TestAluSemantics:
    def test_add_wraps(self):
        assert execute_op(ops.ADD, MASK64, 1, 0) == 0

    def test_sub_wraps(self):
        assert execute_op(ops.SUB, 0, 1, 0) == MASK64

    def test_logic(self):
        assert execute_op(ops.AND, 0b1100, 0b1010, 0) == 0b1000
        assert execute_op(ops.OR, 0b1100, 0b1010, 0) == 0b1110
        assert execute_op(ops.XOR, 0b1100, 0b1010, 0) == 0b0110

    def test_slt_signed(self):
        assert execute_op(ops.SLT, MASK64, 0, 0) == 1   # -1 < 0
        assert execute_op(ops.SLT, 0, MASK64, 0) == 0

    def test_sltu_unsigned(self):
        assert execute_op(ops.SLTU, MASK64, 0, 0) == 0
        assert execute_op(ops.SLTU, 0, MASK64, 0) == 1

    def test_shifts(self):
        assert execute_op(ops.SLL, 1, 63, 0) == 1 << 63
        assert execute_op(ops.SRL, 1 << 63, 63, 0) == 1
        assert execute_op(ops.SRA, 1 << 63, 63, 0) == MASK64

    def test_shift_amount_mod_64(self):
        assert execute_op(ops.SLL, 1, 64, 0) == 1
        assert execute_op(ops.SLLI, 1, 0, 65) == 2

    def test_immediates(self):
        assert execute_op(ops.ADDI, 1, 0, -1) == 0
        assert execute_op(ops.ANDI, 0xFF, 0, 0x0F) == 0x0F
        assert execute_op(ops.ORI, 0xF0, 0, 0x0F) == 0xFF
        assert execute_op(ops.XORI, 0xFF, 0, 0xFF) == 0
        assert execute_op(ops.SLTI, MASK64, 0, 0) == 1
        assert execute_op(ops.SRAI, MASK64, 0, 4) == MASK64

    def test_li(self):
        assert execute_op(ops.LI, 0, 0, 12345) == 12345
        assert execute_op(ops.LI, 0, 0, -1) == MASK64

    def test_mul_wraps(self):
        assert execute_op(ops.MUL, 1 << 63, 2, 0) == 0

    def test_div_truncates_toward_zero(self):
        minus7 = (-7) & MASK64
        assert execute_op(ops.DIV, minus7, 2, 0) == (-3) & MASK64
        assert execute_op(ops.DIV, 7, 2, 0) == 3

    def test_div_by_zero_is_all_ones(self):
        assert execute_op(ops.DIV, 42, 0, 0) == MASK64

    def test_rem_sign_follows_dividend(self):
        minus7 = (-7) & MASK64
        assert execute_op(ops.REM, minus7, 2, 0) == (-1) & MASK64
        assert execute_op(ops.REM, 7, (-2) & MASK64, 0) == 1

    def test_rem_by_zero_returns_dividend(self):
        assert execute_op(ops.REM, 42, 0, 0) == 42

    def test_fp_class_integer_semantics(self):
        assert execute_op(ops.FADD, 2, 3, 0) == 5
        assert execute_op(ops.FSUB, 2, 3, 0) == MASK64
        assert execute_op(ops.FMUL, 4, 5, 0) == 20
        assert execute_op(ops.FDIV, 20, 5, 0) == 4
        assert execute_op(ops.FDIV, 20, 0, 0) == MASK64

    def test_unknown_opcode_raises(self):
        with pytest.raises(ValueError):
            execute_op(ops.LW, 0, 0, 0)


class TestBranchTaken:
    def test_all_conditions(self):
        minus1 = MASK64
        assert branch_taken(ops.BEQ, 3, 3)
        assert not branch_taken(ops.BEQ, 3, 4)
        assert branch_taken(ops.BNE, 3, 4)
        assert branch_taken(ops.BLT, minus1, 0)
        assert not branch_taken(ops.BLT, 0, minus1)
        assert branch_taken(ops.BGE, 0, minus1)
        assert branch_taken(ops.BLTU, 0, minus1)
        assert not branch_taken(ops.BLTU, minus1, 0)
        assert branch_taken(ops.BGEU, minus1, 0)

    def test_non_branch_raises(self):
        with pytest.raises(ValueError):
            branch_taken(ops.ADD, 0, 0)


class TestMemorySemantics:
    def test_store_load_roundtrip_all_widths(self):
        def build(a):
            a.li("r1", 0x1000)
            a.li("r2", 0x1122334455667788)
            a.sd("r2", "r1", 0)
            a.lb("r3", "r1", 0)
            a.lbu("r4", "r1", 0)
            a.lh("r5", "r1", 0)
            a.lhu("r6", "r1", 0)
            a.lw("r7", "r1", 0)
            a.lwu("r8", "r1", 0)
            a.ld("r9", "r1", 0)
            a.halt()
        regs = run_regs(build)
        assert regs[3] == ((-0x78) & MASK64)        # 0x88 sign-extended
        assert regs[4] == 0x88
        assert regs[5] == 0x7788
        assert regs[6] == 0x7788
        assert regs[7] == 0x55667788
        assert regs[8] == 0x55667788
        assert regs[9] == 0x1122334455667788

    def test_sign_extension_of_negative_word(self):
        def build(a):
            a.li("r1", 0x1000)
            a.li("r2", 0xFFFFFFFF)
            a.sw("r2", "r1", 0)
            a.lw("r3", "r1", 0)
            a.lwu("r4", "r1", 0)
            a.halt()
        regs = run_regs(build)
        assert regs[3] == MASK64
        assert regs[4] == 0xFFFFFFFF

    def test_narrow_store_truncates(self):
        def build(a):
            a.li("r1", 0x1000)
            a.li("r2", 0x1FF)
            a.sb("r2", "r1", 0)
            a.lbu("r3", "r1", 0)
            a.halt()
        assert run_regs(build)[3] == 0xFF

    def test_unmapped_memory_reads_zero(self):
        def build(a):
            a.li("r1", 0xDEAD000)
            a.ld("r2", "r1", 8)
            a.halt()
        assert run_regs(build)[2] == 0

    def test_initial_data_segment_visible(self):
        a = Assembler()
        a.data_words(0x1000, [99])
        a.li("r1", 0x1000)
        a.ld("r2", "r1")
        a.halt()
        interp = Interpreter(a.build())
        interp.run()
        assert interp.regs[2] == 99


class TestControlFlow:
    def test_loop_sums(self):
        def build(a):
            a.li("r1", 0)
            a.li("r2", 10)
            a.li("r3", 0)
            a.label("top")
            a.add("r3", "r3", "r1")
            a.addi("r1", "r1", 1)
            a.bne("r1", "r2", "top")
            a.halt()
        assert run_regs(build)[3] == 45

    def test_jal_links_and_jr_returns(self):
        def build(a):
            a.jal("r31", "func")
            a.li("r5", 7)          # executed after return
            a.halt()
            a.label("func")
            a.li("r4", 3)
            a.jr("r31")
        regs = run_regs(build)
        assert regs[4] == 3 and regs[5] == 7

    def test_r0_is_hardwired_zero(self):
        def build(a):
            a.li("r0", 99)
            a.addi("r0", "r0", 5)
            a.mov("r1", "r0")
            a.halt()
        assert run_regs(build)[1] == 0

    def test_retire_records_contents(self):
        a = Assembler()
        a.li("r1", 0x1000)
        a.li("r2", 5)
        a.sd("r2", "r1")
        a.beq("r0", "r0", "end")
        a.label("end")
        a.halt()
        trace = run_program(a.build())
        assert len(trace) == 5
        store = trace[2]
        assert store.store_addr == 0x1000
        assert store.op == ops.SD
        assert store.store_data == 5
        branch = trace[3]
        assert branch.taken and branch.next_pc == 16
        assert trace[4].op == ops.HALT

    def test_execution_limit_raises(self):
        a = Assembler()
        a.label("spin")
        a.j("spin")
        with pytest.raises(ExecutionLimitExceeded):
            run_program(a.build(), max_instructions=100)

    def test_step_after_halt_returns_none(self):
        a = Assembler()
        a.halt()
        interp = Interpreter(a.build())
        interp.run()
        assert interp.step() is None

    def test_halt_exactly_on_budget_boundary_returns_trace(self):
        # A program whose halt is the max_instructions-th instruction
        # must return its trace, not raise ExecutionLimitExceeded.
        a = Assembler()
        a.li("r1", 1)
        a.li("r2", 2)
        a.halt()
        trace = run_program(a.build(), max_instructions=3)
        assert len(trace) == 3
        assert trace[-1].op == ops.HALT

    def test_budget_one_short_of_halt_raises(self):
        a = Assembler()
        a.li("r1", 1)
        a.li("r2", 2)
        a.halt()
        with pytest.raises(ExecutionLimitExceeded):
            run_program(a.build(), max_instructions=2)
