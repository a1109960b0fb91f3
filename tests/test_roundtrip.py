"""Disassembler/parser roundtrip consistency.

The disassembler's output is valid input for the text parser, and
re-parsing it reproduces the instruction stream exactly.  This ties the
builder assembler, the disassembler, and the text parser together: any
formatting drift in one of them breaks the property.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Assembler, run_program
from repro.isa import instructions as ops
from repro.isa.parser import parse_asm as parse
from repro.workloads import build, random_program


#: One instance of every opcode: its Assembler method, the method's
#: arguments (nonzero registers; a negative or a 64-bit immediate) and the
#: listing the disassembler prints for it, pinned as it was before operand
#: formats were declared in one table.
EVERY_OPCODE = [
    ("add", ("r1", "r2", "r3"), "add r1, r2, r3"),
    ("sub", ("r4", "r5", "r6"), "sub r4, r5, r6"),
    ("and_", ("r7", "r8", "r9"), "and r7, r8, r9"),
    ("or_", ("r10", "r11", "r12"), "or r10, r11, r12"),
    ("xor", ("r13", "r14", "r15"), "xor r13, r14, r15"),
    ("slt", ("r16", "r17", "r18"), "slt r16, r17, r18"),
    ("sltu", ("r19", "r20", "r21"), "sltu r19, r20, r21"),
    ("sll", ("r22", "r23", "r24"), "sll r22, r23, r24"),
    ("srl", ("r25", "r26", "r27"), "srl r25, r26, r27"),
    ("sra", ("r28", "r29", "r30"), "sra r28, r29, r30"),
    ("addi", ("r31", "r1", -1), "addi r31, r1, -1"),
    ("andi", ("r2", "r3", 0xFFFF_FFFF_FFFF_FFF0),
     "andi r2, r3, 18446744073709551600"),
    ("ori", ("r4", "r5", -2048), "ori r4, r5, -2048"),
    ("xori", ("r6", "r7", 0x8000_0000_0000_0000),
     "xori r6, r7, 9223372036854775808"),
    ("slti", ("r8", "r9", -5), "slti r8, r9, -5"),
    ("slli", ("r10", "r11", -1), "slli r10, r11, -1"),
    ("srli", ("r12", "r13", -63), "srli r12, r13, -63"),
    ("srai", ("r14", "r15", -2), "srai r14, r15, -2"),
    ("li", ("r16", 0x8000_0000_0000_0001), "li r16, 0x8000000000000001"),
    ("mul", ("r17", "r18", "r19"), "mul r17, r18, r19"),
    ("div", ("r20", "r21", "r22"), "div r20, r21, r22"),
    ("rem", ("r23", "r24", "r25"), "rem r23, r24, r25"),
    ("fadd", ("r26", "r27", "r28"), "fadd r26, r27, r28"),
    ("fsub", ("r29", "r30", "r31"), "fsub r29, r30, r31"),
    ("fmul", ("r1", "r3", "r5"), "fmul r1, r3, r5"),
    ("fdiv", ("r7", "r9", "r11"), "fdiv r7, r9, r11"),
    ("lb", ("r13", "r15", -1), "lb r13, -1(r15)"),
    ("lbu", ("r17", "r19", 0xFFFF_FFFF_FFFF_FFFF),
     "lbu r17, 18446744073709551615(r19)"),
    ("lh", ("r21", "r23", -2), "lh r21, -2(r23)"),
    ("lhu", ("r25", "r27", -4096), "lhu r25, -4096(r27)"),
    ("lw", ("r29", "r31", -4), "lw r29, -4(r31)"),
    ("lwu", ("r2", "r4", 0x7FFF_FFFF_FFFF_FFFC),
     "lwu r2, 9223372036854775804(r4)"),
    ("ld", ("r6", "r8", -8), "ld r6, -8(r8)"),
    ("sb", ("r10", "r12", -3), "sb r10, -3(r12)"),
    ("sh", ("r14", "r16", 0xFFFF_FFFF_FFFF_FFFE),
     "sh r14, 18446744073709551614(r16)"),
    ("sw", ("r18", "r20", -12), "sw r18, -12(r20)"),
    ("sd", ("r22", "r24", -16), "sd r22, -16(r24)"),
    ("beq", ("r26", "r28", 0xFFFF_FFFF_FFFF_FFFC),
     "beq r26, r28, 0xfffffffffffffffc"),
    ("bne", ("r30", "r1", -8), "bne r30, r1, -0x8"),
    ("blt", ("r4", "r7", 0x8000_0000_0000_0000),
     "blt r4, r7, 0x8000000000000000"),
    ("bge", ("r10", "r13", -256), "bge r10, r13, -0x100"),
    ("bltu", ("r16", "r19", 0x1_0000_0000), "bltu r16, r19, 0x100000000"),
    ("bgeu", ("r22", "r25", -4), "bgeu r22, r25, -0x4"),
    ("j", (0x7FFF_FFFF_FFFF_FFF0,), "j 0x7ffffffffffffff0"),
    ("jal", ("r31", -16), "jal r31, -0x10"),
    ("jr", ("r28",), "jr r28"),
    ("halt", (), "halt"),
    ("nop", (), "nop"),
    ("addw", ("r3", "r6", "r9"), "addw r3, r6, r9"),
    ("subw", ("r12", "r15", "r18"), "subw r12, r15, r18"),
    ("sllw", ("r21", "r24", "r27"), "sllw r21, r24, r27"),
    ("srlw", ("r30", "r2", "r5"), "srlw r30, r2, r5"),
    ("sraw", ("r8", "r11", "r14"), "sraw r8, r11, r14"),
    ("addiw", ("r17", "r20", -2047), "addiw r17, r20, -2047"),
    ("slliw", ("r23", "r26", -31), "slliw r23, r26, -31"),
    ("srliw", ("r29", "r1", 0xFFFF_FFFF_0000_0001),
     "srliw r29, r1, 18446744069414584321"),
    ("sraiw", ("r5", "r9", -7), "sraiw r5, r9, -7"),
    ("sltiu", ("r13", "r17", -1), "sltiu r13, r17, -1"),
    ("mulw", ("r21", "r25", "r29"), "mulw r21, r25, r29"),
    ("mulhw", ("r2", "r6", "r10"), "mulhw r2, r6, r10"),
    ("mulhsuw", ("r14", "r18", "r22"), "mulhsuw r14, r18, r22"),
    ("mulhuw", ("r26", "r30", "r3"), "mulhuw r26, r30, r3"),
    ("divw", ("r7", "r11", "r15"), "divw r7, r11, r15"),
    ("divuw", ("r19", "r23", "r27"), "divuw r19, r23, r27"),
    ("remw", ("r31", "r4", "r8"), "remw r31, r4, r8"),
    ("remuw", ("r12", "r16", "r20"), "remuw r12, r16, r20"),
    ("jalr", ("r24", "r28", -4), "jalr r24, -4(r28)"),
]


def instructions_equal(a, b):
    return (a.op == b.op and a.rd == b.rd and a.rs1 == b.rs1 and
            a.rs2 == b.rs2 and a.imm == b.imm)


def roundtrip(program):
    reparsed = parse(program.disassemble(), name=program.name)
    assert len(reparsed) == len(program)
    for original, again in zip(program.instructions,
                               reparsed.instructions):
        assert instructions_equal(original, again), \
            f"{original!r} != {again!r}"
    return reparsed


class TestRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_random_programs_roundtrip(self, seed):
        roundtrip(random_program(seed, max_blocks=10))

    def test_every_kernel_roundtrips(self):
        for name in ("gzip", "bzip2", "mcf", "mesa", "equake", "parser"):
            roundtrip(build(name, scale=1200))

    def test_reparsed_program_executes_identically(self):
        program = random_program(42, max_blocks=10)
        reparsed = parse(program.disassemble())
        # The disassembly carries no data segment; supply the original's.
        reparsed.data.update(program.data)
        original_trace = run_program(program, 500_000)
        reparsed_trace = run_program(reparsed, 500_000)
        assert len(original_trace) == len(reparsed_trace)
        for a, b in zip(original_trace, reparsed_trace):
            assert a.pc == b.pc and a.dest_value == b.dest_value
            assert a.store_addr == b.store_addr


class TestEveryOpcode:
    """Every opcode's listing is pinned, and parses back to the same
    five fields -- the W-ops and JALR included, which no kernel or
    random program emits."""

    @staticmethod
    def program():
        asm = Assembler()
        for method, args, _ in EVERY_OPCODE:
            getattr(asm, method)(*args)
        return asm.build(name="every-opcode")

    def test_one_instance_of_every_opcode(self):
        ops_built = [inst.op for inst in self.program().instructions]
        assert sorted(ops_built) == list(range(ops.NUM_OPCODES))

    def test_listing_is_pinned(self):
        listing = [repr(inst) for inst in self.program().instructions]
        assert listing == [text for _, _, text in EVERY_OPCODE]

    def test_disassembly_parses_back(self):
        roundtrip(self.program())

    def test_to_asm_parses_back(self):
        program = self.program()
        reparsed = parse(program.to_asm())
        assert [(i.op, i.rd, i.rs1, i.rs2, i.imm)
                for i in reparsed.instructions] == \
            [(i.op, i.rd, i.rs1, i.rs2, i.imm)
             for i in program.instructions]
