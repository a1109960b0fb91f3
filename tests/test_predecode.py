"""Tests for the predecode pass and the batch-dispatch fast-forward
engine (repro.isa.predecode + Interpreter.fast_forward).

The contracts:

* predecoded arrays round-trip to the original instruction stream for
  every committed workload (native suites + RV32 corpus) and for random
  programs;
* the predecode cache is keyed by content digest -- two identically
  built programs share one predecode object;
* the batch-dispatch engine is architecturally identical to N x step()
  and bit-identical (registers, memory digest, retire count, warm
  bpred/cache capsules) to the per-instruction reference engine, with
  and without warm-state training, at every cut point -- including cuts
  that land mid-block, past the halt, and in the wrong-path pad -- and
  with a full block table;
* the warm training both share trains the predictor and the cache as
  the pipeline would.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.branch.gshare import GsharePredictor
from repro.isa import Assembler, Interpreter, predecode
from repro.isa import instructions as ops
from repro.isa.instructions import Instruction
from repro.isa.predecode import (
    _STRAIGHT_KINDS,
    MAX_BLOCK_INSTRUCTIONS,
    PredecodedProgram,
)
from repro.isa.program import WRONG_PATH_PAD, Program
from repro.memory.cache import paper_hierarchy
from repro.memory.main_memory import MainMemory
from repro.workloads import random_program
from repro.workloads.riscv_randprog import riscv_fuzz_program
from repro.workloads.suites import ALL_BENCHMARKS, RISCV_BENCHMARKS, build

_SLOW = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

#: Random programs of both frontends: native ones execute no jump, RV32
#: ones execute JAL and JALR.
_GENERATORS = st.sampled_from([random_program, riscv_fuzz_program])


def _tuples(program):
    return [(inst.op, inst.rd, inst.rs1, inst.rs2, inst.imm)
            for inst in program.instructions]


class TestRoundTrip:
    """Predecoded arrays carry exactly the original instruction stream."""

    def test_native_suite_round_trips(self):
        for name in sorted(ALL_BENCHMARKS):
            program = build(name, scale=2_000)
            pd = program.predecoded()
            assert pd.to_instruction_tuples() == _tuples(program), name
            assert pd.length == len(program.instructions)

    def test_riscv_corpus_round_trips(self):
        assert RISCV_BENCHMARKS, "RV32 corpus missing"
        for name in sorted(RISCV_BENCHMARKS):
            program = build(name)
            pd = program.predecoded()
            assert pd.to_instruction_tuples() == _tuples(program), name

    @_SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_program_round_trips(self, seed):
        program = random_program(seed)
        pd = program.predecoded()
        assert pd.to_instruction_tuples() == _tuples(program)

    def test_run_lengths_partition_at_terminators(self):
        program = build("gzip", scale=2_000)
        pd = program.predecoded()
        for i in range(pd.length):
            if pd.kind[i] in _STRAIGHT_KINDS:
                assert pd.run_len[i] >= 1
                assert i + pd.run_len[i] <= pd.length
                # every instruction inside the run is straight-line
                for j in range(i, i + pd.run_len[i]):
                    assert pd.kind[j] in _STRAIGHT_KINDS
            else:
                assert pd.run_len[i] == 0


class TestPredecodeCache:
    """The cache is keyed by content digest, not object identity."""

    @staticmethod
    def _twin_programs():
        def builder():
            a = Assembler()
            a.li("r1", 0x1000)
            a.li("r2", 17)
            a.sd("r2", "r1")
            a.ld("r3", "r1")
            a.halt()
            return a.build()
        return builder(), builder()

    def test_identical_programs_share_one_predecode(self):
        first, second = self._twin_programs()
        assert first is not second
        assert first.predecoded() is second.predecoded()

    def test_distinct_programs_do_not_share(self):
        first, _ = self._twin_programs()
        other = Program([Instruction(ops.HALT)])
        assert first.predecoded() is not other.predecoded()

    def test_memo_survives_repeated_calls(self):
        program, _ = self._twin_programs()
        assert program.predecoded() is program.predecoded()

    def test_program_pickles_after_fast_forward(self):
        # The engine ships programs to worker processes; once
        # fast-forward has compiled blocks into the shared predecode,
        # the program must still pickle.
        program = build("gzip", scale=2_000)
        Interpreter(program).fast_forward(1_000)
        assert program.predecoded().blocks(None)
        clone = pickle.loads(pickle.dumps(program))
        assert clone.digest() == program.digest()


def _state(interp, bpred=None, hierarchy=None):
    return (list(interp.regs), interp.pc, interp.instructions_retired,
            interp.halted, interp.memory.digest(),
            bpred.export_state() if bpred is not None else None,
            hierarchy.export_state() if hierarchy is not None else None)


class TestDifferential:
    """fast_forward == N x step == fast_forward_reference, bit-exact."""

    @_SLOW
    @given(generate=_GENERATORS,
           seed=st.integers(min_value=0, max_value=10_000),
           frac=st.floats(min_value=0.0, max_value=1.2),
           warm=st.booleans())
    def test_engine_matches_reference_and_stepping(self, generate, seed,
                                                   frac, warm):
        program = generate(seed)
        total = len(Interpreter(program).run(500_000))
        k = int(frac * total)  # up to 20% past the halt

        engine = Interpreter(program)
        e_bpred = GsharePredictor() if warm else None
        e_hier = paper_hierarchy() if warm else None
        e_executed = engine.fast_forward(k, e_bpred, e_hier)

        reference = Interpreter(program)
        r_bpred = GsharePredictor() if warm else None
        r_hier = paper_hierarchy() if warm else None
        r_executed = reference.fast_forward_reference(k, r_bpred, r_hier)

        assert e_executed == r_executed
        assert _state(engine, e_bpred, e_hier) == \
            _state(reference, r_bpred, r_hier)

        stepped = Interpreter(program)
        for _ in range(k):
            stepped.step()
        assert engine.pc == stepped.pc
        assert engine.regs == stepped.regs
        assert engine.halted == stepped.halted
        assert engine.instructions_retired == stepped.instructions_retired
        assert engine.memory.digest() == stepped.memory.digest()

    @_SLOW
    @given(generate=_GENERATORS,
           seed=st.integers(min_value=0, max_value=10_000),
           cuts=st.lists(st.integers(min_value=1, max_value=500),
                         min_size=1, max_size=4))
    def test_resumable_in_arbitrary_chunks(self, generate, seed, cuts):
        """Chunked fast-forwarding (the checkpoint capture pattern)
        equals one uninterrupted reference pass of the same length."""
        program = generate(seed)
        engine = Interpreter(program)
        e_bpred, e_hier = GsharePredictor(), paper_hierarchy()
        for cut in cuts:
            engine.fast_forward(cut, e_bpred, e_hier)
        reference = Interpreter(program)
        r_bpred, r_hier = GsharePredictor(), paper_hierarchy()
        reference.fast_forward_reference(sum(cuts), r_bpred, r_hier)
        assert _state(engine, e_bpred, e_hier) == \
            _state(reference, r_bpred, r_hier)


class _CountingMemory(MainMemory):
    """MainMemory that counts read_int calls (loads performed)."""

    def __init__(self):
        super().__init__()
        self.reads = 0

    def read_int(self, addr, size):
        self.reads += 1
        return super().read_int(addr, size)


class TestR0LoadUnification:
    """Loads with rd == r0 perform the read in every execution path."""

    @staticmethod
    def _program():
        a = Assembler()
        a.li("r1", 0x2000)
        a.li("r2", 0xAB)
        a.sb("r2", "r1")
        a.lb("r0", "r1")   # architectural no-op, but the read happens
        a.ld("r0", "r1")
        a.halt()
        return a.build()

    def _reads(self, runner):
        program = self._program()
        memory = _CountingMemory()
        interp = Interpreter(program, memory=memory)
        runner(interp)
        assert interp.halted
        return memory.reads

    def test_all_paths_perform_r0_load_reads(self):
        by_step = self._reads(lambda i: i.run(100))
        assert by_step == 2
        assert self._reads(lambda i: i.fast_forward(100)) == by_step
        assert self._reads(
            lambda i: i.fast_forward_reference(100)) == by_step
        # mid-block budget cut: the stepped path reads too
        assert self._reads(lambda i: (i.fast_forward(4),
                                      i.fast_forward(100))) == by_step


class TestBlockDispatchEdges:
    def test_budget_cut_mid_block_matches_stepping(self):
        a = Assembler()
        a.li("r1", 0)
        for _ in range(10):
            a.addi("r1", "r1", 3)
        a.halt()
        program = a.build()
        for k in range(0, 13):
            ff = Interpreter(program)
            assert ff.fast_forward(k) == k
            stepped = Interpreter(program)
            for _ in range(k):
                stepped.step()
            assert (ff.regs, ff.pc, ff.halted) == \
                (stepped.regs, stepped.pc, stepped.halted), k

    def test_run_longer_than_block_cap(self):
        a = Assembler()
        a.li("r1", 0)
        for _ in range(MAX_BLOCK_INSTRUCTIONS + 150):
            a.addi("r1", "r1", 1)
        a.halt()
        program = a.build()
        interp = Interpreter(program)
        executed = interp.fast_forward(10_000)
        assert interp.halted
        assert executed == MAX_BLOCK_INSTRUCTIONS + 150 + 2
        assert interp.regs[1] == MAX_BLOCK_INSTRUCTIONS + 150

    def test_wrong_path_pad_and_implicit_halt(self):
        # No explicit halt: execution falls off the end, coasts through
        # the nop pad, and hits the implicit halt -- identically to
        # stepping.
        program = Program([Instruction(ops.ADDI, rd=1, rs1=1, imm=5)])
        ff = Interpreter(program)
        executed = ff.fast_forward(10_000)
        stepped = Interpreter(program)
        count = 0
        while stepped.step() is not None:
            count += 1
        assert ff.halted and stepped.halted
        assert executed == count == 1 + WRONG_PATH_PAD + 1
        assert ff.pc == stepped.pc
        assert ff.regs == stepped.regs

    def test_unaligned_pc_executes_as_nop(self):
        program = Program([Instruction(ops.ADDI, rd=1, rs1=1, imm=5),
                           Instruction(ops.HALT)])
        ff = Interpreter(program)
        ff.pc = 2
        stepped = Interpreter(program)
        stepped.pc = 2
        ff.fast_forward(3)
        for _ in range(3):
            stepped.step()
        assert (ff.pc, ff.regs, ff.halted) == \
            (stepped.pc, stepped.regs, stepped.halted)

    def test_warm_capsule_identical_to_reference_on_kernels(self):
        """On real kernels run to the halt, cold, warm, and with only the
        predictor or only the hierarchy (inline gshare training and
        inline MRU tests are separate code), the engine ends in the
        reference's full state; warm, its line-crossing-only I-cache
        touches leave the same tag state as the reference's
        per-instruction touches."""
        modes = ((False, False), (True, True), (True, False), (False, True))
        for name in ("gzip", "mcf", "equake"):
            program = build(name, scale=3_000)
            for with_bpred, with_hierarchy in modes:
                mode = (name, with_bpred, with_hierarchy)
                engine = Interpreter(program)
                e_bpred = GsharePredictor() if with_bpred else None
                e_hier = paper_hierarchy() if with_hierarchy else None
                engine.fast_forward(50_000, e_bpred, e_hier)
                reference = Interpreter(program)
                r_bpred = GsharePredictor() if with_bpred else None
                r_hier = paper_hierarchy() if with_hierarchy else None
                reference.fast_forward_reference(50_000, r_bpred, r_hier)
                assert engine.halted, mode
                assert _state(engine, e_bpred, e_hier) == \
                    _state(reference, r_bpred, r_hier), mode

    def test_full_block_table_steps_every_run(self, monkeypatch):
        """With no room in the block table, every run and conditional
        branch is stepped (J and JAL stay inline): warm, the engine still
        ends in the reference's full state and in N x step()'s."""
        monkeypatch.setattr(predecode, "MAX_COMPILED_BLOCKS", 0)
        monkeypatch.setattr(predecode, "_CACHE", {})
        for name in ("gzip", "mcf"):
            program = build(name, scale=2_000)
            engine = Interpreter(program)
            e_bpred, e_hier = GsharePredictor(), paper_hierarchy()
            engine.fast_forward(10 ** 6, e_bpred, e_hier)
            assert engine.halted, name
            assert not any(program.predecoded()._blocks.values()), name
            reference = Interpreter(program)
            r_bpred, r_hier = GsharePredictor(), paper_hierarchy()
            reference.fast_forward_reference(10 ** 6, r_bpred, r_hier)
            assert _state(engine, e_bpred, e_hier) == \
                _state(reference, r_bpred, r_hier), name
            stepped = Interpreter(program)
            stepped.run(10 ** 6)
            assert _state(engine) == _state(stepped), name

    def test_budget_cut_at_branch_terminator(self):
        """A block that ends in a conditional branch runs only when its
        run and the branch both fit the budget: a cut at any point of
        the first two iterations of a counted loop, the branch included,
        resumes to the reference's full state."""
        a = Assembler()
        a.li("r1", 0x3000)
        a.li("r2", 5)
        a.label("loop")
        a.ld("r3", "r1")
        a.addi("r3", "r3", 7)
        a.sd("r3", "r1", 8)
        a.addi("r1", "r1", 8)
        a.addi("r2", "r2", -1)
        a.bne("r2", "r0", "loop")
        a.halt()
        program = a.build()
        for k in range(2 + 2 * 6 + 1):
            engine = Interpreter(program)
            e_bpred, e_hier = GsharePredictor(), paper_hierarchy()
            assert engine.fast_forward(k, e_bpred, e_hier) == k
            rest = engine.fast_forward(10_000, e_bpred, e_hier)
            assert engine.halted
            reference = Interpreter(program)
            r_bpred, r_hier = GsharePredictor(), paper_hierarchy()
            reference.fast_forward_reference(k + rest, r_bpred, r_hier)
            assert _state(engine, e_bpred, e_hier) == \
                _state(reference, r_bpred, r_hier), k


#: The reference, the engine, and the engine one instruction at a time:
#: a budget of one fits no longer block, so the engine steps every run
#: longer than one instruction and every conditional branch.
_TRAINERS = {
    "reference": lambda i, n, b, h: i.fast_forward_reference(n, b, h),
    "engine": lambda i, n, b, h: i.fast_forward(n, b, h),
    "engine-by-one": lambda i, n, b, h: [i.fast_forward(1, b, h)
                                         for _ in range(n)],
}


def _trained(program, count, trainer):
    """The interpreter, predictor and hierarchy ``trainer`` leaves after
    ``count`` instructions of ``program``."""
    interp = Interpreter(program)
    bpred, hierarchy = GsharePredictor(), paper_hierarchy()
    _TRAINERS[trainer](interp, count, bpred, hierarchy)
    return interp, bpred, hierarchy


@pytest.mark.parametrize("trainer", sorted(_TRAINERS))
class TestStepTraining:
    """The warm training of every engine path, checked against the
    predictor and the cache themselves."""

    def test_indirect_jumps_train_their_targets(self, trainer):
        a = Assembler()
        a.li("r1", 16)
        a.jalr("r2", "r1", 4)   # pc 4 -> 20
        for _ in range(3):
            a.halt()
        a.li("r3", 32)          # pc 20
        a.jr("r3")              # pc 24 -> 32
        a.halt()
        a.halt()
        interp, bpred, _ = _trained(a.build(), 4, trainer)
        assert interp.pc == 32
        assert bpred.predict_indirect(4) == 20
        assert bpred.predict_indirect(24) == 32

    def test_branches_train_as_update_does(self, trainer):
        a = Assembler()
        a.li("r1", 1)
        a.bne("r1", "r0", 12)   # pc 4, taken
        a.halt()
        a.beq("r1", "r0", 20)   # pc 12, not taken
        a.halt()
        interp, bpred, _ = _trained(a.build(), 3, trainer)
        assert interp.pc == 16
        expected = GsharePredictor()
        for pc, taken in ((4, True), (12, False)):
            expected.update(pc, taken, expected.predict(pc))
        assert expected._counters != GsharePredictor()._counters
        assert (bpred._counters, bpred._history) == \
            (expected._counters, expected._history)

    def test_load_line_is_mru_in_its_l1d_set(self, trainer):
        a = Assembler()
        a.li("r1", 0x2000)
        a.ld("r1", "r1", 8)     # overwrites its own base register
        a.addi("r3", "r3", 1)
        a.halt()
        _, _, hierarchy = _trained(a.build(), 3, trainer)
        config = hierarchy.l1d.config
        line = 0x2008 // config.line_bytes
        sets = hierarchy.l1d.export_lines()
        assert sets[line % config.num_sets][-1] == line


class TestPredecodedProgramShape:
    def test_blocks_are_cached_per_entry(self):
        program = build("gzip", scale=2_000)
        pd = PredecodedProgram(program.instructions, program.digest())
        entry = next(i for i in range(pd.length) if pd.run_len[i])
        table = pd.blocks(None)
        assert pd.blocks(None) is table and not table
        blk = pd.compile_block(entry, None)
        assert table == {entry: blk}
        fn, blen = blk
        # The run, plus the conditional branch that ends it, if any.
        assert 1 <= blen <= min(pd.run_len[entry], MAX_BLOCK_INSTRUCTIONS) + 1
