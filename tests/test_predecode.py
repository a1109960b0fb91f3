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
  bpred/cache capsules) to the per-instruction reference engine at
  every cut point -- including cuts that land mid-block, past the halt,
  and in the wrong-path pad -- and with a full block table;
* the compiled blocks' own paths -- page-direct loads and stores at the
  end of a page and on pages nothing wrote, L1 hits off the MRU way, a
  second predictor geometry, an opcode that raises -- end where the
  reference and stepping do;
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
from repro.memory.cache import CacheHierarchy, paper_hierarchy
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
        Interpreter(program).fast_forward(1_000, *_trainers())
        assert any(program.predecoded()._blocks.values())
        clone = pickle.loads(pickle.dumps(program))
        assert clone.digest() == program.digest()


def _trainers():
    """A fresh predictor and hierarchy for one fast-forward."""
    return GsharePredictor(), paper_hierarchy()


def _block_key(bpred, hierarchy):
    """The key of the block table fast_forward runs for ``bpred`` and
    ``hierarchy``: every constant a compiled block bakes in."""
    l1i, l1d = hierarchy.l1i, hierarchy.l1d
    return (l1i._line_shift, l1i._set_mask, l1d._line_shift,
            l1d._set_mask, bpred._mask, bpred._history_mask)


def _state(interp, bpred=None, hierarchy=None):
    return (list(interp.regs), interp.pc, interp.instructions_retired,
            interp.halted, interp.memory.digest(),
            bpred.export_state() if bpred is not None else None,
            hierarchy.export_state() if hierarchy is not None else None)


def _check_engine(program, frac):
    """fast_forward over ``frac`` of ``program``'s run (up to 20% past
    the halt) ends in fast_forward_reference's full state and in N x
    step()'s."""
    total = len(Interpreter(program).run(500_000))
    k = int(frac * total)

    engine = Interpreter(program)
    e_bpred, e_hier = _trainers()
    e_executed = engine.fast_forward(k, e_bpred, e_hier)

    reference = Interpreter(program)
    r_bpred, r_hier = _trainers()
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
    assert sorted(engine.memory._pages) == sorted(stepped.memory._pages)


def _check_chunks(program, cuts):
    """Chunked fast-forwarding (the checkpoint capture pattern) equals
    one uninterrupted reference pass of the same length."""
    engine = Interpreter(program)
    e_bpred, e_hier = _trainers()
    for cut in cuts:
        engine.fast_forward(cut, e_bpred, e_hier)
    reference = Interpreter(program)
    r_bpred, r_hier = _trainers()
    reference.fast_forward_reference(sum(cuts), r_bpred, r_hier)
    assert _state(engine, e_bpred, e_hier) == \
        _state(reference, r_bpred, r_hier)


_SEEDS = st.integers(min_value=0, max_value=10_000)
_FRACS = st.floats(min_value=0.0, max_value=1.2)
_CUTS = st.lists(st.integers(min_value=1, max_value=500),
                 min_size=1, max_size=4)


class TestDifferential:
    """fast_forward == N x step == fast_forward_reference, bit-exact."""

    @_SLOW
    @given(generate=_GENERATORS, seed=_SEEDS, frac=_FRACS)
    def test_engine_matches_reference_and_stepping(self, generate, seed,
                                                   frac):
        _check_engine(generate(seed), frac)

    @_SLOW
    @given(generate=_GENERATORS, seed=_SEEDS, cuts=_CUTS)
    def test_resumable_in_arbitrary_chunks(self, generate, seed, cuts):
        _check_chunks(generate(seed), cuts)


_DEEP = settings(max_examples=500, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.fuzz
class TestDifferentialDeep:
    """:class:`TestDifferential` at campaign depth over a wider seed
    range; tier-1 skips it and CI runs it with the fuzz campaign
    (``-m fuzz``)."""

    @_DEEP
    @given(generate=_GENERATORS,
           seed=st.integers(min_value=0, max_value=1_000_000), frac=_FRACS)
    def test_engine_matches_reference_and_stepping(self, generate, seed,
                                                   frac):
        _check_engine(generate(seed), frac)

    @_DEEP
    @given(generate=_GENERATORS,
           seed=st.integers(min_value=0, max_value=1_000_000), cuts=_CUTS)
    def test_resumable_in_arbitrary_chunks(self, generate, seed, cuts):
        _check_chunks(generate(seed), cuts)


class _CountingPages(dict):
    """A page table that counts its lookups: ``read_int`` and a compiled
    block's load each look their page up once."""

    lookups = 0

    def get(self, index, default=None):
        self.lookups += 1
        return super().get(index, default)


class TestR0LoadUnification:
    """Loads with rd == r0 perform their access in every execution path:
    the page lookup, and on the trained paths the L1D touch."""

    @staticmethod
    def _program():
        a = Assembler()
        a.data(0x2000, bytes([0xAB]))
        a.li("r1", 0x2000)
        a.lb("r0", "r1")   # architectural no-op, but the access happens
        a.ld("r0", "r1")
        a.halt()
        return a.build()

    def _accesses(self, runner):
        """(page lookups, whether the loads' line is in the L1D)."""
        interp = Interpreter(self._program())
        pages = interp.memory._pages = _CountingPages(interp.memory._pages)
        hierarchy = paper_hierarchy()
        runner(interp, GsharePredictor(), hierarchy)
        assert interp.halted
        l1d = hierarchy.l1d
        line = 0x2000 >> l1d._line_shift
        return pages.lookups, line in (l1d._sets[line & l1d._set_mask] or ())

    def test_all_paths_perform_r0_load_reads(self):
        assert self._accesses(lambda i, b, h: i.run(100)) == (2, False)
        for runner in (
                lambda i, b, h: i.fast_forward(100, b, h),
                lambda i, b, h: i.fast_forward_reference(100, b, h),
                # mid-block budget cut: the stepped path loads the
                # byte, a block compiled at the second load the rest
                lambda i, b, h: (i.fast_forward(2, b, h),
                                 i.fast_forward(100, b, h))):
            assert self._accesses(runner) == (2, True)


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
            assert ff.fast_forward(k, *_trainers()) == k
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
        executed = interp.fast_forward(10_000, *_trainers())
        assert interp.halted
        assert executed == MAX_BLOCK_INSTRUCTIONS + 150 + 2
        assert interp.regs[1] == MAX_BLOCK_INSTRUCTIONS + 150

    def test_wrong_path_pad_and_implicit_halt(self):
        # No explicit halt: execution falls off the end, coasts through
        # the nop pad, and hits the implicit halt -- identically to
        # stepping.
        program = Program([Instruction(ops.ADDI, rd=1, rs1=1, imm=5)])
        ff = Interpreter(program)
        executed = ff.fast_forward(10_000, *_trainers())
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
        ff.fast_forward(3, *_trainers())
        for _ in range(3):
            stepped.step()
        assert (ff.pc, ff.regs, ff.halted) == \
            (stepped.pc, stepped.regs, stepped.halted)

    def test_warm_capsule_identical_to_reference_on_kernels(self):
        """On real kernels run to the halt, the engine ends in the
        reference's full state: its inline gshare training and its
        line-crossing-only, MRU-tested cache touches leave the same
        predictor and tag state as the reference's per-instruction
        training."""
        for name in ("gzip", "mcf", "equake"):
            program = build(name, scale=3_000)
            engine = Interpreter(program)
            e_bpred, e_hier = _trainers()
            engine.fast_forward(50_000, e_bpred, e_hier)
            reference = Interpreter(program)
            r_bpred, r_hier = _trainers()
            reference.fast_forward_reference(50_000, r_bpred, r_hier)
            assert engine.halted, name
            assert _state(engine, e_bpred, e_hier) == \
                _state(reference, r_bpred, r_hier), name

    def test_full_block_table_steps_every_run(self, monkeypatch):
        """With no room in the block table, every run and conditional
        branch is stepped (J and JAL stay inline): the engine still ends
        in the reference's full state and in N x step()'s."""
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


class TestBlockPaths:
    """The compiled blocks' own paths -- page-direct memory, inline L1
    LRU hits, in-block gshare training, and the register write-back
    before an opcode that raises -- each checked against the reference
    and N x step()."""

    @staticmethod
    def _exact(program, make_bpred=GsharePredictor):
        """Run ``program`` to the halt on the engine, and assert that it
        ends in the reference's full state and in stepping's, with the
        same pages allocated."""
        engine = Interpreter(program)
        e_bpred, e_hier = make_bpred(), paper_hierarchy()
        engine.fast_forward(10 ** 6, e_bpred, e_hier)
        assert engine.halted
        reference = Interpreter(program)
        r_bpred, r_hier = make_bpred(), paper_hierarchy()
        reference.fast_forward_reference(10 ** 6, r_bpred, r_hier)
        assert _state(engine, e_bpred, e_hier) == \
            _state(reference, r_bpred, r_hier)
        stepped = Interpreter(program)
        stepped.run(10 ** 6)
        assert _state(engine) == _state(stepped)
        assert sorted(engine.memory._pages) == sorted(stepped.memory._pages)
        return engine

    @pytest.mark.parametrize("offset", [0xFFF, 0xFFE, 0xFFC])
    def test_accesses_at_the_end_of_a_page(self, offset):
        """Stores and signed and unsigned loads of 2, 4 and 8 bytes at
        ``offset`` into a page, in a loop: those that fit the page go
        page-direct, those that cross it through read_int/write_int."""
        a = Assembler()
        a.li("r1", 0x5000)
        a.li("r2", 0x8182_8384_8586_8788)  # a sign bit set at every width
        a.li("r5", (1 << 64) - 1)
        a.li("r9", 4)
        a.label("loop")
        for store, loads in ((a.sh, (a.lh, a.lhu)),
                             (a.sw, (a.lw, a.lwu)),
                             (a.sd, (a.ld,))):
            store("r2", "r1", offset)
            for load in loads:
                load("r3", "r1", offset)
                a.add("r8", "r8", "r3")
                a.slli("r8", "r8", 1)
        a.xor("r2", "r2", "r5")  # and clear at every width next time
        a.addi("r9", "r9", -1)
        a.bne("r9", "r0", "loop")
        a.halt()
        engine = self._exact(a.build())
        assert engine.regs[8]
        assert set(engine.memory._pages) == {5, 6}

    def test_loads_from_pages_nothing_wrote(self):
        """A load that finds no page reads zeros and allocates none, as
        read_int does, in page and across a page end."""
        a = Assembler()
        a.li("r1", 0x9000)
        a.li("r9", 3)
        a.label("loop")
        a.lb("r2", "r1")
        a.lhu("r3", "r1", 2)
        a.lw("r4", "r1", 0xFFC)
        a.ld("r5", "r1", 0xFFC)  # crosses into page 0xA, unwritten too
        a.add("r6", "r2", "r5")
        a.addi("r9", "r9", -1)
        a.bne("r9", "r0", "loop")
        a.halt()
        engine = self._exact(a.build())
        assert not {0x9, 0xA} & set(engine.memory._pages)

    def test_lines_alternating_in_one_l1d_set(self, monkeypatch):
        """gap's pattern: three lines of one L1D set touched in turn, so
        every access after the first three hits, but never at the MRU
        way.  The block reorders the set itself and calls data_latency
        only on the misses."""
        config = paper_hierarchy().l1d.config
        stride = config.num_sets * config.line_bytes  # same set, next line
        a = Assembler()
        a.li("r1", 0x4000)
        a.li("r9", 50)
        a.label("loop")
        a.ld("r2", "r1")
        a.ld("r3", "r1", stride)
        a.add("r2", "r2", "r3")
        a.addi("r2", "r2", 1)
        a.sd("r2", "r1", 2 * stride)
        a.addi("r9", "r9", -1)
        a.bne("r9", "r0", "loop")
        a.ld("r4", "r1")  # leaves the set in another order than its fills
        a.halt()
        program = a.build()
        reference = Interpreter(program)
        r_bpred, r_hier = _trainers()
        reference.fast_forward_reference(10 ** 6, r_bpred, r_hier)
        assert (r_hier.l1d.accesses, r_hier.l1d.misses) == (151, 3)

        hits = []
        data_latency = CacheHierarchy.data_latency

        def counting(self, addr):
            l1d = self.l1d
            line = addr >> l1d._line_shift
            hits.append(line in (l1d._sets[line & l1d._set_mask] or ()))
            return data_latency(self, addr)

        monkeypatch.setattr(CacheHierarchy, "data_latency", counting)
        engine = Interpreter(program)
        e_bpred, e_hier = _trainers()
        engine.fast_forward(10 ** 6, e_bpred, e_hier)
        assert engine.halted
        assert _state(engine, e_bpred, e_hier) == \
            _state(reference, r_bpred, r_hier)
        assert hits == [False] * 3

    def test_second_predictor_geometry_gets_its_own_table(self,
                                                         monkeypatch):
        """Blocks bake in gshare's masks: a smaller predictor trains
        bit-identically to the reference from its own block table."""
        monkeypatch.setattr(predecode, "_CACHE", {})
        program = build("gzip", scale=2_000)

        def small():
            return GsharePredictor(table_bits=10, history_bits=6)

        self._exact(program)
        self._exact(program, small)
        hierarchy = paper_hierarchy()
        assert set(program.predecoded()._blocks) == {
            _block_key(GsharePredictor(), hierarchy),
            _block_key(small(), hierarchy)}

    @pytest.mark.parametrize("rd", [0, 3])
    def test_rejected_opcode_raises_where_stepping_does(self, rd):
        """An opcode execute_op rejects ends the block before it and is
        stepped: its ValueError leaves the PC, retire count, registers
        and warm state that stepping and the reference leave."""
        program = Program([Instruction(ops.LI, rd=1, imm=5),
                           Instruction(ops.ADDI, rd=2, rs1=1, imm=1),
                           Instruction(ops.NUM_OPCODES + 1, rd=rd, rs1=2,
                                       rs2=1),
                           Instruction(ops.ADDI, rd=4, rs1=1, imm=1),
                           Instruction(ops.HALT)])
        stepped = Interpreter(program)
        with pytest.raises(ValueError, match="cannot handle opcode"):
            stepped.run(10)
        reference = Interpreter(program)
        r_bpred, r_hier = _trainers()
        with pytest.raises(ValueError, match="cannot handle opcode"):
            reference.fast_forward_reference(10, r_bpred, r_hier)
        engine = Interpreter(program)
        e_bpred, e_hier = _trainers()
        with pytest.raises(ValueError, match="cannot handle opcode"):
            engine.fast_forward(10, e_bpred, e_hier)
        assert _state(engine, e_bpred, e_hier) == \
            _state(reference, r_bpred, r_hier)
        assert _state(engine) == _state(stepped)
        assert (engine.pc, engine.instructions_retired) == (8, 2)
        assert engine.regs[1:3] == [5, 6]
        table = program.predecoded().blocks(_block_key(e_bpred, e_hier))
        assert table[0][1] == 2


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
        bpred, hierarchy = _trainers()
        key = _block_key(bpred, hierarchy)
        table = pd.blocks(key)
        assert pd.blocks(key) is table and not table
        blk = pd.compile_block(entry, key)
        assert table == {entry << 2: blk}
        fn, blen = blk
        # The run, plus the conditional branch that ends it, if any.
        assert 1 <= blen <= min(pd.run_len[entry], MAX_BLOCK_INSTRUCTIONS) + 1
