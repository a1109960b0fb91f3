"""The out-of-order scheduling window.

The work every instruction does on the window runs inline in the core's
cycle loop: the insert at dispatch, the wakeup at writeback and select.
Those contracts are pinned on a core running tiny assembled programs,
with dispatch, issue and complete cycles read from the pipeline tracer
and the window's state read between cycles.  The window's rare paths --
replay and stall bits, the ROB-head bypass and squash -- are driven on a
:class:`Scheduler` directly.
"""

from collections import Counter

from repro import Processor, ProcessorConfig
from repro.core.violations import TRUE_DEP
from repro.isa import instructions as ops
from repro.isa.instructions import Instruction
from repro.pipeline import Scheduler
from repro.pipeline.dyninst import DynInst
from repro.pipeline.pipetrace import PipeTracer
from tests.conftest import assemble

#: Instructions per L1I line (128-byte lines, 4-byte instructions).
LINE_INSTS = 32


def traced_core(build_fn, **knobs):
    core = Processor(assemble(build_fn), ProcessorConfig(**knobs))
    return core, PipeTracer(core)


def run_traced(build_fn, **knobs):
    core, tracer = traced_core(build_fn, **knobs)
    core.run()
    return core, tracer


def at(tracer, index):
    """The trace of the retired instruction at program index ``index``."""
    (trace,) = [t for t in tracer.retired() if t.pc == 4 * index]
    return trace


def step_until_dispatched(core, index):
    """Step until the instruction at ``index`` is in the ROB; return it."""
    while not core.done:
        for inst in core.rob:
            if inst.pc == 4 * index:
                return inst
        core.step()
    raise AssertionError(f"instruction {index} never dispatched")


def make_scheduler(capacity=8):
    return Scheduler(capacity)


def issued_load(seq=1):
    """A load the core dispatched with nothing pending and then issued:
    it waits on nothing and has left the window."""
    inst = DynInst(seq, seq * 4, Instruction(ops.LD, rd=1, rs1=2),
                   trace_index=seq)
    inst.wait_count = 0
    inst.issued = True
    return inst


def released_load(sched, seq=1):
    """A load replayed and then released by an eviction: it is back in
    the window and on the ready heap."""
    inst = issued_load(seq)
    sched.replay(inst)
    sched.clear_stall_bits()
    return inst


class TestDispatchAndSelect:
    def test_ready_at_dispatch_selectable(self):
        # Neither reads a register that is in flight: each is on the
        # ready heap at dispatch and issues the next cycle (select runs
        # before fetch within a cycle).
        def program(a):
            a.li("r1", 5)
            a.addi("r2", "r0", 3)
            a.halt()
        _, tracer = run_traced(program)
        for index in (0, 1):
            trace = at(tracer, index)
            assert trace.issue_cycles == [trace.dispatch_cycle + 1]

    def test_waits_for_sources(self):
        # Each consumer issues the cycle its producer completes (writeback
        # wakes it before select), never earlier: after 1-cycle ALU
        # producers, and after a 3-cycle mul.
        def program(a):
            a.li("r1", 3)
            a.li("r2", 4)
            a.add("r3", "r1", "r2")
            a.mul("r4", "r3", "r2")
            a.add("r5", "r4", "r0")
            a.halt()
        core, tracer = run_traced(program)
        li1, li2, add, mul, last = (at(tracer, i) for i in range(5))
        assert add.issue_cycles == [max(li1.complete_cycle,
                                        li2.complete_cycle)]
        assert add.issue_cycles[0] > add.dispatch_cycle + 1
        assert add.complete_cycle == add.issue_cycles[0] + 1
        assert mul.issue_cycles == [add.complete_cycle]
        assert mul.complete_cycle == mul.issue_cycles[0] + 3
        assert last.issue_cycles == [mul.complete_cycle]
        assert core.architectural_registers()[5] == 28

    def test_duplicate_source_counted_twice(self):
        # add r3, r1, r1 waits twice on its one producer: it is listed
        # twice on r1's register, is woken twice by the one completion,
        # and issues once.
        def program(a):
            a.li("r2", 7)
            a.mul("r1", "r2", "r2")
            a.add("r3", "r1", "r1")
            a.halt()
        core, tracer = traced_core(program)
        add = step_until_dispatched(core, 2)
        assert add.rs1_phys == add.rs2_phys
        assert add.wait_count == 2
        core.run()
        assert add.wait_count == 0
        assert at(tracer, 2).issue_cycles == [at(tracer, 1).complete_cycle]
        assert core.architectural_registers()[3] == 98

    def test_select_is_age_ordered(self):
        # One function unit.  li r3 is ready from dispatch on; the add,
        # older, is woken a cycle later.  Once both are ready the older
        # one issues first.
        def program(a):
            a.li("r1", 1)
            a.add("r2", "r1", "r1")
            a.li("r3", 3)
            a.li("r4", 4)
            a.halt()
        _, tracer = run_traced(program, num_fus=1)
        li1, add, li3, li4 = (at(tracer, i) for i in range(4))
        first = li1.issue_cycles[0]
        assert li1.dispatch_cycle == li3.dispatch_cycle
        assert [add.issue_cycles, li3.issue_cycles, li4.issue_cycles] == \
            [[first + 1], [first + 2], [first + 3]]

    def test_select_width_limited(self):
        # Eight ready instructions, two function units: at most two issue
        # a cycle, oldest first.
        def program(a):
            for reg in range(1, 9):
                a.li(f"r{reg}", reg)
            a.halt()
        _, tracer = run_traced(program, num_fus=2)
        issues = [at(tracer, i).issue_cycles for i in range(8)]
        assert all(len(cycles) == 1 for cycles in issues)
        issues = [cycles[0] for cycles in issues]
        assert issues == [issues[0] + k // 2 for k in range(8)]
        assert set(Counter(issues).values()) == {2}

    def test_capacity_tracking(self):
        # A chain of 12-cycle divides through a 2-entry window: dispatch
        # stalls on the full window, which never holds more than two, and
        # issuing frees the slots again.
        def program(a):
            a.li("r1", 9)
            for _ in range(6):
                a.div("r1", "r1", "r1")
            a.halt()
        core, tracer = traced_core(program, sched_size=2)
        occupancy = set()
        while not core.done:
            core.step()
            occupancy.add(core.scheduler.occupancy)
        assert max(occupancy) == 2
        assert core.scheduler.occupancy == 0
        stats = core.finalize().counters.as_dict()
        assert stats["dispatch_stalls_sched"] > 0
        assert stats.get("dispatch_stalls_rob", 0) == 0
        traces = tracer.retired()
        for cycle in range(traces[-1].retire_cycle):
            waiting = sum(t.dispatch_cycle <= cycle < t.issue_cycles[0]
                          for t in traces)
            assert waiting <= 2

        wide, _ = run_traced(program)
        stats = wide.finalize().counters.as_dict()
        assert stats.get("dispatch_stalls_sched", 0) == 0


def predicted_pair(a, base_delay=False, data_delay=True, pad=0):
    """A store and a younger load to another address.  The store's data
    comes from a 12-cycle divide when ``data_delay``; the load's base
    register from a 3-cycle multiply when ``base_delay`` (r0 otherwise).
    ``pad`` nops sit between the two."""
    a.li("r2", 7)
    if data_delay:
        a.div("r3", "r2", "r2")
    else:
        a.li("r3", 1)
    if base_delay:
        a.mul("r5", "r0", "r2")
    else:
        a.nop()
    a.add("r6", "r5", "r0")
    a.sd("r3", "r0", 0x1000)
    for _ in range(pad):
        a.nop()
    a.ld("r4", "r6" if base_delay else "r0", 0x1008)
    a.halt()


#: Program indices in predicted_pair: the load's base, and the store.
BASE, STORE = 3, 4


def trained(build_fn, load_index):
    """A traced core whose dependence predictor already predicts the
    load at ``load_index`` to consume the store's tag."""
    core, tracer = traced_core(build_fn)
    core.predictor.on_violation(TRUE_DEP, 4 * STORE, 4 * load_index)
    return core, tracer


class TestDependenceTags:
    def test_consumer_waits_for_tag(self):
        # The load's address is ready at dispatch, but its predicted
        # producer, the store, waits on a divide: the load waits on the
        # store's tag only, and issues the cycle the store completes.
        load_index = STORE + 1
        core, tracer = trained(predicted_pair, load_index)
        load = step_until_dispatched(core, load_index)
        (store,) = [inst for inst in core.rob if inst.pc == 4 * STORE]
        assert store.produced_tag is not None
        assert load.consumed_tag == store.produced_tag
        assert load.wait_count == 1
        core.run()
        assert load.wait_count == 0
        store_t, load_t = at(tracer, STORE), at(tracer, load_index)
        assert load_t.issue_cycles == [store_t.complete_cycle]
        assert load_t.issue_cycles[0] > load_t.dispatch_cycle + 1

        # Untrained, the same load issues the cycle after its dispatch.
        _, tracer = run_traced(predicted_pair)
        load_t = at(tracer, load_index)
        assert load_t.issue_cycles == [load_t.dispatch_cycle + 1]

    def test_ready_tag_does_not_block(self):
        # The load sits in the next I-cache line: its fetch misses, and
        # by its dispatch the store has completed.  It consumes the
        # store's tag, which no longer holds it back.
        load_index = LINE_INSTS

        def program(a):
            predicted_pair(a, pad=LINE_INSTS - STORE - 1)
        core, tracer = trained(program, load_index)
        load = step_until_dispatched(core, load_index)
        assert load.consumed_tag is not None
        assert load.wait_count == 0 and load.in_ready
        core.run()
        store_t, load_t = at(tracer, STORE), at(tracer, load_index)
        assert store_t.complete_cycle < load_t.dispatch_cycle
        assert load_t.issue_cycles == [load_t.dispatch_cycle + 1]

    def test_tag_and_phys_both_required(self):
        # The load waits on its base register and on the store's tag: it
        # issues when the later of the two is ready, whichever that is.
        load_index = STORE + 1
        for data_delay, earlier, later in ((True, BASE, STORE),
                                           (False, STORE, BASE)):
            def program(a):
                predicted_pair(a, base_delay=True, data_delay=data_delay)
            core, tracer = trained(program, load_index)
            load = step_until_dispatched(core, load_index)
            assert load.wait_count == 2
            core.run()
            earlier_t, later_t = at(tracer, earlier), at(tracer, later)
            assert earlier_t.complete_cycle < later_t.complete_cycle
            assert at(tracer, load_index).issue_cycles == \
                [later_t.complete_cycle]


class TestReplayAndStallBits:
    def test_replayed_inst_is_parked(self):
        sched = make_scheduler()
        inst = issued_load()
        sched.replay(inst)
        assert inst.stalled
        assert sched.select(4) == []

    def test_clear_stall_bits_releases(self):
        sched = make_scheduler()
        inst = issued_load()
        sched.replay(inst)
        sched.clear_stall_bits()
        assert sched.select(4) == [inst]

    def test_replay_restores_occupancy(self):
        sched = make_scheduler(capacity=1)
        inst = issued_load()
        assert sched.has_space
        sched.replay(inst)
        assert not sched.has_space

    def test_force_ready_for_rob_head(self):
        sched = make_scheduler()
        inst = issued_load()
        sched.replay(inst)
        sched.force_ready(inst)
        assert sched.select(4) == [inst]

    def test_repeated_replay_reparks(self):
        sched = make_scheduler(capacity=1)
        inst = released_load(sched)
        assert sched.select(1) == [inst]
        assert inst.issued and sched.has_space
        sched.replay(inst)
        assert inst.stalled and not inst.issued
        assert not sched.has_space
        assert sched.stalled_count == 1
        assert sched.select(4) == []


class TestSquash:
    def test_squashed_not_selected(self):
        sched = make_scheduler()
        inst = released_load(sched)
        inst.squashed = True
        sched.note_squashed(inst)
        assert sched.select(4) == []

    def test_squashed_waiter_dropped_on_wakeup(self):
        # bne r0, r0 is never taken, but the cold predictor says taken
        # (and no oracle fixes it): the wrong-path add waits on the
        # divide, is squashed when the branch resolves, and is skipped
        # when the divide's completion wakes its waiters.
        def program(a):
            a.li("r2", 7)
            a.div("r3", "r2", "r2")
            a.bne("r0", "r0", "wrong")
            a.halt()
            a.label("wrong")
            a.add("r5", "r3", "r3")
            a.halt()
        core, tracer = traced_core(program, oracle_fix_rate=0.0)
        add = step_until_dispatched(core, 4)
        assert add.wait_count == 2
        core.run()
        assert add.squashed and not add.issued
        assert add.wait_count == 2
        (add_t,) = [t for t in tracer.squashed() if t.pc == 16]
        assert add_t.issue_cycles == []
        assert at(tracer, 1).complete_cycle > add_t.squash_cycle
        assert core.architectural_registers()[5] == 0

    def test_note_squashed_restores_occupancy(self):
        sched = make_scheduler(capacity=1)
        inst = released_load(sched)
        assert not sched.has_space
        inst.squashed = True
        sched.note_squashed(inst)
        assert sched.has_space

    def test_squash_after_cleans_stalled_list(self):
        sched = make_scheduler()
        inst = issued_load(5)
        sched.replay(inst)
        inst.squashed = True
        sched.note_squashed(inst)
        sched.squash_after()
        assert sched.stalled_count == 0
