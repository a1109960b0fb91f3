"""Unit tests for the out-of-order scheduler."""

from repro.core import DependenceTagFile
from repro.isa import instructions as ops
from repro.isa.instructions import Instruction
from repro.pipeline import Scheduler
from repro.pipeline.dyninst import DynInst


def make_inst(seq, op=ops.ADD):
    return DynInst(seq, seq * 4, Instruction(op, rd=1, rs1=2, rs2=3),
                   trace_index=seq)


def make_scheduler(capacity=8):
    return Scheduler(capacity, DependenceTagFile())


class TestDispatchAndSelect:
    def test_ready_at_dispatch_selectable(self):
        sched = make_scheduler()
        inst = make_inst(1)
        sched.dispatch_fast(inst)
        assert sched.select(4) == [inst]

    def test_waits_for_sources(self):
        sched = make_scheduler()
        inst = make_inst(1)
        sched.dispatch_fast(inst, 40)
        assert sched.select(4) == []
        sched.on_phys_ready(40)
        assert sched.select(4) == [inst]

    def test_duplicate_source_counted_twice(self):
        sched = make_scheduler()
        inst = make_inst(1)
        sched.dispatch_fast(inst, 40, 40)
        sched.on_phys_ready(40)
        assert sched.select(4) == [inst]

    def test_select_is_age_ordered(self):
        sched = make_scheduler()
        younger = make_inst(5)
        older = make_inst(2)
        sched.dispatch_fast(younger)
        sched.dispatch_fast(older)
        assert sched.select(2) == [older, younger]

    def test_select_width_limited(self):
        sched = make_scheduler()
        for seq in range(4):
            sched.dispatch_fast(make_inst(seq))
        assert len(sched.select(2)) == 2
        assert len(sched.select(4)) == 2

    def test_capacity_tracking(self):
        sched = make_scheduler(capacity=2)
        sched.dispatch_fast(make_inst(1))
        sched.dispatch_fast(make_inst(2))
        assert not sched.has_space
        inst = sched.select(1)[0]
        sched.mark_issued(inst)
        assert sched.has_space


class TestDependenceTags:
    def test_consumer_waits_for_tag(self):
        tags = DependenceTagFile()
        sched = Scheduler(8, tags)
        tag = tags.allocate()
        inst = make_inst(1)
        inst.consumed_tag = tag
        sched.dispatch_fast(inst)
        assert sched.select(4) == []
        tags.mark_ready(tag)
        sched.on_tag_ready(tag)
        assert sched.select(4) == [inst]

    def test_ready_tag_does_not_block(self):
        tags = DependenceTagFile()
        sched = Scheduler(8, tags)
        tag = tags.allocate()
        tags.mark_ready(tag)
        inst = make_inst(1)
        inst.consumed_tag = tag
        sched.dispatch_fast(inst)
        assert sched.select(4) == [inst]

    def test_tag_and_phys_both_required(self):
        tags = DependenceTagFile()
        sched = Scheduler(8, tags)
        tag = tags.allocate()
        inst = make_inst(1)
        inst.consumed_tag = tag
        sched.dispatch_fast(inst, 40)
        sched.on_phys_ready(40)
        assert sched.select(4) == []
        tags.mark_ready(tag)
        sched.on_tag_ready(tag)
        assert sched.select(4) == [inst]


class TestReplayAndStallBits:
    def test_replayed_inst_is_parked(self):
        sched = make_scheduler()
        inst = make_inst(1, ops.LD)
        sched.dispatch_fast(inst)
        sched.mark_issued(sched.select(1)[0])
        sched.replay(inst)
        assert inst.stalled
        assert sched.select(4) == []

    def test_clear_stall_bits_releases(self):
        sched = make_scheduler()
        inst = make_inst(1, ops.LD)
        sched.dispatch_fast(inst)
        sched.mark_issued(sched.select(1)[0])
        sched.replay(inst)
        sched.clear_stall_bits()
        assert sched.select(4) == [inst]

    def test_replay_restores_occupancy(self):
        sched = make_scheduler(capacity=1)
        inst = make_inst(1, ops.LD)
        sched.dispatch_fast(inst)
        sched.mark_issued(sched.select(1)[0])
        assert sched.has_space
        sched.replay(inst)
        assert not sched.has_space

    def test_force_ready_for_rob_head(self):
        sched = make_scheduler()
        inst = make_inst(1, ops.LD)
        sched.dispatch_fast(inst)
        sched.mark_issued(sched.select(1)[0])
        sched.replay(inst)
        sched.force_ready(inst)
        assert sched.select(4) == [inst]

    def test_repeated_replay_reparks(self):
        sched = make_scheduler(capacity=1)
        inst = make_inst(1, ops.LD)
        sched.dispatch_fast(inst)
        sched.mark_issued(sched.select(1)[0])
        sched.replay(inst)
        sched.clear_stall_bits()
        sched.mark_issued(sched.select(1)[0])
        sched.replay(inst)
        assert inst.stalled and not inst.issued
        assert not sched.has_space
        assert sched.stalled_count == 1
        assert sched.select(4) == []


class TestSquash:
    def test_squashed_not_selected(self):
        sched = make_scheduler()
        inst = make_inst(1)
        sched.dispatch_fast(inst)
        inst.squashed = True
        sched.note_squashed(inst)
        assert sched.select(4) == []

    def test_squashed_waiter_dropped_on_wakeup(self):
        sched = make_scheduler()
        inst = make_inst(1)
        sched.dispatch_fast(inst, 40)
        inst.squashed = True
        sched.note_squashed(inst)
        sched.on_phys_ready(40)
        assert sched.select(4) == []

    def test_note_squashed_restores_occupancy(self):
        sched = make_scheduler(capacity=1)
        inst = make_inst(1)
        sched.dispatch_fast(inst)
        inst.squashed = True
        sched.note_squashed(inst)
        assert sched.has_space

    def test_squash_after_cleans_stalled_list(self):
        sched = make_scheduler()
        inst = make_inst(5, ops.LD)
        sched.dispatch_fast(inst)
        sched.mark_issued(sched.select(1)[0])
        sched.replay(inst)
        inst.squashed = True
        sched.note_squashed(inst)
        sched.squash_after(2)
        assert sched.stalled_count == 0
