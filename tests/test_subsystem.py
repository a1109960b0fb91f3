"""Unit tests for the memory-subsystem layer (LSQ and SFC/MDT variants)."""

from repro.core import (
    DONE,
    LSQConfig,
    LSQSubsystem,
    MDTConfig,
    OUTPUT_RECOVERY_CORRUPT,
    REPLAY,
    SFCConfig,
    SfcMdtSubsystem,
)
from repro.memory import MainMemory, paper_hierarchy
from repro.pipeline.config import CoreConfig
from repro.stats import Counters


def make_lsq_subsystem(lq=8, sq=8):
    memory = MainMemory()
    return LSQSubsystem(CoreConfig(lsq=LSQConfig(lq, sq)), memory,
                        paper_hierarchy(), Counters()), memory


def make_sfc_mdt(sfc_sets=8, sfc_assoc=2, mdt_sets=16, mdt_assoc=2,
                 fifo=8, output_recovery="flush"):
    memory = MainMemory()
    config = CoreConfig(sfc=SFCConfig(sfc_sets, sfc_assoc),
                        mdt=MDTConfig(mdt_sets, mdt_assoc),
                        store_fifo_capacity=fifo,
                        output_recovery=output_recovery)
    subsystem = SfcMdtSubsystem(config, memory, paper_hierarchy(),
                                Counters())
    return subsystem, memory


class TestLSQSubsystem:
    def test_forwarding_is_single_cycle(self):
        sub, _ = make_lsq_subsystem()
        sub.dispatch_store(1, 0x10)
        sub.dispatch_load(2, 0x14)
        sub.execute_store(1, 0x10, 0x100, 8, 9, watermark=0)
        outcome = sub.execute_load(2, 0x14, 0x100, 8, watermark=0)
        assert outcome.status == DONE
        assert outcome.value == 9
        assert outcome.latency == 1

    def test_memory_load_pays_cache_latency(self):
        sub, memory = make_lsq_subsystem()
        memory.write_int(0x100, 8, 5)
        sub.dispatch_load(1, 0x10)
        outcome = sub.execute_load(1, 0x14, 0x100, 8, watermark=0)
        assert outcome.value == 5
        assert outcome.latency > 1          # cold miss

    def test_violation_propagates(self):
        sub, _ = make_lsq_subsystem()
        sub.dispatch_store(1, 0x10)
        sub.dispatch_load(2, 0x14)
        sub.execute_load(2, 0x14, 0x100, 8, watermark=0)
        outcome = sub.execute_store(1, 0x10, 0x100, 8, 42, watermark=0)
        assert outcome.violations

    def test_retire_store_commits(self):
        sub, _ = make_lsq_subsystem()
        sub.dispatch_store(1, 0x10)
        sub.execute_store(1, 0x10, 0x100, 8, 42, watermark=0)
        assert sub.retire_store(1, 0x100, 8)[:3] == (0x100, 8, 42)

    def test_no_extra_violation_penalty(self):
        sub, _ = make_lsq_subsystem()
        assert sub.violation_extra_penalty == 0

    def test_partial_flush_trims_queues(self):
        sub, _ = make_lsq_subsystem(lq=2)
        sub.dispatch_load(1, 0x10)
        sub.dispatch_load(2, 0x14)
        sub.on_partial_flush(1)
        assert sub.can_dispatch_load()
        sub.dispatch_load(3, 0x18)
        assert not sub.can_dispatch_load()


class TestSfcMdtLoads:
    def test_sfc_hit_single_cycle(self):
        sub, _ = make_sfc_mdt()
        sub.dispatch_store(1, 0x10)
        sub.execute_store(1, 0x10, 0x100, 8, 7, watermark=0)
        outcome = sub.execute_load(0x0F, 0x14, 0x100, 8, watermark=0)
        # (seq 0x0F > store seq 1: no violation, forwarded)
        assert outcome.status == DONE
        assert outcome.value == 7 and outcome.latency == 1

    def test_sfc_miss_reads_memory(self):
        sub, memory = make_sfc_mdt()
        memory.write_int(0x300, 8, 3)
        outcome = sub.execute_load(1, 0x14, 0x300, 8, watermark=0)
        assert outcome.value == 3 and outcome.latency > 1

    def test_mdt_conflict_replays(self):
        sub, _ = make_sfc_mdt(mdt_sets=1, mdt_assoc=1)
        sub.execute_load(1, 0x14, 0x100, 8, watermark=0)
        outcome = sub.execute_load(2, 0x14, 0x900, 8, watermark=0)
        assert outcome.status == REPLAY
        assert outcome.replay_reason == "mdt_conflict"

    def test_corrupt_word_replays(self):
        sub, _ = make_sfc_mdt()
        sub.dispatch_store(1, 0x10)
        sub.execute_store(1, 0x10, 0x100, 8, 7, watermark=0)
        sub.on_partial_flush(1)
        outcome = sub.execute_load(5, 0x14, 0x100, 8, watermark=0)
        assert outcome.status == REPLAY
        assert outcome.replay_reason == "sfc_corrupt"

    def test_partial_match_replays(self):
        sub, _ = make_sfc_mdt()
        sub.dispatch_store(1, 0x10)
        sub.execute_store(1, 0x10, 0x100, 4, 7, watermark=0)
        outcome = sub.execute_load(5, 0x14, 0x100, 8, watermark=0)
        assert outcome.status == REPLAY
        assert outcome.replay_reason == "sfc_partial"

    def test_anti_violation_reported(self):
        sub, _ = make_sfc_mdt()
        sub.dispatch_store(9, 0x10)
        sub.execute_store(9, 0x10, 0x100, 8, 7, watermark=0)
        outcome = sub.execute_load(2, 0x14, 0x100, 8, watermark=0)
        assert outcome.status == DONE
        assert outcome.violations[0].kind == "anti"

    def test_rob_head_bypass_skips_structures(self):
        sub, memory = make_sfc_mdt(mdt_sets=1, mdt_assoc=1)
        memory.write_int(0x900, 8, 55)
        sub.execute_load(1, 0x14, 0x100, 8, watermark=0)   # fills MDT way
        outcome = sub.execute_load(2, 0x14, 0x900, 8, watermark=0,
                                   at_rob_head=True)
        assert outcome.status == DONE and outcome.value == 55
        assert sub.counters.get("rob_head_bypasses") == 1


class TestSfcMdtStores:
    def test_store_pays_tag_check_cycle(self):
        sub, _ = make_sfc_mdt()
        sub.dispatch_store(1, 0x10)
        outcome = sub.execute_store(1, 0x10, 0x100, 8, 7, watermark=0)
        assert outcome.latency == 2

    def test_sfc_conflict_replays_store(self):
        sub, _ = make_sfc_mdt(sfc_sets=1, sfc_assoc=1)
        sub.dispatch_store(1, 0x10)
        sub.dispatch_store(2, 0x14)
        sub.execute_store(1, 0x10, 0x100, 8, 7, watermark=0)
        outcome = sub.execute_store(2, 0x14, 0x900, 8, 8, watermark=0)
        assert outcome.status == REPLAY
        assert outcome.replay_reason == "sfc_conflict"

    def test_true_violation_reported(self):
        sub, _ = make_sfc_mdt()
        sub.dispatch_store(1, 0x10)
        sub.execute_load(9, 0x14, 0x100, 8, watermark=0)
        outcome = sub.execute_store(1, 0x10, 0x100, 8, 7, watermark=0)
        assert outcome.violations[0].kind == "true"

    def test_output_violation_flush_policy(self):
        sub, _ = make_sfc_mdt()
        sub.dispatch_store(9, 0x10)
        sub.dispatch_store(1, 0x14)
        sub.execute_store(9, 0x10, 0x100, 8, 9, watermark=0)
        outcome = sub.execute_store(1, 0x14, 0x100, 8, 1, watermark=0)
        assert outcome.violations[0].kind == "output"
        assert not outcome.train_only

    def test_output_violation_corrupt_policy(self):
        """Section 2.4.2: corrupt-mark instead of flushing."""
        sub, _ = make_sfc_mdt(output_recovery=OUTPUT_RECOVERY_CORRUPT)
        sub.dispatch_store(9, 0x10)
        sub.dispatch_store(1, 0x14)
        sub.execute_store(9, 0x10, 0x100, 8, 9, watermark=0)
        outcome = sub.execute_store(1, 0x14, 0x100, 8, 1, watermark=0)
        assert not outcome.violations          # no flush
        assert outcome.train_only[0].kind == "output"
        # The word is now poisoned: consumer loads replay.
        load = sub.execute_load(20, 0x18, 0x100, 8, watermark=0)
        assert load.status == REPLAY

    def test_store_fifo_capacity_gates_dispatch(self):
        sub, _ = make_sfc_mdt(fifo=1)
        sub.dispatch_store(1, 0x10)
        assert not sub.can_dispatch_store()

    def test_loads_never_gate_dispatch(self):
        sub, _ = make_sfc_mdt()
        assert sub.can_dispatch_load()

    def test_retire_store_commits_and_frees(self):
        sub, _ = make_sfc_mdt()
        sub.dispatch_store(1, 0x10)
        sub.execute_store(1, 0x10, 0x100, 8, 42, watermark=0)
        assert sub.retire_store(1, 0x100, 8)[:3] == (0x100, 8, 42)
        assert sub.sfc.occupancy() == 0
        assert sub.mdt.occupancy() == 0

    def test_retired_store_then_load_reads_memory(self):
        sub, memory = make_sfc_mdt()
        sub.dispatch_store(1, 0x10)
        sub.execute_store(1, 0x10, 0x100, 8, 42, watermark=0)
        addr, size, data, _ = sub.retire_store(1, 0x100, 8)
        memory.write_int(addr, size, data)
        outcome = sub.execute_load(5, 0x14, 0x100, 8, watermark=2)
        assert outcome.value == 42

    def test_eviction_events_combine_sfc_and_mdt(self):
        sub, _ = make_sfc_mdt()
        sub.dispatch_store(1, 0x10)
        sub.execute_store(1, 0x10, 0x100, 8, 42, watermark=0)
        before = sub.eviction_events
        sub.retire_store(1, 0x100, 8)
        assert sub.eviction_events > before

    def test_violation_extra_penalty_models_tag_check(self):
        sub, _ = make_sfc_mdt()
        assert sub.violation_extra_penalty == 1

    def test_replayed_load_does_not_warm_cache(self):
        sub, _ = make_sfc_mdt(mdt_sets=1, mdt_assoc=1)
        sub.execute_load(1, 0x14, 0x100, 8, watermark=0)
        accesses = sub.hierarchy.l1d.accesses
        sub.execute_load(2, 0x14, 0x900, 8, watermark=0)   # replay
        assert sub.hierarchy.l1d.accesses == accesses
