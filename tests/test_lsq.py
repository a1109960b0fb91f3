"""Unit tests for the idealized load/store queue baseline."""

from repro.core import LSQConfig, LSQSubsystem
from repro.core.violations import TRUE_DEP
from repro.memory import MainMemory, paper_hierarchy
from repro.pipeline.config import CoreConfig
from repro.stats import Counters


def make_lsq(lq=8, sq=8):
    memory = MainMemory()
    return LSQSubsystem(CoreConfig(lsq=LSQConfig(lq, sq)), memory,
                        paper_hierarchy(), Counters()), memory


def load(lsq, seq, addr, size):
    """Execute load ``seq``; returns ``(value, fully_forwarded)``.

    Every test starts with a cold cache, so a load that reads memory
    misses; only a load forwarded entirely from the store queue
    completes in one cycle.
    """
    outcome = lsq.execute_load(seq, 0x14, addr, size, watermark=0)
    return outcome.value, outcome.latency == 1


def store(lsq, seq, addr, size, data):
    """Execute store ``seq``; returns the violations it reports."""
    return lsq.execute_store(seq, 0x10, addr, size, data,
                             watermark=0).violations


class TestCapacities:
    def test_load_queue_capacity(self):
        lsq, _ = make_lsq(lq=2)
        lsq.dispatch_load(1, 0x10)
        lsq.dispatch_load(2, 0x14)
        assert not lsq.can_dispatch_load()

    def test_store_queue_capacity(self):
        lsq, _ = make_lsq(sq=1)
        lsq.dispatch_store(1, 0x10)
        assert not lsq.can_dispatch_store()

    def test_retire_frees_space(self):
        lsq, _ = make_lsq(lq=1)
        lsq.dispatch_load(1, 0x10)
        load(lsq, 1, 0x100, 8)
        assert lsq.retire_load(1, 0x100, 8) == (None, [])
        assert lsq.can_dispatch_load()


class TestForwarding:
    def test_forwards_from_completed_older_store(self):
        lsq, _ = make_lsq()
        lsq.dispatch_store(1, 0x10)
        lsq.dispatch_load(2, 0x14)
        store(lsq, 1, 0x100, 8, 0xABCD)
        value, forwarded = load(lsq, 2, 0x100, 8)
        assert value == 0xABCD and forwarded

    def test_reads_memory_when_no_store(self):
        lsq, memory = make_lsq()
        memory.write_int(0x100, 8, 77)
        lsq.dispatch_load(1, 0x10)
        value, forwarded = load(lsq, 1, 0x100, 8)
        assert value == 77 and not forwarded

    def test_youngest_older_store_wins(self):
        lsq, _ = make_lsq()
        lsq.dispatch_store(1, 0x10)
        lsq.dispatch_store(2, 0x14)
        lsq.dispatch_load(3, 0x18)
        store(lsq, 1, 0x100, 8, 1)
        store(lsq, 2, 0x100, 8, 2)
        value, _ = load(lsq, 3, 0x100, 8)
        assert value == 2

    def test_younger_store_not_forwarded(self):
        lsq, memory = make_lsq()
        memory.write_int(0x100, 8, 5)
        lsq.dispatch_load(1, 0x10)
        lsq.dispatch_store(2, 0x14)
        store(lsq, 2, 0x100, 8, 9)
        value, _ = load(lsq, 1, 0x100, 8)
        assert value == 5

    def test_byte_accurate_multi_store_assembly(self):
        lsq, memory = make_lsq()
        memory.write_int(0x100, 8, 0)
        lsq.dispatch_store(1, 0x10)
        lsq.dispatch_store(2, 0x14)
        lsq.dispatch_load(3, 0x18)
        store(lsq, 1, 0x100, 4, 0x11223344)
        store(lsq, 2, 0x104, 2, 0xAABB)
        value, forwarded = load(lsq, 3, 0x100, 8)
        assert value == 0x0000AABB11223344
        assert not forwarded        # top two bytes came from memory

    def test_partial_overlap_mixes_memory(self):
        lsq, memory = make_lsq()
        memory.write_int(0x100, 8, 0xFFFFFFFFFFFFFFFF)
        lsq.dispatch_store(1, 0x10)
        lsq.dispatch_load(2, 0x14)
        store(lsq, 1, 0x100, 1, 0x00)
        value, _ = load(lsq, 2, 0x100, 2)
        assert value == 0xFF00

    def test_uncompleted_store_invisible(self):
        lsq, memory = make_lsq()
        memory.write_int(0x100, 8, 3)
        lsq.dispatch_store(1, 0x10)      # never executes
        lsq.dispatch_load(2, 0x14)
        value, _ = load(lsq, 2, 0x100, 8)
        assert value == 3


class TestViolationDetection:
    def test_late_store_flags_younger_load(self):
        lsq, _ = make_lsq()
        lsq.dispatch_store(1, 0x10)
        lsq.dispatch_load(2, 0x14)
        load(lsq, 2, 0x100, 8)                   # reads stale 0
        violations = store(lsq, 1, 0x100, 8, 42)
        assert len(violations) == 1
        assert violations[0].kind == TRUE_DEP
        assert violations[0].producer_pc == 0x10
        assert violations[0].consumer_pc == 0x14
        # Aggressive LSQ recovery: flush from the conflicting load.
        assert violations[0].flush_after_seq == 1

    def test_silent_store_not_flagged(self):
        """Value-based detection ignores stores that do not change the
        loaded bytes (Onder & Gupta's silent-store observation)."""
        lsq, memory = make_lsq()
        memory.write_int(0x100, 8, 42)
        lsq.dispatch_store(1, 0x10)
        lsq.dispatch_load(2, 0x14)
        load(lsq, 2, 0x100, 8)
        violations = store(lsq, 1, 0x100, 8, 42)      # same value
        assert not violations

    def test_earliest_conflicting_load_reported(self):
        lsq, _ = make_lsq()
        lsq.dispatch_store(1, 0x10)
        lsq.dispatch_load(2, 0x14)
        lsq.dispatch_load(3, 0x18)
        load(lsq, 3, 0x100, 8)
        load(lsq, 2, 0x100, 8)
        violations = store(lsq, 1, 0x100, 8, 9)
        assert violations[0].flush_after_seq == 1    # load seq 2 - 1

    def test_non_overlapping_load_not_flagged(self):
        lsq, _ = make_lsq()
        lsq.dispatch_store(1, 0x10)
        lsq.dispatch_load(2, 0x14)
        load(lsq, 2, 0x200, 8)
        assert not store(lsq, 1, 0x100, 8, 9)

    def test_incomplete_load_not_flagged(self):
        lsq, _ = make_lsq()
        lsq.dispatch_store(1, 0x10)
        lsq.dispatch_load(2, 0x14)      # address not yet computed
        assert not store(lsq, 1, 0x100, 8, 9)

    def test_older_load_not_flagged(self):
        lsq, _ = make_lsq()
        lsq.dispatch_load(1, 0x14)
        lsq.dispatch_store(2, 0x10)
        load(lsq, 1, 0x100, 8)
        assert not store(lsq, 2, 0x100, 8, 9)


class TestRetireAndFlush:
    def test_retire_store_returns_commit_tuple(self):
        lsq, _ = make_lsq(sq=1)
        lsq.dispatch_store(1, 0x10)
        store(lsq, 1, 0x100, 4, 0xAB)
        assert lsq.retire_store(1, 0x100, 4) == (0x100, 4, 0xAB, [])
        assert lsq.can_dispatch_store()

    def test_flush_after_discards_younger(self):
        lsq, _ = make_lsq(lq=2, sq=1)
        lsq.dispatch_load(1, 0x10)
        lsq.dispatch_store(2, 0x14)
        lsq.dispatch_load(3, 0x18)
        lsq.on_partial_flush(1)
        assert lsq.can_dispatch_store()
        # Exactly one load (seq 1) survives in the two-entry queue.
        assert lsq.can_dispatch_load()
        lsq.dispatch_load(4, 0x18)
        assert not lsq.can_dispatch_load()

    def test_flushed_store_invisible_to_forwarding(self):
        lsq, memory = make_lsq()
        memory.write_int(0x100, 8, 1)
        lsq.dispatch_store(1, 0x10)
        store(lsq, 1, 0x100, 8, 99)
        lsq.on_partial_flush(0)
        lsq.dispatch_load(5, 0x14)
        value, _ = load(lsq, 5, 0x100, 8)
        assert value == 1


class TestEnergyCounters:
    def test_search_counters_accumulate(self):
        lsq, _ = make_lsq()
        for seq in range(1, 5):
            lsq.dispatch_store(seq, 0x10)
            store(lsq, seq, 0x100 + 8 * seq, 8, seq)
        lsq.dispatch_load(10, 0x14)
        load(lsq, 10, 0x100, 8)
        assert lsq.counters.get("lsq_sq_entries_searched") >= 4
        assert lsq.counters.get("lsq_load_searches") == 1
