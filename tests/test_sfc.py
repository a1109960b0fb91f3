"""Unit tests for the Store Forwarding Cache (paper Section 2.3)."""

import pytest

from repro.core import (
    REPLAY,
    SFC_CORRUPT,
    SFC_HIT,
    SFC_MISS,
    SFC_PARTIAL,
    SFCConfig,
    SfcMdtSubsystem,
    StoreForwardingCache,
)
from repro.memory import MainMemory, paper_hierarchy
from repro.pipeline.config import CoreConfig
from repro.stats.counters import Counters

LIVE = 10 ** 9      # watermark far below any test sequence number


def make_sfc(num_sets=8, assoc=2):
    return StoreForwardingCache(SFCConfig(num_sets=num_sets, assoc=assoc))


class TestStoreLoadForwarding:
    def test_full_match_forwards(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 8, 0xDEADBEEF, seq=1)
        status, value = sfc.load_read(0x1000, 8)
        assert status == SFC_HIT and value == 0xDEADBEEF

    def test_miss_when_empty(self):
        sfc = make_sfc()
        assert sfc.load_read(0x1000, 8)[0] == SFC_MISS

    def test_subword_store_forwards_to_matching_load(self):
        sfc = make_sfc()
        sfc.store_write(0x1002, 2, 0xBEEF, seq=1)
        status, value = sfc.load_read(0x1002, 2)
        assert status == SFC_HIT and value == 0xBEEF

    def test_partial_match_on_wider_load(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 4, 0x11223344, seq=1)
        assert sfc.load_read(0x1000, 8)[0] == SFC_PARTIAL

    def test_cumulative_value_from_two_stores(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 4, 0x11223344, seq=1)
        sfc.store_write(0x1004, 4, 0x55667788, seq=2)
        status, value = sfc.load_read(0x1000, 8)
        assert status == SFC_HIT
        assert value == 0x5566778811223344

    def test_younger_store_overwrites_bytes(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 8, 0, seq=1)
        sfc.store_write(0x1000, 1, 0xAB, seq=2)
        status, value = sfc.load_read(0x1000, 8)
        assert status == SFC_HIT and value == 0xAB

    def test_load_of_untouched_bytes_in_live_word_misses(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 4, 0x11223344, seq=1)
        assert sfc.load_read(0x1004, 4)[0] == SFC_MISS

    def test_unaligned_store_spans_two_words(self):
        sfc = make_sfc()
        sfc.store_write(0x1004, 8, 0x1122334455667788, seq=1)
        status, value = sfc.load_read(0x1004, 8)
        assert status == SFC_HIT and value == 0x1122334455667788
        # Both aligned words host bytes.
        assert sfc.occupancy() == 2

    def test_multiword_load_mixing_hit_and_miss_is_partial(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 8, 1, seq=1)
        assert sfc.load_read(0x1004, 8)[0] == SFC_PARTIAL


class TestAllocationAndConflicts:
    def test_probe_allows_existing_word(self):
        sfc = make_sfc(num_sets=1, assoc=1)
        sfc.store_write(0x1000, 8, 1, seq=1)
        assert sfc.probe_store(0x1000, 8, watermark=0)

    def test_set_conflict_detected(self):
        sfc = make_sfc(num_sets=1, assoc=2)
        sfc.store_write(0x1000, 8, 1, seq=1)
        sfc.store_write(0x2000, 8, 2, seq=2)
        assert not sfc.probe_store(0x3000, 8, watermark=0)
        assert sfc.counters.get("sfc_set_conflicts") == 1

    def test_probe_scrubs_dead_ways(self):
        sfc = make_sfc(num_sets=1, assoc=1)
        sfc.store_write(0x1000, 8, 1, seq=1)
        # Watermark above the entry's writer: it is dead and reclaimable.
        assert sfc.probe_store(0x2000, 8, watermark=5)

    def test_associativity_gives_capacity(self):
        sfc = make_sfc(num_sets=1, assoc=4)
        for i in range(4):
            assert sfc.probe_store(0x1000 * (i + 1), 8, watermark=0)
            sfc.store_write(0x1000 * (i + 1), 8, i, seq=i + 1)
        assert not sfc.probe_store(0x9000, 8, watermark=0)

    @pytest.mark.parametrize("assoc, preload", [
        (1, ()),
        (2, ((0x3000, 10),)),
        # Word 0x200's own entry is dead: the scrub drops it, and then
        # both words need a way.
        (2, ((0x3000, 10), (0x1000, 1))),
    ], ids=["1x1", "1x2-one-live", "1x2-own-word-dead"])
    def test_straddling_store_needs_a_way_per_word(self, assoc, preload):
        """Both words of a straddling store share the one set, so the
        store replays unless the set can take two new entries."""
        sub = SfcMdtSubsystem(
            CoreConfig(sfc=SFCConfig(num_sets=1, assoc=assoc)),
            MainMemory(), paper_hierarchy(), Counters())
        for addr, seq in preload:
            sub.sfc.store_write(addr, 8, seq, seq=seq)
        sub.dispatch_store(20, 0x100)
        # 0x1004..0x100b covers words 0x200 and 0x201; seq 1 is dead at
        # watermark 5, seq 10 is live.
        outcome = sub.execute_store(20, 0x100, 0x1004, 8,
                                    0x1122334455667788, watermark=5)
        assert outcome.status == REPLAY
        assert sub.sfc.counters.get("sfc_set_conflicts") == 1
        assert sub.sfc.occupancy() <= assoc

    def test_store_write_recycles_dead_entry_state(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 1, 0xAA, seq=1)
        sfc.on_partial_flush()                     # corrupt byte 0
        # Entry is now dead (writer "canceled"); a new store must not
        # inherit the stale valid/corrupt bytes.
        sfc.store_write(0x1004, 4, 0x12345678, seq=10, watermark=5)
        status, value = sfc.load_read(0x1004, 4, watermark=5)
        assert status == SFC_HIT and value == 0x12345678
        assert sfc.load_read(0x1000, 1, watermark=5)[0] == SFC_MISS


class TestRetirementFreeing:
    def test_latest_store_retire_frees_entry(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 8, 1, seq=1)
        sfc.on_store_retire(0x1000, 8, seq=1)
        assert sfc.occupancy() == 0
        assert sfc.load_read(0x1000, 8)[0] == SFC_MISS

    def test_older_store_retire_does_not_free(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 8, 1, seq=1)
        sfc.store_write(0x1000, 8, 2, seq=5)
        sfc.on_store_retire(0x1000, 8, seq=1)
        status, value = sfc.load_read(0x1000, 8)
        assert status == SFC_HIT and value == 2

    def test_retire_counts_as_eviction_event(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 8, 1, seq=1)
        before = sfc.eviction_events
        sfc.on_store_retire(0x1000, 8, seq=1)
        assert sfc.eviction_events == before + 1


class TestCorruption:
    def test_partial_flush_marks_valid_bytes_corrupt(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 8, 1, seq=1)
        sfc.on_partial_flush()
        assert sfc.load_read(0x1000, 8)[0] == SFC_CORRUPT

    def test_new_store_clears_corruption_for_its_bytes(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 8, 1, seq=1)
        sfc.on_partial_flush()
        sfc.store_write(0x1000, 4, 7, seq=2)
        assert sfc.load_read(0x1000, 4)[0] == SFC_HIT
        assert sfc.load_read(0x1004, 4)[0] == SFC_CORRUPT

    def test_mark_corrupt_range(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 8, 1, seq=1)
        sfc.mark_corrupt(0x1000, 4)
        assert sfc.load_read(0x1000, 4)[0] == SFC_CORRUPT
        assert sfc.load_read(0x1004, 4)[0] == SFC_HIT

    def test_mark_corrupt_missing_entry_is_noop(self):
        sfc = make_sfc()
        sfc.mark_corrupt(0x1000, 8)
        assert sfc.load_read(0x1000, 8)[0] == SFC_MISS

    def test_paper_example_corrupt_then_reclaim(self):
        """The ST/LD/BR/ST example from Section 2.3."""
        sfc = make_sfc()
        sfc.store_write(0xB000, 2, 0xA1A1, seq=1)     # store [1]
        sfc.store_write(0xB000, 2, 0xB2B2, seq=3)     # wrong-path store [3]
        sfc.on_partial_flush()                         # branch resolves
        # Load [4] on the correct path finds the entry corrupt.
        assert sfc.load_read(0xB000, 2, watermark=2)[0] == SFC_CORRUPT
        # Store [1] retires (watermark passes it); once every sequence
        # number in the entry is dead the entry is reclaimed and the load
        # reads the committed value from the cache hierarchy instead.
        assert sfc.load_read(0xB000, 2, watermark=4)[0] == SFC_MISS


class TestScrubbing:
    def test_scrub_reclaims_dead_entries(self):
        # A store that finds its set full scrubs it: the dead way goes,
        # the live one stays.
        sfc = make_sfc(num_sets=1, assoc=2)
        sfc.store_write(0x1000, 8, 1, seq=1)
        sfc.store_write(0x2000, 8, 2, seq=10)
        assert sfc.probe_store(0x3000, 8, watermark=5)
        assert sfc.occupancy() == 1

    def test_dead_entries_invisible_to_loads(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 8, 1, seq=1)
        assert sfc.load_read(0x1000, 8, watermark=0)[0] == SFC_HIT
        assert sfc.load_read(0x1000, 8, watermark=2)[0] == SFC_MISS

    def test_scrub_counts_eviction_events(self):
        sfc = make_sfc(num_sets=1, assoc=1)
        sfc.store_write(0x1000, 8, 1, seq=1)
        before = sfc.eviction_events
        assert sfc.probe_store(0x2000, 8, watermark=99)
        assert sfc.eviction_events == before + 1


class TestConfig:
    def test_rejects_non_power_of_two_sets(self):
        import pytest
        with pytest.raises(ValueError):
            SFCConfig(num_sets=100)

    def test_counters_track_traffic(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 8, 1, seq=1)
        sfc.load_read(0x1000, 8)
        assert sfc.counters.get("sfc_store_writes") == 1
        assert sfc.counters.get("sfc_load_lookups") == 1
        assert sfc.counters.get("sfc_forwards") == 1
