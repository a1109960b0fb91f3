"""Unit tests for the Memory Disambiguation Table (paper Section 2.2)."""

import pytest

from repro.core import (
    ANTI_DEP,
    MDT_CONFLICT,
    MDT_OK,
    MDTConfig,
    MemoryDisambiguationTable,
    OUTPUT_DEP,
    TRUE_DEP,
)
from tests.conftest import tracked_objects_added


def make_mdt(num_sets=16, assoc=2, granularity=8, tagged=True,
             counted=False):
    return MemoryDisambiguationTable(
        MDTConfig(num_sets=num_sets, assoc=assoc, granularity=granularity,
                  tagged=tagged, counted_load_recovery=counted))


def touched_sets(mdt):
    """Sets that hold a way list (untouched sets are None)."""
    return sum(ways is not None for ways in mdt._sets)


class TestFirstTouch:
    def test_construction_builds_no_sets(self):
        added = tracked_objects_added(
            lambda: MemoryDisambiguationTable(MDTConfig(num_sets=1 << 16)))
        assert added < 16

    @pytest.mark.parametrize("kwargs", [{}, {"tagged": False},
                                        {"counted": True}],
                             ids=["tagged", "untagged", "counted"])
    def test_untouched_addresses_create_no_set(self, kwargs):
        mdt = make_mdt(**kwargs)
        assert mdt.check_store(0x100, 8, seq=5, pc=0x10) == []
        # A ROB-head-bypassed access retires without having recorded
        # itself; 0x104 spans two granules.
        mdt.on_load_retire(0x104, 8, seq=6)
        mdt.on_store_retire(0x204, 8, seq=7)
        assert mdt.occupancy() == 0
        assert touched_sets(mdt) == 0


class TestProtocolBasics:
    def test_in_order_accesses_are_clean(self):
        mdt = make_mdt()
        assert not mdt.access_store(0x100, 8, 1, 0x10, 0).violations
        assert not mdt.access_load(0x100, 8, 2, 0x14, 0).violations
        assert not mdt.access_store(0x100, 8, 3, 0x18, 0).violations

    def test_disjoint_addresses_never_conflict(self):
        mdt = make_mdt()
        assert not mdt.access_store(0x100, 8, 5, 0x10, 0).violations
        assert not mdt.access_load(0x200, 8, 1, 0x14, 0).violations

    def test_true_violation_detected(self):
        """Younger load issued before an older store to the same address."""
        mdt = make_mdt()
        mdt.access_load(0x100, 8, seq=10, pc=0x14, watermark=0)
        result = mdt.access_store(0x100, 8, seq=5, pc=0x10, watermark=0)
        assert len(result.violations) == 1
        violation = result.violations[0]
        assert violation.kind == TRUE_DEP
        assert violation.producer_pc == 0x10
        assert violation.consumer_pc == 0x14
        # Conservative policy: flush everything after the store.
        assert violation.flush_after_seq == 5

    def test_anti_violation_detected(self):
        """Older load issuing after a younger store already completed."""
        mdt = make_mdt()
        mdt.access_store(0x100, 8, seq=10, pc=0x10, watermark=0)
        result = mdt.access_load(0x100, 8, seq=5, pc=0x14, watermark=0)
        violation = result.violations[0]
        assert violation.kind == ANTI_DEP
        # The load itself must be squashed: flush from just before it.
        assert violation.flush_after_seq == 4
        assert violation.producer_pc == 0x14       # earlier load produces
        assert violation.consumer_pc == 0x10       # later store consumes

    def test_output_violation_detected(self):
        """Older store completing after a younger store."""
        mdt = make_mdt()
        mdt.access_store(0x100, 8, seq=10, pc=0x10, watermark=0)
        result = mdt.access_store(0x100, 8, seq=5, pc=0x18, watermark=0)
        violation = result.violations[0]
        assert violation.kind == OUTPUT_DEP
        assert violation.flush_after_seq == 5
        assert violation.producer_pc == 0x18
        assert violation.consumer_pc == 0x10

    def test_store_can_hit_both_true_and_output(self):
        mdt = make_mdt()
        mdt.access_load(0x100, 8, seq=20, pc=0x14, watermark=0)
        mdt.access_store(0x100, 8, seq=10, pc=0x10, watermark=0)
        result = mdt.access_store(0x100, 8, seq=5, pc=0x18, watermark=0)
        kinds = {v.kind for v in result.violations}
        assert kinds == {TRUE_DEP, OUTPUT_DEP}

    def test_reissue_same_seq_is_idempotent(self):
        """A replayed access re-issues with its own sequence number."""
        mdt = make_mdt()
        mdt.access_store(0x100, 8, seq=5, pc=0x10, watermark=0)
        result = mdt.access_store(0x100, 8, seq=5, pc=0x10, watermark=0)
        assert not result.violations

    def test_youngest_numbers_are_kept(self):
        mdt = make_mdt()
        mdt.access_load(0x100, 8, seq=5, pc=0x14, watermark=0)
        mdt.access_load(0x100, 8, seq=9, pc=0x24, watermark=0)
        # A store older than both reports the *latest* load as consumer.
        result = mdt.access_store(0x100, 8, seq=1, pc=0x10, watermark=0)
        assert result.violations[0].consumer_pc == 0x24


class TestGranularity:
    def test_same_granule_aliasing(self):
        """Distinct addresses within one granule share an entry."""
        mdt = make_mdt(granularity=8)
        mdt.access_store(0x100, 1, seq=10, pc=0x10, watermark=0)
        result = mdt.access_load(0x107, 1, seq=5, pc=0x14, watermark=0)
        assert result.violations[0].kind == ANTI_DEP

    def test_finer_granularity_separates(self):
        mdt = make_mdt(granularity=4)
        mdt.access_store(0x100, 1, seq=10, pc=0x10, watermark=0)
        result = mdt.access_load(0x104, 1, seq=5, pc=0x14, watermark=0)
        assert not result.violations

    def test_access_spanning_granules_touches_both(self):
        mdt = make_mdt(granularity=8)
        mdt.access_store(0x100, 8, seq=1, pc=0x10, watermark=0)
        mdt.access_store(0x108, 8, seq=2, pc=0x10, watermark=0)
        # A load spanning both granules, older than both stores.
        result = mdt.access_load(0x104, 8, seq=0, pc=0x14, watermark=0)
        assert len(result.violations) == 2

    def test_rejects_non_power_of_two_granularity(self):
        with pytest.raises(ValueError):
            MDTConfig(granularity=12)


class TestConflicts:
    def test_tagged_set_conflict_replays(self):
        mdt = make_mdt(num_sets=1, assoc=2)
        mdt.access_load(0x100, 8, seq=1, pc=0x10, watermark=0)
        mdt.access_load(0x200, 8, seq=2, pc=0x10, watermark=0)
        result = mdt.access_load(0x300, 8, seq=3, pc=0x10, watermark=0)
        assert result.status == MDT_CONFLICT
        assert mdt.counters.get("mdt_set_conflicts") == 1

    def test_conflict_scrubs_dead_ways_first(self):
        mdt = make_mdt(num_sets=1, assoc=1)
        mdt.access_load(0x100, 8, seq=1, pc=0x10, watermark=0)
        result = mdt.access_load(0x200, 8, seq=50, pc=0x10, watermark=40)
        assert result.status == MDT_OK

    def test_untagged_shares_entries(self):
        mdt = make_mdt(num_sets=1, tagged=False)
        mdt.access_store(0x100, 8, seq=10, pc=0x10, watermark=0)
        # A *different* address aliases to the same untagged entry and
        # produces a spurious anti violation -- the paper's trade-off.
        result = mdt.access_load(0x900, 8, seq=5, pc=0x14, watermark=0)
        assert result.status == MDT_OK
        assert result.violations[0].kind == ANTI_DEP

    def test_untagged_never_conflicts(self):
        mdt = make_mdt(num_sets=1, assoc=1, tagged=False)
        for i in range(10):
            result = mdt.access_load(0x100 * i, 8, seq=20 + i, pc=0x10,
                                     watermark=0)
            assert result.status == MDT_OK


class TestRetirement:
    def test_load_retire_invalidates_and_frees(self):
        mdt = make_mdt()
        mdt.access_load(0x100, 8, seq=5, pc=0x14, watermark=0)
        mdt.on_load_retire(0x100, 8, seq=5)
        assert mdt.occupancy() == 0

    def test_store_retire_invalidates_and_frees(self):
        mdt = make_mdt()
        mdt.access_store(0x100, 8, seq=5, pc=0x10, watermark=0)
        mdt.on_store_retire(0x100, 8, seq=5)
        assert mdt.occupancy() == 0

    def test_entry_survives_while_other_number_valid(self):
        mdt = make_mdt()
        mdt.access_load(0x100, 8, seq=5, pc=0x14, watermark=0)
        mdt.access_store(0x100, 8, seq=6, pc=0x10, watermark=0)
        mdt.on_load_retire(0x100, 8, seq=5)
        assert mdt.occupancy() == 1
        mdt.on_store_retire(0x100, 8, seq=6)
        assert mdt.occupancy() == 0

    def test_stale_retire_does_not_clear_younger_number(self):
        mdt = make_mdt()
        mdt.access_load(0x100, 8, seq=5, pc=0x14, watermark=0)
        mdt.access_load(0x100, 8, seq=9, pc=0x14, watermark=0)
        mdt.on_load_retire(0x100, 8, seq=5)
        # Seq 9 still recorded: an older store must still violate.
        result = mdt.access_store(0x100, 8, seq=2, pc=0x10, watermark=0)
        assert result.violations

    def test_retire_frees_count_as_evictions(self):
        mdt = make_mdt()
        mdt.access_load(0x100, 8, seq=5, pc=0x14, watermark=0)
        before = mdt.eviction_events
        mdt.on_load_retire(0x100, 8, seq=5)
        assert mdt.eviction_events == before + 1


class TestFlushesAndScrub:
    def test_partial_flush_leaves_state(self):
        mdt = make_mdt()
        mdt.access_store(0x100, 8, seq=10, pc=0x10, watermark=0)
        mdt.on_partial_flush()
        # Conservatism: the canceled store still triggers violations.
        result = mdt.access_load(0x100, 8, seq=5, pc=0x14, watermark=0)
        assert result.violations

    def test_scrub_reclaims_dead(self):
        # An access that finds its set full scrubs it: the dead way goes,
        # the live one stays.
        mdt = make_mdt(num_sets=1, assoc=2)
        mdt.access_load(0x100, 8, seq=1, pc=0x14, watermark=0)
        mdt.access_load(0x200, 8, seq=50, pc=0x14, watermark=0)
        result = mdt.access_load(0x300, 8, seq=60, pc=0x14, watermark=10)
        assert result.status == MDT_OK
        assert mdt.occupancy() == 2

    def test_wrong_path_flush_of_every_store_stays_conservative(self):
        """A recovery flush that squashes every in-flight store leaves
        their recorded sequence numbers behind (Section 2.2): the very
        next older load still sees the canceled store and replays/flags
        conservatively rather than missing a real ordering risk."""
        mdt = make_mdt()
        mdt.access_store(0x100, 8, seq=10, pc=0x10, watermark=0)
        mdt.access_store(0x180, 8, seq=12, pc=0x18, watermark=0)
        # Recovery point 0 is older than both stores: total squash.
        mdt.on_partial_flush(flush_after_seq=0)
        result = mdt.access_load(0x100, 8, seq=5, pc=0x14, watermark=0)
        assert any(v.kind == ANTI_DEP for v in result.violations)

    def test_wrong_path_flush_of_every_store_drops_counted_loads(self):
        """The §2.4.1 completed-load sets must not leak squashed loads:
        after a total squash the store falls back to conservative
        store-point recovery instead of targeting a ghost load."""
        mdt = make_mdt(counted=True)
        mdt.access_load(0x100, 8, seq=10, pc=0x14, watermark=0)
        mdt.access_load(0x100, 8, seq=12, pc=0x24, watermark=0)
        mdt.on_partial_flush(flush_after_seq=0)
        result = mdt.access_store(0x100, 8, seq=5, pc=0x10, watermark=0)
        assert result.violations
        assert result.violations[0].flush_after_seq == 5


class TestCountedRecovery:
    def test_single_load_flushes_from_load(self):
        """Section 2.4.1: with one completed conflicting load, flush the
        load instead of the whole post-store window."""
        mdt = make_mdt(counted=True)
        mdt.access_load(0x100, 8, seq=10, pc=0x14, watermark=0)
        result = mdt.access_store(0x100, 8, seq=5, pc=0x10, watermark=0)
        assert result.violations[0].flush_after_seq == 9

    def test_multiple_loads_fall_back_to_conservative(self):
        mdt = make_mdt(counted=True)
        mdt.access_load(0x100, 8, seq=10, pc=0x14, watermark=0)
        mdt.access_load(0x100, 8, seq=12, pc=0x24, watermark=0)
        result = mdt.access_store(0x100, 8, seq=5, pc=0x10, watermark=0)
        assert result.violations[0].flush_after_seq == 5

    def test_disabled_by_default(self):
        mdt = make_mdt(counted=False)
        mdt.access_load(0x100, 8, seq=10, pc=0x14, watermark=0)
        result = mdt.access_store(0x100, 8, seq=5, pc=0x10, watermark=0)
        assert result.violations[0].flush_after_seq == 5

    def test_load_count_decrements_at_retire(self):
        mdt = make_mdt(counted=True)
        mdt.access_load(0x100, 8, seq=10, pc=0x14, watermark=0)
        mdt.access_load(0x100, 8, seq=12, pc=0x24, watermark=0)
        mdt.on_load_retire(0x100, 8, seq=10)
        result = mdt.access_store(0x100, 8, seq=5, pc=0x10, watermark=0)
        assert result.violations[0].flush_after_seq == 11

    def test_recovery_after_partial_flush_cancels_tracked_load(self):
        """A partial flush un-counts the canceled load, so §2.4.1
        recovery targets the surviving one instead of falling back."""
        mdt = make_mdt(counted=True)
        mdt.access_load(0x100, 8, seq=10, pc=0x14, watermark=0)
        mdt.access_load(0x100, 8, seq=12, pc=0x24, watermark=0)
        # Flush everything younger than seq 11: load 12 never executed.
        mdt.on_partial_flush(flush_after_seq=11)
        result = mdt.access_store(0x100, 8, seq=5, pc=0x10, watermark=0)
        # Exactly one completed load remains -> flush from that load.
        assert result.violations[0].flush_after_seq == 9

    def test_partial_flush_without_point_stays_conservative(self):
        mdt = make_mdt(counted=True)
        mdt.access_load(0x100, 8, seq=10, pc=0x14, watermark=0)
        mdt.access_load(0x100, 8, seq=12, pc=0x24, watermark=0)
        mdt.on_partial_flush()
        result = mdt.access_store(0x100, 8, seq=5, pc=0x10, watermark=0)
        assert result.violations[0].flush_after_seq == 5


class TestMultiGranuleAtomicity:
    def test_spanning_conflict_commits_nothing(self):
        """If any granule of a spanning access conflicts, no granule may
        be updated: the access replays and must see a clean table."""
        mdt = make_mdt(num_sets=2, assoc=1)
        # Fill the set that granule 0x108 maps to (granule 0x21, set 1).
        mdt.access_load(0x208, 8, seq=1, pc=0x10, watermark=0)
        before = mdt.occupancy()
        # Spans granules 0x100 (set 0, free) and 0x108 (set 1, full).
        result = mdt.access_load(0x104, 8, seq=2, pc=0x14, watermark=0)
        assert result.status == MDT_CONFLICT
        # The free first granule must NOT have been allocated.
        assert mdt.occupancy() == before
        # An older store to the first granule sees no phantom load.
        check = mdt.access_store(0x100, 8, seq=0, pc=0x18, watermark=0)
        assert not check.violations

    def test_spanning_same_set_counts_pending_allocations(self):
        """Both granules of one access landing in the same set must find
        room for *two* new entries, not one."""
        mdt = make_mdt(num_sets=1, assoc=2)
        mdt.access_load(0x300, 8, seq=1, pc=0x10, watermark=0)
        before = mdt.occupancy()
        # Needs two ways in set 0; only one is free.
        result = mdt.access_load(0x104, 8, seq=2, pc=0x14, watermark=0)
        assert result.status == MDT_CONFLICT
        assert mdt.occupancy() == before

    @pytest.mark.parametrize("preload", [None, 0x100],
                             ids=["untouched", "own-way-dead"])
    def test_spanning_access_needs_two_ways_in_one_way_set(self, preload):
        """In a 1x1 table a spanning access always replays.  When the
        first granule's own way is dead, the scrub drops it and then
        both granules need a way; an untouched set stays untouched."""
        mdt = make_mdt(num_sets=1, assoc=1)
        if preload is not None:
            mdt.access_load(preload, 8, seq=1, pc=0x10, watermark=0)
        # Spans granules 0x20 and 0x21; seq 1 is dead at watermark 5.
        result = mdt.access_load(0x104, 8, seq=20, pc=0x14, watermark=5)
        assert result.status == MDT_CONFLICT
        assert mdt.occupancy() == 0
        assert touched_sets(mdt) == (preload is not None)

    def test_conflicting_access_replays_cleanly(self):
        """Replay after the blocker retires behaves as a first access."""
        mdt = make_mdt(num_sets=2, assoc=1)
        mdt.access_load(0x208, 8, seq=1, pc=0x10, watermark=0)
        assert mdt.access_load(0x104, 8, seq=2, pc=0x14,
                               watermark=0).status == MDT_CONFLICT
        mdt.on_load_retire(0x208, 8, seq=1)
        replay = mdt.access_load(0x104, 8, seq=2, pc=0x14, watermark=0)
        assert replay.status == MDT_OK
        assert not replay.violations
        assert mdt.occupancy() == 2


class TestResultIsolation:
    def test_violations_are_immutable_tuples(self):
        mdt = make_mdt()
        clean = mdt.access_load(0x100, 8, seq=1, pc=0x14, watermark=0)
        assert isinstance(clean.violations, tuple)
        with pytest.raises(AttributeError):
            clean.violations.append(None)

    def test_clean_results_never_leak_violations(self):
        """Two independent clean results share no mutable state, so a
        violation reported to one caller can never appear in another's
        (the old shared-list singleton bug)."""
        mdt = make_mdt()
        first = mdt.access_load(0x100, 8, seq=1, pc=0x14, watermark=0)
        mdt.access_store(0x200, 8, seq=10, pc=0x10, watermark=0)
        violating = mdt.access_load(0x200, 8, seq=5, pc=0x14, watermark=0)
        second = mdt.access_load(0x300, 8, seq=20, pc=0x14, watermark=0)
        assert not first.violations
        assert not second.violations
        assert len(violating.violations) == 1
