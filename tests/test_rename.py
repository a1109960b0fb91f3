"""Unit tests for register renaming with checkpoints."""

import pytest

from repro.isa.instructions import NUM_REGS
from repro.pipeline import RenameError, RenameTable


class TestRename:
    def test_initial_identity_mapping(self):
        table = RenameTable(64)
        for arch in range(NUM_REGS):
            assert table.lookup(arch) == arch
            assert table.is_ready(arch)

    def test_allocate_remaps_and_clears_ready(self):
        table = RenameTable(64)
        phys = table.allocate(5)
        assert table.lookup(5) == phys
        assert phys >= NUM_REGS
        assert not table.is_ready(phys)

    def test_write_sets_value_and_ready(self):
        table = RenameTable(64)
        phys = table.allocate(5)
        table.write(phys, 42)
        assert table.is_ready(phys)
        assert table.read(phys) == 42

    def test_free_count_decrements(self):
        table = RenameTable(64)
        before = table.free_count
        table.allocate(1)
        assert table.free_count == before - 1

    def test_exhaustion_raises(self):
        table = RenameTable(NUM_REGS + 2)
        table.allocate(1)
        table.allocate(2)
        with pytest.raises(RenameError):
            table.allocate(3)

    def test_release_recycles(self):
        table = RenameTable(NUM_REGS + 1)
        phys = table.allocate(1)
        table.release(phys)
        assert table.allocate(2) == phys

    def test_rejects_too_few_phys(self):
        with pytest.raises(ValueError):
            RenameTable(NUM_REGS)

    def test_old_mapping_still_readable_after_rename(self):
        """Consumers renamed earlier read the old physical register."""
        table = RenameTable(64)
        table.write(table.lookup(3), 7)
        old_phys = table.lookup(3)
        table.allocate(3)
        assert table.read(old_phys) == 7
