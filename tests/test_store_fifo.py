"""Unit tests for the store FIFO."""

import pytest

from repro.core import StoreFifo


class TestStoreFifo:
    def test_dispatch_fill_retire(self):
        fifo = StoreFifo(4)
        assert fifo.dispatch(1)
        fifo.fill(1, addr=0x100, size=8, data=42)
        slot = fifo.retire(1)
        assert (slot.addr, slot.size, slot.data) == (0x100, 8, 42)
        assert len(fifo) == 0

    def test_in_order_retirement_enforced(self):
        fifo = StoreFifo(4)
        fifo.dispatch(1)
        fifo.dispatch(2)
        with pytest.raises(RuntimeError):
            fifo.retire(2)

    def test_capacity(self):
        fifo = StoreFifo(2)
        assert fifo.dispatch(1)
        assert fifo.dispatch(2)
        assert fifo.full
        assert not fifo.dispatch(3)

    def test_flush_after_removes_younger(self):
        fifo = StoreFifo(8)
        for seq in (1, 5, 9):
            fifo.dispatch(seq)
        assert fifo.flush_after(5) == 1
        assert len(fifo) == 2
        fifo.fill(1, 0, 8, 0)
        fifo.retire(1)
        fifo.fill(5, 0, 8, 0)
        fifo.retire(5)

    def test_flush_after_everything(self):
        fifo = StoreFifo(8)
        fifo.dispatch(1)
        fifo.dispatch(2)
        assert fifo.flush_after(0) == 2
        assert len(fifo) == 0

    def test_flushed_slot_can_be_redispatched(self):
        fifo = StoreFifo(8)
        fifo.dispatch(1)
        fifo.dispatch(2)
        fifo.flush_after(1)
        assert fifo.dispatch(3)
        fifo.fill(3, 0x8, 4, 7)

    def test_retire_empty_raises(self):
        fifo = StoreFifo(4)
        with pytest.raises(RuntimeError):
            fifo.retire(1)


class TestWrongPathFullSquash:
    """A wrong-path flush that squashes every in-flight store must leave
    the FIFO indistinguishable from a fresh one."""

    def test_flush_after_all_filled_stores(self):
        fifo = StoreFifo(4)
        for seq in (3, 7, 11):
            assert fifo.dispatch(seq)
            fifo.fill(seq, addr=0x100 + seq * 8, size=8, data=seq)
        # The recovery point is older than every in-flight store.
        assert fifo.flush_after(2) == 3
        assert len(fifo) == 0
        assert not fifo.full

    def test_fifo_usable_after_total_squash(self):
        fifo = StoreFifo(2)
        fifo.dispatch(5)
        fifo.dispatch(6)
        assert fifo.full
        fifo.flush_after(0)
        # Post-flush the full capacity is available again, and the
        # normal dispatch/fill/retire protocol works on new sequence
        # numbers (the squashed ones never retire).
        assert fifo.dispatch(10)
        assert fifo.dispatch(11)
        fifo.fill(10, addr=0x200, size=4, data=1)
        fifo.fill(11, addr=0x208, size=4, data=2)
        assert fifo.retire(10).data == 1
        assert fifo.retire(11).data == 2
        assert len(fifo) == 0

    def test_squashed_store_cannot_retire(self):
        fifo = StoreFifo(4)
        fifo.dispatch(1)
        fifo.fill(1, addr=0x100, size=8, data=9)
        fifo.flush_after(0)
        with pytest.raises(RuntimeError):
            fifo.retire(1)
