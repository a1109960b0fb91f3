"""Store FIFO -- in-order, non-associative store retirement buffer.

With the SFC handling forwarding and the MDT handling disambiguation, the
store queue loses its CAM and "becomes a simple FIFO that holds stores for
in-order, non-speculative retirement" (Section 2.3).  A store allocates a
slot at dispatch, fills in its address and data during execution, and
drains its slot to memory at retirement.
"""

from __future__ import annotations

from collections import deque
from typing import Deque


class _FifoSlot:
    __slots__ = ("seq", "addr", "size", "data")

    def __init__(self, seq: int):
        self.seq = seq
        self.addr = 0
        self.size = 0
        self.data = 0


class StoreFifo:
    """Bounded FIFO of in-flight stores, ordered by sequence number."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._slots: Deque[_FifoSlot] = deque()
        self._by_seq = {}

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def full(self) -> bool:
        return len(self._slots) >= self.capacity

    def dispatch(self, seq: int) -> bool:
        """Allocate a slot at dispatch; False when the FIFO is full."""
        if self.full:
            return False
        slot = _FifoSlot(seq)
        self._slots.append(slot)
        self._by_seq[seq] = slot
        return True

    def fill(self, seq: int, addr: int, size: int, data: int) -> None:
        """Record the executing store's address and data."""
        slot = self._by_seq[seq]
        slot.addr = addr
        slot.size = size
        slot.data = data

    def retire(self, seq: int) -> _FifoSlot:
        """Pop the head slot; it must belong to the retiring store.

        Never returns ``None``: a head mismatch (or empty FIFO) raises,
        so callers use the slot unconditionally.
        """
        if not self._slots or self._slots[0].seq != seq:
            raise RuntimeError(
                f"store FIFO head mismatch: expected {seq}, "
                f"head={self._slots[0].seq if self._slots else None}")
        slot = self._slots.popleft()
        del self._by_seq[seq]
        return slot

    def flush_after(self, seq: int) -> int:
        """Squash every store younger than ``seq``; returns count removed."""
        removed = 0
        while self._slots and self._slots[-1].seq > seq:
            slot = self._slots.pop()
            del self._by_seq[slot.seq]
            removed += 1
        return removed
