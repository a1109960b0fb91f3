"""Out-of-order scheduling window with dependence-tag enforcement and
stall bits.

Event-driven wakeup/select: each waiting instruction carries a count of
outstanding source operands (physical registers plus, for predicted
consumers, one dependence tag -- Section 2.1); producers decrement the
counts of their listeners at completion, and instructions whose count hits
zero enter an age-ordered ready heap.  Select pops the oldest ready
instructions each cycle, which both mimics age-prioritized select logic
and guarantees forward progress.

The window's state is :class:`Scheduler`'s, but the work every
instruction does on it runs inline in the core's cycle loop
(:meth:`~repro.pipeline.core.Core._cycles`), on ``ready_heap``,
``phys_waiters``, ``tag_waiters`` and ``occupancy`` bound to locals:
the insert at dispatch (count the unready sources and the pending
consumed tag, append to their waiter lists, or push onto the ready heap
when nothing is pending) and the wakeup at writeback (pop a completing
register's waiters and decrement their counts; squashed and issued
waiters are skipped, and ``in_ready`` guards against a second push).
What stays here are the once-per-cycle :meth:`Scheduler.select` and the
rare paths: replay and stall bits, the ROB-head bypass, dependence-tag
wakeup and squash.

Replayed loads/stores (structural conflicts, SFC corruptions) are parked
with their *stall bit* set; per Section 2.4.3 the scheduler clears all
stall bits whenever the MDT or SFC evicts an entry.
"""

from __future__ import annotations

import heapq
from typing import Dict, List

from .dyninst import DynInst


class Scheduler:
    """Scheduling window: wakeup lists, ready heap, stalled instructions.

    ``occupancy`` counts the instructions in the window: dispatched and
    not yet issued or squashed, plus replayed ones parked again.  It can
    exceed ``capacity`` for a while, because a replay re-enters the
    window without waiting for room.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.ready_heap: List = []                 # heap of (seq, DynInst)
        self.phys_waiters: Dict[int, List[DynInst]] = {}
        self.tag_waiters: Dict[int, List[DynInst]] = {}
        self.occupancy = 0
        self._stalled: List[DynInst] = []

    @property
    def has_space(self) -> bool:
        return self.occupancy < self.capacity

    # -- select ----------------------------------------------------------------------

    def select(self, width: int) -> List[DynInst]:
        """Take up to ``width`` ready instructions, oldest first, out of
        the window: each is marked issued as it is popped.  The core
        selects the whole group before any member executes; a member
        that an older one's execution squashes is skipped there."""
        selected: List[DynInst] = []
        ready = self.ready_heap
        while ready and len(selected) < width:
            _seq, inst = heapq.heappop(ready)
            inst.in_ready = False
            if inst.squashed or inst.issued or inst.stalled:
                continue
            inst.issued = True
            selected.append(inst)
        self.occupancy -= len(selected)
        return selected

    # -- wakeup ---------------------------------------------------------------------

    def _push_ready(self, inst: DynInst) -> None:
        if not inst.in_ready and not inst.squashed:
            inst.in_ready = True
            heapq.heappush(self.ready_heap, (inst.seq, inst))

    def on_tag_ready(self, tag: int) -> None:
        """A dependence tag's producer completed (or was squashed): wake
        the predicted consumers waiting on it."""
        for inst in self.tag_waiters.pop(tag, ()):
            if inst.squashed or inst.issued:
                continue
            inst.wait_count -= 1
            if inst.wait_count == 0 and not inst.stalled:
                self._push_ready(inst)

    # -- replay ----------------------------------------------------------------------

    def replay(self, inst: DynInst) -> None:
        """A load/store was dropped by the memory unit: back into the
        window with its stall bit set (Section 2.4.3)."""
        inst.issued = False
        inst.stalled = True
        self.occupancy += 1
        self._stalled.append(inst)

    def clear_stall_bits(self) -> None:
        """An MDT/SFC entry was evicted: let every parked access retry."""
        if not self._stalled:
            return
        for inst in self._stalled:
            if inst.squashed or inst.issued:
                continue
            inst.stalled = False
            if inst.wait_count == 0:
                self._push_ready(inst)
        self._stalled.clear()

    def force_ready(self, inst: DynInst) -> None:
        """ROB-head bypass: the head instruction retries immediately."""
        if inst in self._stalled:
            self._stalled.remove(inst)
        inst.stalled = False
        if inst.wait_count == 0:
            self._push_ready(inst)

    @property
    def stalled_count(self) -> int:
        return len(self._stalled)

    # -- flush -----------------------------------------------------------------------

    def squash_after(self) -> None:
        """Drop squashed instructions from the stalled list.

        Squashed instructions are removed lazily from the heap and wakeup
        lists (their ``squashed`` flag excludes them); only the occupancy
        count (:meth:`note_squashed`) and the stalled list are cleaned
        eagerly.
        """
        self._stalled = [i for i in self._stalled if not i.squashed]

    def note_squashed(self, inst: DynInst) -> None:
        """Account for one squashed instruction: one still in the window
        leaves it."""
        if not inst.issued:
            self.occupancy -= 1
