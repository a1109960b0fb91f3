"""Out-of-order scheduler with dependence-tag enforcement and stall bits.

Event-driven wakeup/select: each waiting instruction carries a count of
outstanding source operands (physical registers plus, for predicted
consumers, one dependence tag -- Section 2.1); producers decrement the
counts of their listeners at completion, and instructions whose count hits
zero enter an age-ordered ready heap.  Select pops the oldest ready
instructions each cycle, which both mimics age-prioritized select logic
and guarantees forward progress.

Replayed loads/stores (structural conflicts, SFC corruptions) are parked
with their *stall bit* set; per Section 2.4.3 the scheduler clears all
stall bits whenever the MDT or SFC evicts an entry.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from ..core.predictors import DependenceTagFile
from .dyninst import DynInst


class Scheduler:
    """Scheduling window: wakeup lists, ready heap, stalled instructions."""

    def __init__(self, capacity: int, tag_file: DependenceTagFile):
        self.capacity = capacity
        self.tag_file = tag_file
        self._ready: List = []                     # heap of (seq, DynInst)
        self._phys_waiters: Dict[int, List[DynInst]] = {}
        self._tag_waiters: Dict[int, List[DynInst]] = {}
        self._stalled: List[DynInst] = []
        self._occupancy = 0

    # -- capacity -----------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return self._occupancy

    @property
    def has_space(self) -> bool:
        return self._occupancy < self.capacity

    # -- dispatch -------------------------------------------------------------------

    def dispatch_fast(self, inst: DynInst, unready1: int = -1,
                      unready2: int = -1) -> None:
        """Insert a renamed instruction into the window.

        ``unready1``/``unready2`` are the source physical registers that
        are not yet ready (-1 = none; the same register twice waits for
        two wakeups).  The consumed dependence tag, if pending, adds one
        more wait.  The core's dispatch stage calls this once per
        instruction.
        """
        self._occupancy += 1
        wait = 0
        if unready1 >= 0:
            phys_waiters = self._phys_waiters
            waiters = phys_waiters.get(unready1)
            if waiters is None:
                phys_waiters[unready1] = [inst]
            else:
                waiters.append(inst)
            wait = 1
        if unready2 >= 0:
            phys_waiters = self._phys_waiters
            waiters = phys_waiters.get(unready2)
            if waiters is None:
                phys_waiters[unready2] = [inst]
            else:
                waiters.append(inst)
            wait += 1
        tag = inst.consumed_tag
        if tag is not None and not self.tag_file.is_ready(tag):
            waiters = self._tag_waiters.get(tag)
            if waiters is None:
                self._tag_waiters[tag] = [inst]
            else:
                waiters.append(inst)
            wait += 1
        inst.wait_count = wait
        if wait == 0:
            self._push_ready(inst)

    # -- wakeup ---------------------------------------------------------------------

    def _push_ready(self, inst: DynInst) -> None:
        if not inst.in_ready and not inst.squashed:
            inst.in_ready = True
            heapq.heappush(self._ready, (inst.seq, inst))

    def _wake(self, waiters: Optional[List[DynInst]]) -> None:
        if not waiters:
            return
        for inst in waiters:
            if inst.squashed or inst.issued:
                continue
            inst.wait_count -= 1
            if inst.wait_count == 0 and not inst.stalled:
                self._push_ready(inst)

    def on_phys_ready(self, phys: int) -> None:
        # _wake inlined: this runs once per completing producer.
        waiters = self._phys_waiters.pop(phys, None)
        if not waiters:
            return
        ready = self._ready
        for inst in waiters:
            if inst.squashed or inst.issued:
                continue
            inst.wait_count -= 1
            if inst.wait_count == 0 and not inst.stalled and \
                    not inst.in_ready:
                inst.in_ready = True
                heapq.heappush(ready, (inst.seq, inst))

    def on_tag_ready(self, tag: int) -> None:
        self._wake(self._tag_waiters.pop(tag, None))

    # -- select ----------------------------------------------------------------------

    def select(self, width: int) -> List[DynInst]:
        """Pop up to ``width`` ready instructions, oldest first."""
        selected: List[DynInst] = []
        ready = self._ready
        while ready and len(selected) < width:
            _seq, inst = heapq.heappop(ready)
            inst.in_ready = False
            if inst.squashed or inst.issued or inst.stalled:
                continue
            selected.append(inst)
        return selected

    def mark_issued(self, inst: DynInst) -> None:
        """The instruction left the window for a function unit."""
        inst.issued = True
        self._occupancy -= 1

    @property
    def has_ready(self) -> bool:
        # The heap may hold squashed leftovers; peek conservatively.
        return bool(self._ready)

    # -- replay ----------------------------------------------------------------------

    def replay(self, inst: DynInst) -> None:
        """A load/store was dropped by the memory unit: back into the
        window with its stall bit set (Section 2.4.3)."""
        inst.issued = False
        inst.stalled = True
        self._occupancy += 1
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

    def squash_after(self, seq: int) -> None:
        """Drop window occupancy for squashed instructions.

        Squashed instructions are removed lazily from the heap and wakeup
        lists (their ``squashed`` flag excludes them); only the occupancy
        count and the stalled list are cleaned eagerly.
        """
        self._stalled = [i for i in self._stalled if not i.squashed]

    def note_squashed(self, inst: DynInst) -> None:
        """Account for one squashed, not-yet-issued instruction."""
        if not inst.issued:
            self._occupancy -= 1
