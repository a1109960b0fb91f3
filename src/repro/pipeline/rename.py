"""Register renaming: RAT, physical register file and free list.

The paper's processors use Alpha-21264-style renaming with one checkpoint
per ROB entry (Figure 4 lists checkpoints == ROB size), enabling recovery
to an arbitrary instruction boundary.  The model recovers the same way
without copying the register alias table: each renamed instruction keeps
the mapping its destination displaced (``DynInst.old_rd_phys``), and a
flush walks the squashed instructions youngest-first, mapping each
destination back and releasing its physical register
(``Core._squash_after``).  The core's dispatch stage performs
:meth:`RenameTable.allocate` inline, reading which registers an
instruction reads and writes from per-opcode tables
(``instructions.READS_RS1``, ``READS_RS2`` and ``WRITES_RD``).

Physical register 0 is permanently mapped to architectural r0 (always
zero, always ready).
"""

from __future__ import annotations

from typing import List

from ..isa.instructions import NUM_REGS


class RenameError(Exception):
    """Out of physical registers (dispatch should have stalled)."""


class RenameTable:
    """RAT + physical register file + free list."""

    def __init__(self, num_phys: int):
        if num_phys < NUM_REGS + 1:
            raise ValueError("need at least one phys reg per arch reg")
        self.num_phys = num_phys
        # arch reg i initially maps to phys i; phys 0 is the r0 anchor.
        self.rat: List[int] = list(range(NUM_REGS))
        self.values: List[int] = [0] * num_phys
        self.ready: List[bool] = [True] * NUM_REGS + \
            [False] * (num_phys - NUM_REGS)
        self._free: List[int] = list(range(NUM_REGS, num_phys))

    # -- allocation ------------------------------------------------------------

    @property
    def free_count(self) -> int:
        return len(self._free)

    def lookup(self, arch: int) -> int:
        return self.rat[arch]

    def allocate(self, arch: int) -> int:
        """Map ``arch`` to a fresh physical register; returns its index."""
        if not self._free:
            raise RenameError("physical register file exhausted")
        phys = self._free.pop()
        self.ready[phys] = False
        self.rat[arch] = phys
        return phys

    def release(self, phys: int) -> None:
        """Return a physical register to the free list."""
        self.ready[phys] = False
        self._free.append(phys)

    # -- values ----------------------------------------------------------------

    def write(self, phys: int, value: int) -> None:
        self.values[phys] = value
        self.ready[phys] = True

    def read(self, phys: int) -> int:
        return self.values[phys]

    def is_ready(self, phys: int) -> bool:
        return self.ready[phys]
