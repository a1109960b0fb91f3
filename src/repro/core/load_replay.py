"""Value-based retirement replay (Cain & Lipasti) -- paper Section 4.

The related-work comparator the paper argues against: eliminate the load
queue's associative search by *re-executing every load at retirement* and
comparing the value obtained then (architecturally correct, since every
older store has committed) against the value obtained at execution.  A
mismatch means the load consumed stale or misordered data; recovery
flushes everything younger and retires the load with the corrected value.

The store queue and its forwarding CAM remain (forwarding still happens
at execution); only disambiguation moves to retirement.  The scheme's
costs, which the paper's Section 4 highlights for checkpointed
large-window processors, fall out of the model:

* every load pays a second data-cache access at retirement
  (``lsq_retire_replays`` / extra cache traffic);
* an ordering violation is discovered hundreds of instructions late, so
  the recovery flush empties the whole window instead of its tail.

Roth's store vulnerability window and similar filters reduce the
re-execution count; we model the unfiltered scheme the paper's argument
addresses and count every re-execution so the filtering headroom is
visible.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..obs.metrics import declare_metric
from .lsq import LSQSubsystem
from .subsystem import DONE, MemOutcome
from .violations import TRUE_DEP, Violation

# -- declared metrics (metadata only; see repro.obs.metrics) -----------------
declare_metric("retire_replay_violations", subsystem="load_replay",
               description="loads whose retirement re-execution disagreed "
                           "with the executed value")


class LoadReplaySubsystem(LSQSubsystem):
    """LSQ-style forwarding, disambiguation deferred to retirement.

    Everything but store execution and load retirement is the LSQ's: an
    executing store searches no load queue, and a retiring load is
    re-executed and compared.
    """

    name = "load_replay"

    def execute_store(self, seq: int, pc: int, addr: int, size: int,
                      data: int, watermark: int,
                      at_rob_head: bool = False) -> MemOutcome:
        """Record the store for forwarding; report no violation."""
        self._record_store(seq, addr, size, data)
        return MemOutcome(DONE, latency=1)

    def retire_load(self, seq: int, addr: int, size: int
                    ) -> Tuple[Optional[int], List[Violation]]:
        """Re-execute the load and compare (the scheme's core step).

        At retirement every older store has committed, so the recomputed
        value is architecturally correct; a mismatch means the original
        execution consumed stale or misordered data.
        """
        self.counters.incr("lsq_retire_replays")
        entry = self._load_by_seq[seq]
        current, _ = self._forwarded_value(seq, entry.addr, entry.size)
        # The second access really touches the data cache.
        self.hierarchy.data_latency(addr)
        super().retire_load(seq, addr, size)
        if current == entry.value:
            return None, []
        self.counters.incr("retire_replay_violations")
        return current, [Violation(TRUE_DEP, flush_after_seq=seq,
                                   producer_pc=None, consumer_pc=None)]
