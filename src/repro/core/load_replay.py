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

from ..memory.cache import CacheHierarchy
from ..memory.main_memory import MainMemory
from ..obs.metrics import declare_metric
from ..stats.counters import Counters
from .lsq import LoadStoreQueue, LSQConfig
from .subsystem import LSQSubsystem
from .violations import TRUE_DEP, Violation

# -- declared metrics (metadata only; see repro.obs.metrics) -----------------
declare_metric("retire_replay_violations", subsystem="load_replay",
               description="loads whose retirement re-execution disagreed "
                           "with the executed value")


class LoadReplaySubsystem(LSQSubsystem):
    """LSQ-style forwarding, disambiguation deferred to retirement.

    Everything but construction and load retirement is the LSQ's: with
    ``detect_at_execute=False`` an executing store searches no load
    queue and so never reports a violation.
    """

    name = "load_replay"

    def __init__(self, config: LSQConfig, memory: MainMemory,
                 hierarchy: CacheHierarchy, counters: Counters):
        self.config = config
        self.counters = counters
        self.hierarchy = hierarchy
        self.lsq = LoadStoreQueue(config, memory, counters,
                                  detect_at_execute=False)

    def retire_load(self, seq: int, addr: int, size: int
                    ) -> Tuple[Optional[int], List[Violation]]:
        """Re-execute the load and compare (the scheme's core step)."""
        original, current = self.lsq.reexecute_load(seq)
        # The second access really touches the data cache.
        self.hierarchy.data_latency(addr)
        self.lsq.retire_load(seq)
        if current == original:
            return None, []
        self.counters.incr("retire_replay_violations")
        return current, [Violation(TRUE_DEP, flush_after_seq=seq,
                                   producer_pc=None, consumer_pc=None)]
