"""Idealized load/store queue -- the paper's baseline (Section 3).

The comparison LSQ is deliberately generous: infinite ports, infinite
search bandwidth, single-cycle bypass, byte-accurate forwarding assembled
from any number of older in-flight stores, and value-based ordering
checks so that silent stores are never flagged as violations.  Dependence
violations recover aggressively by flushing from the *earliest conflicting
load* (Section 2.4's description of LSQ recovery).

Every load executing searches the store queue associatively
(age-prioritized, byte-granular) and every store executing searches the
load queue; the number of entries examined is tracked so the energy model
can charge CAM-search costs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..memory.cache import CacheHierarchy
from ..memory.main_memory import MainMemory
from ..obs.metrics import declare_metric
from ..stats.counters import Counters
from .subsystem import DONE, MemorySubsystem, MemOutcome
from .violations import TRUE_DEP, Violation

# -- declared metrics (metadata only; see repro.obs.metrics) -----------------
for _name, _unit, _desc in (
    ("lsq_load_searches", "accesses",
     "loads that CAM-searched the store queue"),
    ("lsq_store_searches", "accesses",
     "stores that CAM-searched the load queue"),
    ("lsq_sq_entries_searched", "entries",
     "store-queue entries examined by load searches"),
    ("lsq_lq_entries_searched", "entries",
     "load-queue entries examined by store searches"),
    ("lsq_full_forwards", "events",
     "loads fully forwarded from the store queue"),
    ("lsq_true_violations", "events",
     "premature loads caught by the store's load-queue search"),
    ("lsq_retire_replays", "events",
     "loads re-executed at retirement (value-based replay)"),
):
    declare_metric(_name, subsystem="lsq", description=_desc, unit=_unit)


class LSQConfig:
    """Load-queue and store-queue capacities (e.g. 48x32, 120x80)."""

    __slots__ = ("lq_size", "sq_size")

    def __init__(self, lq_size: int = 48, sq_size: int = 32):
        for field, value in (("lq_size", lq_size), ("sq_size", sq_size)):
            if not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"{field} must be a positive integer, got {value!r}")
        self.lq_size = lq_size
        self.sq_size = sq_size

    def to_dict(self) -> dict:
        """Canonical JSON-serializable view (experiment-cache keying)."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __repr__(self) -> str:
        return f"LSQConfig({self.lq_size}x{self.sq_size})"


class _LoadEntry:
    __slots__ = ("seq", "pc", "addr", "size", "value", "completed")

    def __init__(self, seq: int):
        self.seq = seq
        self.pc = 0
        self.addr = 0
        self.size = 0
        self.value = 0
        self.completed = False


class _StoreEntry:
    __slots__ = ("seq", "pc", "addr", "size", "data", "completed")

    def __init__(self, seq: int):
        self.seq = seq
        self.pc = 0
        self.addr = 0
        self.size = 0
        self.data = 0
        self.completed = False


class LSQSubsystem(MemorySubsystem):
    """The conventional (idealized) load/store queue, sized by
    ``config.lsq``."""

    name = "lsq"

    def __init__(self, config, memory: MainMemory,
                 hierarchy: CacheHierarchy, counters: Counters):
        super().__init__(config, memory, hierarchy, counters)
        self.lq_size = config.lsq.lq_size
        self.sq_size = config.lsq.sq_size
        self._loads: List[_LoadEntry] = []    # program (sequence) order
        self._stores: List[_StoreEntry] = []
        self._load_by_seq: Dict[int, _LoadEntry] = {}
        self._store_by_seq: Dict[int, _StoreEntry] = {}

    # -- dispatch -----------------------------------------------------------------

    def can_dispatch_load(self) -> bool:
        return len(self._loads) < self.lq_size

    def can_dispatch_store(self) -> bool:
        return len(self._stores) < self.sq_size

    def dispatch_load(self, seq: int, pc: int) -> None:
        entry = _LoadEntry(seq)
        entry.pc = pc
        self._loads.append(entry)
        self._load_by_seq[seq] = entry

    def dispatch_store(self, seq: int, pc: int) -> None:
        entry = _StoreEntry(seq)
        entry.pc = pc
        self._stores.append(entry)
        self._store_by_seq[seq] = entry

    # -- execution ------------------------------------------------------------------

    def _forwarded_value(self, seq: int, addr: int,
                         size: int) -> Tuple[int, bool]:
        """Assemble a load's bytes from older completed stores + memory.

        Byte-accurate, age-prioritized: for each byte the youngest older
        store wins; uncovered bytes come from architectural memory.  This
        is the idealized CAM search whose cost the SFC eliminates.
        Returns ``(value, fully_forwarded)``.
        """
        remaining = (1 << size) - 1          # bit per byte still needed
        collected = bytearray(self.memory.read_bytes(addr, size))
        searched = 0
        for store in reversed(self._stores):
            if not remaining:
                break
            if store.seq >= seq:
                continue
            searched += 1
            if not store.completed:
                continue
            overlap_lo = max(addr, store.addr)
            overlap_hi = min(addr + size, store.addr + store.size)
            if overlap_lo >= overlap_hi:
                continue
            data_bytes = store.data.to_bytes(store.size, "little")
            for byte_addr in range(overlap_lo, overlap_hi):
                bit = 1 << (byte_addr - addr)
                if remaining & bit:
                    collected[byte_addr - addr] = \
                        data_bytes[byte_addr - store.addr]
                    remaining &= ~bit
        self.counters.incr("lsq_sq_entries_searched", searched)
        return int.from_bytes(collected, "little"), remaining == 0

    def execute_load(self, seq: int, pc: int, addr: int, size: int,
                     watermark: int, at_rob_head: bool = False) -> MemOutcome:
        """A load executes: associative SQ search + memory fill."""
        self.counters.incr("lsq_load_searches")
        entry = self._load_by_seq[seq]
        entry.addr = addr
        entry.size = size
        entry.value, forwarded = self._forwarded_value(seq, addr, size)
        entry.completed = True
        if forwarded:
            self.counters.incr("lsq_full_forwards")
        cache_latency = self.hierarchy.data_latency(addr)
        # Idealized single-cycle bypass when the value came entirely from
        # in-flight stores; otherwise the cache access time governs.
        return MemOutcome(DONE, value=entry.value,
                          latency=1 if forwarded else cache_latency)

    def _record_store(self, seq: int, addr: int, size: int,
                      data: int) -> _StoreEntry:
        """Complete a store's entry, making it visible to forwarding."""
        entry = self._store_by_seq[seq]
        entry.addr = addr
        entry.size = size
        entry.data = data
        entry.completed = True
        return entry

    def execute_store(self, seq: int, pc: int, addr: int, size: int,
                      data: int, watermark: int,
                      at_rob_head: bool = False) -> MemOutcome:
        """A store executes: record it, then search the LQ for younger
        completed loads whose value the new store changes.

        The value re-check makes the detection silent-store-aware: if the
        younger load's bytes are unchanged by this store, no violation is
        flagged (Section 2.1 / Onder & Gupta's observation).
        Recovery flushes from the earliest conflicting load.
        """
        entry = self._record_store(seq, addr, size, data)
        self.counters.incr("lsq_store_searches")

        earliest: Optional[_LoadEntry] = None
        searched = 0
        for load in self._loads:
            if load.seq <= seq or not load.completed:
                continue
            searched += 1
            if load.addr + load.size <= addr or \
                    addr + size <= load.addr:
                continue
            correct, _ = self._forwarded_value(load.seq, load.addr,
                                               load.size)
            if correct != load.value:
                if earliest is None or load.seq < earliest.seq:
                    earliest = load
        self.counters.incr("lsq_lq_entries_searched", searched)
        if earliest is None:
            return MemOutcome(DONE, latency=1)
        self.counters.incr("lsq_true_violations")
        return MemOutcome(DONE, latency=1, violations=[Violation(
            TRUE_DEP, flush_after_seq=earliest.seq - 1,
            producer_pc=entry.pc, consumer_pc=earliest.pc)])

    # -- retirement -------------------------------------------------------------------

    def retire_load(self, seq: int, addr: int, size: int
                    ) -> Tuple[Optional[int], List[Violation]]:
        entry = self._load_by_seq.pop(seq, None)
        if entry is not None:
            self._loads.remove(entry)
        return None, []

    def retire_store(self, seq: int, addr: int, size: int,
                     bypassed: bool = False, pc: int = 0
                     ) -> Tuple[int, int, int, List[Violation]]:
        """Pop the retiring store and commit its entry."""
        entry = self._store_by_seq.pop(seq)
        self._stores.remove(entry)
        return entry.addr, entry.size, entry.data, []

    # -- flush ------------------------------------------------------------------------

    def on_partial_flush(self, flush_after_seq: int,
                         youngest_seq: int = -1) -> None:
        """Discard every entry younger than ``flush_after_seq``
        (tail-pointer reset)."""
        while self._loads and self._loads[-1].seq > flush_after_seq:
            dead = self._loads.pop()
            del self._load_by_seq[dead.seq]
        while self._stores and self._stores[-1].seq > flush_after_seq:
            dead = self._stores.pop()
            del self._store_by_seq[dead.seq]
