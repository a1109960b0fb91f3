"""The memory-subsystem interface and the paper's SFC/MDT design.

Every subsystem sits behind :class:`MemorySubsystem`, the interface the
pipeline's memory unit drives: the LSQ baseline
(:mod:`repro.core.lsq`), value-based retirement replay
(:mod:`repro.core.load_replay`) and :class:`SfcMdtSubsystem` here.
Loads and stores allocate at dispatch and call ``execute_*`` when they
issue (speculatively, out of order); the subsystem returns a
:class:`MemOutcome` saying whether the access completed (and with what
value/latency), must be *replayed* (structural conflict, SFC corruption or
partial match), or detected ordering violations that force a recovery
flush.  They retire in order, and a partial flush squashes the tail.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..memory.cache import CacheHierarchy
from ..memory.main_memory import MainMemory
from ..obs.metrics import declare_metric
from ..stats.counters import Counters
from .mdt import MDT_CONFLICT, MemoryDisambiguationTable
from .sfc import SFC_CORRUPT, SFC_HIT, SFC_PARTIAL, StoreForwardingCache
from .store_fifo import StoreFifo
from .violations import OUTPUT_DEP, Violation

DONE = "done"
REPLAY = "replay"

# -- declared metrics (metadata only; see repro.obs.metrics) -----------------
for _name, _desc in (
    ("rob_head_bypasses", "accesses that bypassed the MDT/SFC from the "
                          "ROB head (Section 2.2)"),
    ("load_replays_mdt_conflict", "load replays due to MDT set conflicts"),
    ("load_replays_sfc_corrupt", "load replays due to SFC corruption"),
    ("load_replays_sfc_partial", "load replays due to SFC partial "
                                 "matches"),
    ("store_replays_sfc_conflict", "store replays due to SFC set "
                                   "conflicts"),
    ("store_replays_mdt_conflict", "store replays due to MDT set "
                                   "conflicts"),
    ("output_violations_corrupt_marked",
     "output violations recovered by corrupt-marking (Section 2.4.2)"),
):
    declare_metric(_name, subsystem="sfc_mdt", description=_desc)

#: Section 2.4.2 output-violation recovery policies.
OUTPUT_RECOVERY_FLUSH = "flush"
OUTPUT_RECOVERY_CORRUPT = "corrupt"


class MemOutcome:
    """Result of issuing one load or store to the memory subsystem.

    ``status``: ``DONE`` (access completed; ``latency`` cycles until the
    value is available) or ``REPLAY`` (drop the instruction back onto the
    scheduler's ready list with its stall bit set).

    ``violations``: ordering violations that require a recovery flush.
    ``train_only``: violations handled without a flush (e.g. the
    corrupt-marking output recovery) that should still train the
    dependence predictor.

    Empty violation sequences default to a shared immutable tuple, so
    violation-free outcomes can themselves be shared (see the module's
    ``_REPLAY_*`` singletons); callers must not mutate them in place.
    """

    __slots__ = ("status", "value", "latency", "violations", "train_only",
                 "replay_reason")

    def __init__(self, status: str, value: Optional[int] = None,
                 latency: int = 1,
                 violations: Optional[Sequence[Violation]] = None,
                 train_only: Optional[Sequence[Violation]] = None,
                 replay_reason: str = ""):
        self.status = status
        self.value = value
        self.latency = latency
        self.violations = violations or ()
        self.train_only = train_only or ()
        self.replay_reason = replay_reason


#: Interned replay outcomes -- every field is identical per replay cause,
#: so the execute paths hand back a shared instance instead of allocating.
_REPLAY_MDT_CONFLICT = MemOutcome(REPLAY, replay_reason="mdt_conflict")
_REPLAY_SFC_CONFLICT = MemOutcome(REPLAY, replay_reason="sfc_conflict")
_REPLAY_SFC_CORRUPT = MemOutcome(REPLAY, replay_reason="sfc_corrupt")
_REPLAY_SFC_PARTIAL = MemOutcome(REPLAY, replay_reason="sfc_partial")


class MemorySubsystem:
    """Interface between the pipeline's memory unit and the structures
    under study: exactly the calls ``Core`` makes.  See
    :class:`~repro.core.lsq.LSQSubsystem` and :class:`SfcMdtSubsystem`."""

    name = "abstract"
    #: Extra pipeline-flush penalty in cycles charged on an ordering
    #: violation (the paper charges +1 for the MDT's tag check).
    violation_extra_penalty = 0

    def __init__(self, config, memory: MainMemory,
                 hierarchy: CacheHierarchy, counters: Counters):
        """Build from the core's ``CoreConfig``.

        ``Core`` builds ``SUBSYSTEMS[name](config, memory, hierarchy,
        counters)`` (:data:`repro.core.registry.SUBSYSTEMS`); subclasses
        pick their knobs out of ``config``.
        """
        self.memory = memory
        self.hierarchy = hierarchy
        self.counters = counters

    def can_dispatch_load(self) -> bool:
        raise NotImplementedError

    def can_dispatch_store(self) -> bool:
        raise NotImplementedError

    def dispatch_load(self, seq: int, pc: int) -> None:
        raise NotImplementedError

    def dispatch_store(self, seq: int, pc: int) -> None:
        raise NotImplementedError

    def execute_load(self, seq: int, pc: int, addr: int, size: int,
                     watermark: int, at_rob_head: bool = False) -> MemOutcome:
        raise NotImplementedError

    def execute_store(self, seq: int, pc: int, addr: int, size: int,
                      data: int, watermark: int,
                      at_rob_head: bool = False) -> MemOutcome:
        raise NotImplementedError

    def retire_load(self, seq: int, addr: int, size: int
                    ) -> Tuple[Optional[int], List[Violation]]:
        """Retire one load.

        Returns ``(corrected_value, violations)``: both empty for
        schemes that disambiguate at execution; the value-based
        retirement-replay scheme may return a corrected load value and a
        recovery flush.
        """
        raise NotImplementedError

    def retire_store(self, seq: int, addr: int, size: int,
                     bypassed: bool = False, pc: int = 0
                     ) -> Tuple[int, int, int, List[Violation]]:
        """Retire one store.

        Returns ``(addr, size, data, violations)``: the memory commit and
        any ordering violations detected at retirement (only possible for
        stores that executed through the ROB-head bypass and therefore
        skipped the MDT at execute).
        """
        raise NotImplementedError

    def on_partial_flush(self, flush_after_seq: int,
                         youngest_seq: int = -1) -> None:
        """A partial flush squashed sequence numbers in
        ``(flush_after_seq, youngest_seq]``."""
        raise NotImplementedError

    @property
    def eviction_events(self) -> int:
        """Monotone count of entry evictions (stall-bit heuristic)."""
        return 0


class SfcMdtSubsystem(MemorySubsystem):
    """The paper's design: SFC + MDT + store FIFO (Section 2)."""

    name = "sfc_mdt"
    # "To model the tag check in the MDT, we increase the penalty for
    # memory ordering violations by one cycle" (Section 3).
    violation_extra_penalty = 1
    # "To model the tag check in the SFC, we increase the latency of store
    # instructions by one cycle."
    store_tag_check_latency = 1

    def __init__(self, config, memory: MainMemory,
                 hierarchy: CacheHierarchy, counters: Counters):
        if config.output_recovery not in (OUTPUT_RECOVERY_FLUSH,
                                          OUTPUT_RECOVERY_CORRUPT):
            raise ValueError(
                f"unknown output recovery {config.output_recovery!r}")
        super().__init__(config, memory, hierarchy, counters)
        self.sfc = StoreForwardingCache(config.sfc, counters)
        self.mdt = MemoryDisambiguationTable(config.mdt, counters)
        self.store_fifo = StoreFifo(config.store_fifo_capacity)
        self.output_recovery = config.output_recovery

    # -- dispatch -------------------------------------------------------------

    def can_dispatch_load(self) -> bool:
        # The SFC/MDT design eliminates the load queue entirely; loads
        # never stall dispatch for memory-subsystem capacity.
        return True

    def can_dispatch_store(self) -> bool:
        return not self.store_fifo.full

    def dispatch_load(self, seq: int, pc: int) -> None:
        pass

    def dispatch_store(self, seq: int, pc: int) -> None:
        self.store_fifo.dispatch(seq)

    # -- execution --------------------------------------------------------------

    def execute_load(self, seq: int, pc: int, addr: int, size: int,
                     watermark: int, at_rob_head: bool = False) -> MemOutcome:
        # The cache is only touched by accesses that complete: a replayed
        # load must not warm the hierarchy, or the replay would act as a
        # free prefetch and turn the MDT/SFC conflict *penalty* into a
        # speedup relative to the never-replaying LSQ.
        if at_rob_head:
            # ROB-lockup avoidance (Section 2.2): the instruction at the
            # head of the ROB may bypass the MDT and SFC and read the
            # cache-memory hierarchy directly.
            self.counters.incr("rob_head_bypasses")
            value = self.memory.read_int(addr, size)
            return MemOutcome(DONE, value=value,
                              latency=self.hierarchy.data_latency(addr))

        result = self.mdt.access_load(addr, size, seq, pc, watermark)
        if result.status == MDT_CONFLICT:
            self.counters.incr("load_replays_mdt_conflict")
            return _REPLAY_MDT_CONFLICT
        if result.violations:
            # Anti violation: the load itself is squashed by the flush,
            # so no value is produced.
            return MemOutcome(DONE, violations=result.violations)

        status, value = self.sfc.load_read(addr, size, watermark)
        if status == SFC_HIT:
            # Accessed in parallel with the L1 (stats + fill), but the
            # forwarded value is available with single-cycle latency.
            self.hierarchy.data_latency(addr)
            return MemOutcome(DONE, value=value, latency=1)
        if status == SFC_CORRUPT:
            self.counters.incr("load_replays_sfc_corrupt")
            return _REPLAY_SFC_CORRUPT
        if status == SFC_PARTIAL:
            self.counters.incr("load_replays_sfc_partial")
            return _REPLAY_SFC_PARTIAL
        value = self.memory.read_int(addr, size)
        return MemOutcome(DONE, value=value,
                          latency=self.hierarchy.data_latency(addr))

    def execute_store(self, seq: int, pc: int, addr: int, size: int,
                      data: int, watermark: int,
                      at_rob_head: bool = False) -> MemOutcome:
        latency = 1 + self.store_tag_check_latency
        if at_rob_head:
            self.counters.incr("rob_head_bypasses")
            self.store_fifo.fill(seq, addr, size, data)
            return MemOutcome(DONE, latency=1)

        if not self.sfc.probe_store(addr, size, watermark):
            self.counters.incr("store_replays_sfc_conflict")
            return _REPLAY_SFC_CONFLICT

        result = self.mdt.access_store(addr, size, seq, pc, watermark)
        if result.status == MDT_CONFLICT:
            self.counters.incr("store_replays_mdt_conflict")
            return _REPLAY_MDT_CONFLICT

        flush_violations: List[Violation] = []
        train_only: List[Violation] = []
        for violation in result.violations:
            if violation.kind == OUTPUT_DEP and \
                    self.output_recovery == OUTPUT_RECOVERY_CORRUPT:
                # Section 2.4.2: rather than flushing, poison the SFC
                # range so any consumer load replays, and still train the
                # predictor on the store-store pair.
                self.counters.incr("output_violations_corrupt_marked")
                train_only.append(violation)
            else:
                flush_violations.append(violation)

        if train_only and not flush_violations:
            # Corrupt-marking recovery: the SFC word holds a *younger*
            # store's value which must not be overwritten out of order;
            # leave the data alone and poison the range instead.
            self.sfc.mark_corrupt(addr, size)
        else:
            # With flush recovery every younger instruction is squashed,
            # so this store's value is the latest architectural value for
            # its bytes and it writes the SFC normally.
            self.sfc.store_write(addr, size, data, seq, watermark)
        self.store_fifo.fill(seq, addr, size, data)
        return MemOutcome(DONE, latency=latency,
                          violations=flush_violations,
                          train_only=train_only)

    # -- retirement ----------------------------------------------------------------

    def retire_load(self, seq: int, addr: int, size: int
                    ) -> Tuple[Optional[int], List[Violation]]:
        self.mdt.on_load_retire(addr, size, seq)
        return None, []

    def retire_store(self, seq: int, addr: int, size: int,
                     bypassed: bool = False, pc: int = 0
                     ) -> Tuple[int, int, int, List[Violation]]:
        slot = self.store_fifo.retire(seq)
        violations: List[Violation] = []
        if bypassed:
            # The store skipped the MDT at execute (ROB-head bypass); any
            # younger load that completed with a stale value is recorded
            # in the MDT, so a check-only scan at retirement catches it.
            violations = self.mdt.check_store(slot.addr, slot.size, seq,
                                              pc=pc)
        self.sfc.on_store_retire(slot.addr, slot.size, seq)
        self.mdt.on_store_retire(slot.addr, slot.size, seq)
        return slot.addr, slot.size, slot.data, violations

    # -- flush handling ---------------------------------------------------------------

    def on_partial_flush(self, flush_after_seq: int,
                         youngest_seq: int = -1) -> None:
        self.store_fifo.flush_after(flush_after_seq)
        self.sfc.on_partial_flush(flush_after_seq + 1, youngest_seq)
        self.mdt.on_partial_flush(flush_after_seq)

    @property
    def eviction_events(self) -> int:
        return self.sfc.eviction_events + self.mdt.eviction_events
