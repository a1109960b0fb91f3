"""Memory Disambiguation Table (MDT) -- Section 2.2 of the paper.

The MDT replaces the load queue's associative search with an
address-indexed, cache-like table that applies basic timestamp ordering
(Bernstein & Goodman) to in-flight memory accesses.  Each entry tracks the
highest sequence numbers yet seen of the loads and stores to one *granule*
of memory (8 bytes by default), plus the PCs of those instructions so that
the dependence predictor can be trained on a violation.

Protocol (per granule touched by an access):

* **load issues**: if its sequence number is older than the entry's store
  sequence number, an *anti* dependence has been violated (a younger store
  already wrote the SFC word this load should have read first).  Otherwise
  the load records itself if it is the youngest load seen.
* **store issues**: a younger load already issued means a *true* dependence
  violation (the load read stale data); a younger store already issued
  means an *output* dependence violation (this store would overwrite the
  younger store's value in the SFC).  Otherwise the store records itself.
* **retire**: the retiring instruction invalidates its own sequence number
  if it is still the recorded one; an entry with neither number valid is
  freed.

Entries may be *tagged* (set-associative; a set conflict replays the
instruction) or *untagged* (all addresses mapping to a set share it, so
aliasing produces spurious violations -- the paper's cheaper variant).

A multi-granule access is *atomic*: every granule is probed for a set
conflict before any granule is updated, so a replayed (conflicting)
access leaves no side effects behind and re-applying it is idempotent.

Partial pipeline flushes leave the recorded sequence numbers untouched;
canceled numbers make the table conservative, and watermark scrubbing
reclaims entries whose numbers are all older than the oldest in-flight
instruction when an access finds its set full.  The one exception is
the Section 2.4.1 *counted-load* state: the per-granule set of
completed-but-not-retired load numbers drops canceled numbers on a
partial flush, because a canceled load never retires and a stale member
would otherwise disable counted-load recovery for that granule forever.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..obs.metrics import declare_metric
from ..stats.counters import Counters
from .setassoc import has_room
from .violations import ANTI_DEP, OUTPUT_DEP, TRUE_DEP, Violation

# -- declared metrics (metadata only; see repro.obs.metrics) -----------------
for _name, _unit, _desc in (
    ("mdt_load_accesses", "accesses", "loads that probed the MDT"),
    ("mdt_store_accesses", "accesses", "stores that probed the MDT"),
    ("mdt_set_conflicts", "events",
     "accesses that found no MDT way available"),
    ("mdt_anti_violations", "events",
     "anti (WAR) dependence violations the MDT detected"),
    ("mdt_true_violations", "events",
     "true (RAW) dependence violations the MDT detected"),
    ("mdt_output_violations", "events",
     "output (WAW) dependence violations the MDT detected"),
    ("mdt_true_violations_at_retire", "events",
     "true violations found by the retirement check-only scan"),
):
    declare_metric(_name, subsystem="mdt", description=_desc, unit=_unit)

MDT_OK = "ok"
MDT_CONFLICT = "conflict"


class MDTConfig:
    """Geometry and policy knobs of the memory disambiguation table."""

    __slots__ = ("num_sets", "assoc", "granularity", "tagged",
                 "counted_load_recovery")

    def __init__(self, num_sets: int = 4096, assoc: int = 2,
                 granularity: int = 8, tagged: bool = True,
                 counted_load_recovery: bool = False):
        for field, value in (("num_sets", num_sets), ("assoc", assoc),
                             ("granularity", granularity)):
            if not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"{field} must be a positive integer, got {value!r}")
        if num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a power of two")
        if granularity & (granularity - 1):
            raise ValueError("granularity must be a power of two")
        self.num_sets = num_sets
        self.assoc = assoc
        self.granularity = granularity
        self.tagged = tagged
        #: Section 2.4.1: when a true violation is detected and exactly one
        #: completed-not-retired load is tracked, flush from that load
        #: instead of from the completing store.
        self.counted_load_recovery = counted_load_recovery

    def to_dict(self) -> dict:
        """Canonical JSON-serializable view (experiment-cache keying)."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __repr__(self) -> str:
        return (f"MDTConfig(num_sets={self.num_sets}, assoc={self.assoc}, "
                f"granularity={self.granularity}, tagged={self.tagged})")


class _MDTEntry:
    __slots__ = ("tag", "load_seq", "store_seq", "load_pc", "store_pc",
                 "load_seqs")

    def __init__(self, tag: int, counted: bool):
        self.tag = tag
        self.load_seq = -1      # -1 encodes "invalid"
        self.store_seq = -1
        self.load_pc = 0
        self.store_pc = 0
        #: Completed-but-not-retired load sequence numbers (§2.4.1).
        #: Only maintained under counted-load recovery; a set (rather
        #: than a bare count) keeps replayed accesses idempotent and
        #: canceled loads removable.
        self.load_seqs: Optional[set] = set() if counted else None


class AccessResult:
    """Outcome of one MDT access.

    ``status`` is ``MDT_OK`` or ``MDT_CONFLICT`` (replay).  ``violations``
    is an immutable tuple of every dependence violation detected (empty
    when none) -- immutable because no-violation results are shared
    singletons.
    """

    __slots__ = ("status", "violations")

    def __init__(self, status: str, violations: Tuple[Violation, ...]):
        self.status = status
        self.violations = violations


_OK_NO_VIOLATION = AccessResult(MDT_OK, ())
_CONFLICT = AccessResult(MDT_CONFLICT, ())


class MemoryDisambiguationTable:
    """Address-indexed memory disambiguation via sequence numbers."""

    def __init__(self, config: MDTConfig, counters: Optional[Counters] = None):
        self.config = config
        self.counters = counters if counters is not None else Counters()
        self._set_mask = config.num_sets - 1
        self._granule_shift = config.granularity.bit_length() - 1
        self._tagged = config.tagged
        self._assoc = config.assoc
        self._counted = config.counted_load_recovery
        # A set's way list is created by its first fill; ``None`` is an
        # untouched set.  A run touches only the sets its accesses map
        # to, and building all of them for every Core dominated short
        # runs (see DESIGN.md, "Tables built on first touch").
        self._sets: List[Optional[List[_MDTEntry]]] = \
            [None] * config.num_sets
        self.eviction_events = 0
        # Interned handles for the unconditional per-access counters
        # (rare events -- conflicts, violations -- stay on incr()).
        self._c_load_accesses = self.counters.cell("mdt_load_accesses")
        self._c_store_accesses = self.counters.cell("mdt_store_accesses")

    # -- internals --------------------------------------------------------------

    def _granules(self, addr: int, size: int) -> range:
        first = addr >> self._granule_shift
        last = (addr + size - 1) >> self._granule_shift
        return range(first, last + 1)

    def _lookup(self, granule: int, watermark: int,
                allocate: bool) -> Tuple[Optional[_MDTEntry], bool]:
        """Find (or allocate) the entry for one granule.

        Returns ``(entry, conflicted)``.  ``entry`` is None either when the
        set conflicts (``conflicted`` True) or when nothing is allocated and
        ``allocate`` is False.
        """
        index = granule & self._set_mask
        ways = self._sets[index]
        if ways is None:
            if not allocate:
                return None, False
            ways = self._sets[index] = []
        if not self._tagged:
            # Untagged MDT: one shared entry per set; aliasing is accepted.
            if ways:
                return ways[0], False
            if not allocate:
                return None, False
            entry = _MDTEntry(granule, self._counted)
            ways.append(entry)
            return entry, False
        for entry in ways:
            if entry.tag == granule:
                return entry, False
        if not allocate:
            return None, False
        if len(ways) >= self._assoc:
            self._scrub_set(ways, watermark)
        if len(ways) >= self._assoc:
            return None, True
        entry = _MDTEntry(granule, self._counted)
        ways.append(entry)
        return entry, False

    def _resolve_atomic(self, first: int, last: int, watermark: int
                        ) -> Optional[List[_MDTEntry]]:
        """Find-or-allocate the entries of a multi-granule access.

        Probes *every* granule for set conflicts before allocating
        anything, so a conflicting access (which the memory unit will
        replay) leaves the table untouched.  Returns None on conflict.
        """
        if self._tagged and not has_room(
                self._sets, self._set_mask, self._assoc, first, last,
                self._scrub_set, watermark):
            return None
        # Every allocation now fits, so no lookup scrubs or conflicts.
        lookup = self._lookup
        return [lookup(granule, watermark, True)[0]
                for granule in range(first, last + 1)]

    def _scrub_set(self, ways: List[_MDTEntry], watermark: int) -> None:
        alive = [e for e in ways
                 if e.load_seq >= watermark or e.store_seq >= watermark]
        if len(alive) != len(ways):
            self.eviction_events += len(ways) - len(alive)
            ways[:] = alive

    # -- issue-time accesses -------------------------------------------------------

    def access_load(self, addr: int, size: int, seq: int, pc: int,
                    watermark: int) -> AccessResult:
        """A load has computed its address and consults the MDT."""
        self._c_load_accesses.value += 1
        shift = self._granule_shift
        first = addr >> shift
        last = (addr + size - 1) >> shift
        if first == last:
            # Fast path: the access sits in one granule (the common case),
            # so one lookup commits directly -- trivially atomic.
            entry, conflicted = self._lookup(first, watermark,
                                             allocate=True)
            if conflicted:
                self.counters.incr("mdt_set_conflicts")
                return _CONFLICT
            entries = (entry,)
        else:
            resolved = self._resolve_atomic(first, last, watermark)
            if resolved is None:
                self.counters.incr("mdt_set_conflicts")
                return _CONFLICT
            entries = resolved
        counted = self._counted
        violations: List[Violation] = []
        for entry in entries:
            store_seq = entry.store_seq
            if store_seq >= 0 and seq < store_seq:
                # A younger store already completed: anti violation.  Flush
                # the load and everything after it (Section 2.2).
                self.counters.incr("mdt_anti_violations")
                violations.append(Violation(
                    ANTI_DEP, flush_after_seq=seq - 1,
                    producer_pc=pc, consumer_pc=entry.store_pc))
                continue
            if seq >= entry.load_seq:
                entry.load_seq = seq
                entry.load_pc = pc
            if counted:
                entry.load_seqs.add(seq)
        if violations:
            return AccessResult(MDT_OK, tuple(violations))
        return _OK_NO_VIOLATION

    def access_store(self, addr: int, size: int, seq: int, pc: int,
                     watermark: int) -> AccessResult:
        """A store has computed its address/data and consults the MDT."""
        self._c_store_accesses.value += 1
        shift = self._granule_shift
        first = addr >> shift
        last = (addr + size - 1) >> shift
        if first == last:
            entry, conflicted = self._lookup(first, watermark,
                                             allocate=True)
            if conflicted:
                self.counters.incr("mdt_set_conflicts")
                return _CONFLICT
            entries = (entry,)
        else:
            resolved = self._resolve_atomic(first, last, watermark)
            if resolved is None:
                self.counters.incr("mdt_set_conflicts")
                return _CONFLICT
            entries = resolved
        counted = self._counted
        violations: List[Violation] = []
        for entry in entries:
            load_seq = entry.load_seq
            if load_seq >= 0 and seq < load_seq:
                # A younger load already read stale data: true violation.
                self.counters.incr("mdt_true_violations")
                flush_after = seq
                if counted:
                    load_seqs = entry.load_seqs
                    if len(load_seqs) == 1:
                        # §2.4.1: the tracked load is the only completed
                        # conflicting one; flush from *that load's*
                        # number (the recorded load_seq may belong to a
                        # younger, canceled load) instead of from this
                        # store.
                        for only in load_seqs:
                            flush_after = only - 1
                violations.append(Violation(
                    TRUE_DEP, flush_after_seq=flush_after,
                    producer_pc=pc, consumer_pc=entry.load_pc))
            store_seq = entry.store_seq
            if store_seq >= 0 and seq < store_seq:
                # A younger store already completed: output violation.
                self.counters.incr("mdt_output_violations")
                violations.append(Violation(
                    OUTPUT_DEP, flush_after_seq=seq,
                    producer_pc=pc, consumer_pc=entry.store_pc))
            if seq >= entry.store_seq:
                entry.store_seq = seq
                entry.store_pc = pc
        if violations:
            return AccessResult(MDT_OK, tuple(violations))
        return _OK_NO_VIOLATION

    def check_store(self, addr: int, size: int, seq: int,
                    pc: int) -> List[Violation]:
        """Check-only store access: detect violations without allocating
        or updating.

        Used when a store executed through the ROB-head bypass retires:
        it never consulted the MDT at execute, but any younger load that
        completed meanwhile (possibly with a stale value) *did* record
        itself, so a scan of the matching entries at retirement finds
        every load the bypassed store could have fed.
        """
        violations: List[Violation] = []
        for granule in self._granules(addr, size):
            entry, _ = self._lookup(granule, watermark=0, allocate=False)
            if entry is None:
                continue
            if entry.load_seq >= 0 and seq < entry.load_seq:
                self.counters.incr("mdt_true_violations_at_retire")
                violations.append(Violation(
                    TRUE_DEP, flush_after_seq=seq,
                    producer_pc=pc, consumer_pc=entry.load_pc))
        return violations

    # -- retirement ---------------------------------------------------------------

    def on_load_retire(self, addr: int, size: int, seq: int) -> None:
        """A load retires: invalidate its number if still recorded."""
        shift = self._granule_shift
        set_mask = self._set_mask
        sets = self._sets
        tagged = self._tagged
        counted = self._counted
        first = addr >> shift
        last = (addr + size - 1) >> shift
        for granule in range(first, last + 1):
            ways = sets[granule & set_mask]
            if ways is None:
                continue
            for i, entry in enumerate(ways):
                if tagged and entry.tag != granule:
                    continue
                if counted:
                    # discard, not remove: a ROB-head-bypassed load never
                    # recorded itself, so its number may be absent.
                    entry.load_seqs.discard(seq)
                if entry.load_seq == seq:
                    entry.load_seq = -1
                if entry.load_seq < 0 and entry.store_seq < 0:
                    del ways[i]
                    self.eviction_events += 1
                break

    def on_store_retire(self, addr: int, size: int, seq: int) -> None:
        """A store retires: invalidate its number if still recorded."""
        shift = self._granule_shift
        set_mask = self._set_mask
        sets = self._sets
        tagged = self._tagged
        first = addr >> shift
        last = (addr + size - 1) >> shift
        for granule in range(first, last + 1):
            ways = sets[granule & set_mask]
            if ways is None:
                continue
            for i, entry in enumerate(ways):
                if tagged and entry.tag != granule:
                    continue
                if entry.store_seq == seq:
                    entry.store_seq = -1
                if entry.load_seq < 0 and entry.store_seq < 0:
                    del ways[i]
                    self.eviction_events += 1
                break

    # -- flush handling --------------------------------------------------------------

    def on_partial_flush(self, flush_after_seq: Optional[int] = None) -> None:
        """Handle a partial pipeline flush.

        Recorded sequence numbers are left untouched (Section 2.2) --
        canceled numbers merely make the table conservative.  The
        §2.4.1 completed-load sets, however, must drop every canceled
        number (``seq > flush_after_seq``): a canceled load never
        retires, and a leaked member would inflate the count and silently
        degrade counted-load recovery to store-flush recovery forever.

        ``flush_after_seq=None`` (unknown flush point) keeps the sets
        intact, which over-counts and therefore stays conservative.
        """
        if not self._counted or flush_after_seq is None:
            return
        for ways in self._sets:
            if ways:
                for entry in ways:
                    load_seqs = entry.load_seqs
                    if load_seqs:
                        entry.load_seqs = {
                            s for s in load_seqs if s <= flush_after_seq}

    # -- introspection -----------------------------------------------------------------

    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._sets if ways)
