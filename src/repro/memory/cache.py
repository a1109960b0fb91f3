"""Set-associative timing caches.

These caches model *latency only*; architectural data lives in
:class:`~repro.memory.main_memory.MainMemory`.  Keeping function and timing
separate makes every memory-subsystem configuration read identical data and
confines all value divergence to the structures under study (LSQ vs
SFC/MDT), as the paper's methodology requires.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..obs.metrics import GAUGE, RATE, declare_metric

# -- declared metrics (metadata only; see repro.obs.metrics) -----------------
for _level in ("l1i", "l1d", "l2"):
    declare_metric(f"{_level}_accesses", kind=GAUGE, subsystem="cache",
                   description=f"{_level} cache accesses",
                   unit="accesses")
    declare_metric(f"{_level}_misses", kind=GAUGE, subsystem="cache",
                   description=f"{_level} cache misses", unit="accesses")
    declare_metric(f"{_level}_miss_rate", kind=RATE, subsystem="cache",
                   description=f"{_level} miss rate (misses/accesses)",
                   unit="ratio")


class CacheConfig:
    """Geometry and latencies of one cache level."""

    __slots__ = ("name", "size_bytes", "assoc", "line_bytes", "hit_latency",
                 "miss_penalty")

    def __init__(self, name: str, size_bytes: int, assoc: int,
                 line_bytes: int, hit_latency: int, miss_penalty: int):
        if not isinstance(assoc, int) or assoc < 1:
            raise ValueError(
                f"{name}: assoc must be a positive integer, "
                f"got {assoc!r}")
        if not isinstance(line_bytes, int) or line_bytes < 1 or \
                line_bytes & (line_bytes - 1):
            raise ValueError(
                f"{name}: line_bytes must be a power of two, "
                f"got {line_bytes!r}")
        if size_bytes % (assoc * line_bytes):
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by "
                f"assoc*line ({assoc}*{line_bytes})")
        sets = size_bytes // (assoc * line_bytes)
        if sets < 1 or sets & (sets - 1):
            raise ValueError(
                f"{name}: number of sets must be a positive power of "
                f"two, computed {sets} sets from size {size_bytes} / "
                f"(assoc {assoc} * line {line_bytes})")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.hit_latency = hit_latency
        self.miss_penalty = miss_penalty

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


class Cache:
    """One level of set-associative cache with LRU replacement.

    ``lookup`` probes and fills on miss, returning whether the access hit.
    Accesses and hit/miss counts are tracked for the statistics report.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._line_shift = config.line_bytes.bit_length() - 1
        if (1 << self._line_shift) != config.line_bytes:
            raise ValueError("line size must be a power of two")
        self._set_mask = config.num_sets - 1
        if config.num_sets & self._set_mask:
            raise ValueError("number of sets must be a power of two")
        # Each set is an LRU-ordered list of line tags (MRU last), created
        # by the set's first fill; ``None`` is an untouched set.
        self._sets: List[Optional[List[int]]] = [None] * config.num_sets
        self.accesses = 0
        self.misses = 0

    def lookup(self, addr: int) -> bool:
        """Probe the cache for ``addr``; fill on miss.  Returns hit?"""
        self.accesses += 1
        line = addr >> self._line_shift
        index = line & self._set_mask
        ways = self._sets[index]
        if ways and ways[-1] == line:
            # Already MRU (sequential fetch / repeated access): the LRU
            # reorder would be a no-op, skip the remove/append churn.
            return True
        if ways is None:
            ways = self._sets[index] = []
        if line in ways:
            ways.remove(line)
            ways.append(line)
            return True
        self.misses += 1
        if len(ways) >= self.config.assoc:
            ways.pop(0)
        ways.append(line)
        return False

    # -- warm-state capsules -------------------------------------------------

    def export_lines(self) -> List[List[int]]:
        """Snapshot the tag arrays (per-set LRU-ordered line lists) for a
        checkpoint warm capsule.  Access statistics are excluded: a
        restored cache starts counting from zero so a sampled interval's
        miss rates cover only the interval itself."""
        return [list(ways or ()) for ways in self._sets]

    def import_lines(self, sets: List[List[int]]) -> None:
        """Restore tag arrays from :meth:`export_lines` output."""
        if len(sets) != len(self._sets):
            raise ValueError(
                f"warm capsule has {len(sets)} sets; this cache has "
                f"{len(self._sets)} (geometry mismatch)")
        assoc = self.config.assoc
        for index, ways in enumerate(sets):
            self._sets[index] = list(ways)[-assoc:] or None

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class CacheHierarchy:
    """Two-level hierarchy matching the paper's Figure 4 parameters.

    ``data_latency``/``inst_latency`` return the total access latency in
    cycles, filling lines along the way: an L1 hit costs ``hit_latency``,
    an L1 miss that hits in L2 adds the L1 miss penalty, and an L2 miss
    adds the L2 miss penalty on top.

    ``l2`` may be an already-constructed :class:`Cache` instead of a
    :class:`CacheConfig`: a :class:`~repro.memory.system.MemorySystem`
    hands every core's hierarchy the *same* L2 instance, so cross-core
    L2 sharing (capacity contention, constructive prefetching) is
    modeled while each core keeps private L1s.
    """

    def __init__(self, l1i: CacheConfig, l1d: CacheConfig,
                 l2: "CacheConfig | Cache"):
        self.l1i = Cache(l1i)
        self.l1d = Cache(l1d)
        self.l2 = l2 if isinstance(l2, Cache) else Cache(l2)
        # Latency constants folded once; the per-access paths below are on
        # the simulator's critical path (every fetch and every data access).
        self._l1i_hit = l1i.hit_latency
        self._l1i_miss = l1i.hit_latency + l1i.miss_penalty
        self._l1d_hit = l1d.hit_latency
        self._l1d_miss = l1d.hit_latency + l1d.miss_penalty
        self._l2_penalty = self.l2.config.miss_penalty

    def data_latency(self, addr: int) -> int:
        """Latency of a data access (load or store commit) to ``addr``."""
        if self.l1d.lookup(addr):
            return self._l1d_hit
        latency = self._l1d_miss
        if not self.l2.lookup(addr):
            latency += self._l2_penalty
        return latency

    def inst_latency(self, addr: int) -> int:
        """Latency of an instruction fetch from ``addr``."""
        l1i = self.l1i
        line = addr >> l1i._line_shift
        ways = l1i._sets[line & l1i._set_mask]
        if ways and ways[-1] == line:
            # Sequential-fetch fast path: line is already MRU.
            l1i.accesses += 1
            return self._l1i_hit
        if l1i.lookup(addr):
            return self._l1i_hit
        latency = self._l1i_miss
        if not self.l2.lookup(addr):
            latency += self._l2_penalty
        return latency

    def export_state(self) -> Dict[str, List[List[int]]]:
        """Warm capsule of every level's tag arrays (no statistics)."""
        return {"l1i": self.l1i.export_lines(),
                "l1d": self.l1d.export_lines(),
                "l2": self.l2.export_lines()}

    def import_state(self, state: Dict[str, List[List[int]]]) -> None:
        """Restore every level's tag arrays from :meth:`export_state`."""
        self.l1i.import_lines(state["l1i"])
        self.l1d.import_lines(state["l1d"])
        self.l2.import_lines(state["l2"])

    def stats(self) -> Dict[str, float]:
        """Hit/miss counts for every level, keyed for the report."""
        out: Dict[str, float] = {}
        for cache in (self.l1i, self.l1d, self.l2):
            name = cache.config.name
            out[f"{name}_accesses"] = cache.accesses
            out[f"{name}_misses"] = cache.misses
            out[f"{name}_miss_rate"] = cache.miss_rate
        return out


def paper_l1i_config() -> CacheConfig:
    """The paper's Figure 4 L1 instruction cache geometry."""
    return CacheConfig("l1i", size_bytes=8 * 1024, assoc=2, line_bytes=128,
                       hit_latency=1, miss_penalty=10)


def paper_l1d_config() -> CacheConfig:
    """The paper's Figure 4 L1 data cache geometry."""
    return CacheConfig("l1d", size_bytes=8 * 1024, assoc=4, line_bytes=64,
                       hit_latency=1, miss_penalty=10)


def paper_l2_config() -> CacheConfig:
    """The paper's Figure 4 unified L2 geometry."""
    return CacheConfig("l2", size_bytes=512 * 1024, assoc=8, line_bytes=128,
                       hit_latency=1, miss_penalty=100)


def paper_hierarchy() -> CacheHierarchy:
    """The exact cache geometry of the paper's Figure 4."""
    return CacheHierarchy(l1i=paper_l1i_config(), l1d=paper_l1d_config(),
                          l2=paper_l2_config())
