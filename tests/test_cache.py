"""Unit tests for the timing caches."""

import pytest

from repro.memory import Cache, CacheConfig, paper_hierarchy
from tests.conftest import tracked_objects_added


def small_cache(assoc=2, sets=4, line=16):
    return Cache(CacheConfig("t", size_bytes=sets * assoc * line,
                             assoc=assoc, line_bytes=line, hit_latency=1,
                             miss_penalty=10))


class TestCacheConfig:
    def test_num_sets(self):
        config = CacheConfig("x", 8192, 4, 64, 1, 10)
        assert config.num_sets == 32

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig("x", 1000, 3, 64, 1, 10)

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            Cache(CacheConfig("x", 96 * 2, 2, 96, 1, 10))


class TestCacheBehaviour:
    def test_first_access_misses_then_hits(self):
        cache = small_cache()
        assert not cache.lookup(0x100)
        assert cache.lookup(0x100)
        assert cache.misses == 1 and cache.hits == 1

    def test_same_line_different_bytes_hit(self):
        cache = small_cache(line=16)
        cache.lookup(0x100)
        assert cache.lookup(0x10F)

    def test_lru_evicts_oldest(self):
        cache = small_cache(assoc=2, sets=1, line=16)
        cache.lookup(0x000)
        cache.lookup(0x010)
        cache.lookup(0x020)        # evicts 0x000
        assert not cache.lookup(0x000)

    def test_lru_promotion_on_hit(self):
        cache = small_cache(assoc=2, sets=1, line=16)
        cache.lookup(0x000)
        cache.lookup(0x010)
        cache.lookup(0x000)        # promote
        cache.lookup(0x020)        # evicts 0x010
        assert cache.lookup(0x000)
        assert not cache.lookup(0x010)

    def test_sets_isolate(self):
        cache = small_cache(assoc=1, sets=4, line=16)
        cache.lookup(0x00)
        cache.lookup(0x10)         # different set
        assert cache.lookup(0x00)

    def test_miss_rate(self):
        cache = small_cache()
        assert cache.miss_rate == 0.0
        cache.lookup(0x100)
        cache.lookup(0x100)
        assert cache.miss_rate == 0.5


class TestFirstTouch:
    def test_construction_builds_no_sets(self):
        config = CacheConfig("t", size_bytes=8192 * 2 * 64, assoc=2,
                             line_bytes=64, hit_latency=1, miss_penalty=10)
        assert config.num_sets == 8192
        assert tracked_objects_added(lambda: Cache(config)) < 8

    def test_export_keeps_one_list_per_set(self):
        """Warm capsules stay byte-identical: an untouched set exports
        as an empty list."""
        h = paper_hierarchy()
        state = h.export_state()
        assert {level: len(sets) for level, sets in state.items()} == \
            {"l1i": 32, "l1d": 32, "l2": 512}
        assert all(ways == [] for sets in state.values() for ways in sets)
        h.data_latency(0x100)
        l1d = h.export_state()["l1d"]
        assert sum(map(len, l1d)) == 1 and len(l1d) == 32


class TestHierarchy:
    def test_l1_hit_is_single_cycle(self):
        h = paper_hierarchy()
        h.data_latency(0x100)
        assert h.data_latency(0x100) == 1

    def test_l1_miss_l2_hit(self):
        h = paper_hierarchy()
        h.data_latency(0x100)           # fill both levels
        # Four more lines in 0x100's L1D set evict it; they land in
        # other L2 sets, so 0x100 stays in the L2.
        for k in range(1, 5):
            h.data_latency(0x100 + k * 2048)
        assert h.data_latency(0x100) == 1 + 10

    def test_cold_miss_goes_to_memory(self):
        h = paper_hierarchy()
        assert h.data_latency(0x100) == 1 + 10 + 100

    def test_inst_path_uses_l1i(self):
        h = paper_hierarchy()
        h.inst_latency(0x0)
        assert h.inst_latency(0x0) == 1
        assert h.l1i.accesses == 2
        assert h.l1d.accesses == 0

    def test_stats_keys(self):
        h = paper_hierarchy()
        h.data_latency(0x0)
        stats = h.stats()
        for key in ("l1i_misses", "l1d_misses", "l2_misses",
                    "l1d_miss_rate"):
            assert key in stats


class TestPaperGeometry:
    def test_figure4_parameters(self):
        h = paper_hierarchy()
        assert h.l1i.config.size_bytes == 8 * 1024
        assert h.l1i.config.assoc == 2
        assert h.l1i.config.line_bytes == 128
        assert h.l1d.config.size_bytes == 8 * 1024
        assert h.l1d.config.assoc == 4
        assert h.l1d.config.line_bytes == 64
        assert h.l1d.config.miss_penalty == 10
        assert h.l2.config.size_bytes == 512 * 1024
        assert h.l2.config.assoc == 8
        assert h.l2.config.line_bytes == 128
        assert h.l2.config.miss_penalty == 100
