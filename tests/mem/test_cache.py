"""Unit tests for the set-associative cache array (repro.mem.cache)."""

import pytest

from repro.mem.block import BlockData, CacheBlock, E, M, S
from repro.mem.cache import CacheArray
from repro.sim.config import CacheConfig


def make_cache(size=1024, assoc=2, block=64):
    return CacheArray(CacheConfig(size, assoc, block), name="test")


def blk(addr, state=E, dirty=False):
    return CacheBlock(addr, state=state, dirty=dirty)


class TestGeometry:
    def test_num_sets(self):
        cache = make_cache(1024, 2, 64)
        assert cache.config.num_sets == 8

    def test_set_index_wraps(self):
        cache = make_cache(1024, 2, 64)
        assert cache.set_index(0) == cache.set_index(8 * 64)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 3, 64)

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(1024, 2, 48)


class TestLookupInsert:
    def test_miss_returns_none(self):
        assert make_cache().lookup(0x40) is None

    def test_insert_then_hit(self):
        cache = make_cache()
        cache.insert(blk(0x40))
        hit = cache.lookup(0x40)
        assert hit is not None and hit.addr == 0x40

    def test_duplicate_insert_rejected(self):
        cache = make_cache()
        cache.insert(blk(0x40))
        with pytest.raises(ValueError):
            cache.insert(blk(0x40))

    def test_insert_invalid_block_rejected(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.insert(CacheBlock(0x40))  # state I

    def test_no_eviction_until_set_full(self):
        cache = make_cache(1024, 2, 64)  # 8 sets x 2 ways
        a, b = 0x000, 0x200  # same set (8 sets * 64 = 0x200 stride)
        assert cache.insert(blk(a)) is None
        assert cache.insert(blk(b)) is None

    def test_lru_eviction_picks_least_recent(self):
        cache = make_cache(1024, 2, 64)
        a, b, c = 0x000, 0x200, 0x400  # all same set
        cache.insert(blk(a))
        cache.insert(blk(b))
        cache.lookup(a)  # touch a, making b LRU
        victim = cache.insert(blk(c))
        assert victim is not None and victim.addr == b

    def test_different_sets_do_not_conflict(self):
        cache = make_cache(1024, 2, 64)
        for i in range(8):
            assert cache.insert(blk(i * 64)) is None

    def test_insert_reuses_invalidated_frame(self):
        cache = make_cache(1024, 2, 64)
        cache.insert(blk(0x000))
        cache.insert(blk(0x200))
        cache.remove(0x000)
        assert cache.insert(blk(0x400)) is None  # no eviction needed


class TestRemove:
    def test_remove_returns_block(self):
        cache = make_cache()
        cache.insert(blk(0x40, state=M, dirty=True))
        removed = cache.remove(0x40)
        assert removed.dirty
        assert cache.lookup(0x40) is None

    def test_remove_absent_returns_none(self):
        assert make_cache().remove(0x40) is None


class TestIntrospection:
    def test_occupancy_counts_valid_blocks(self):
        cache = make_cache()
        cache.insert(blk(0x00))
        cache.insert(blk(0x40))
        assert cache.occupancy() == 2

    def test_dirty_blocks_filter(self):
        cache = make_cache()
        cache.insert(blk(0x00, dirty=True))
        cache.insert(blk(0x40, dirty=False))
        assert [b.addr for b in cache.dirty_blocks()] == [0x00]

    def test_clear_drops_everything(self):
        cache = make_cache()
        cache.insert(blk(0x00))
        cache.clear()
        assert cache.occupancy() == 0

    def test_contains(self):
        cache = make_cache()
        cache.insert(blk(0x40))
        assert cache.contains(0x40)
        assert not cache.contains(0x80)

    def test_lookup_without_touch_preserves_lru(self):
        cache = make_cache(1024, 2, 64)
        a, b, c = 0x000, 0x200, 0x400
        cache.insert(blk(a))
        cache.insert(blk(b))
        cache.lookup(a, touch=False)  # must NOT refresh a
        victim = cache.insert(blk(c))
        assert victim.addr == a
