"""Equivalence of the dict-indexed CacheArray with the linear-scan model.

The cache array originally kept each set as a list of frames and scanned it
linearly on every access; it now keeps a tag-indexed dict per set.  These
properties drive both a faithful reference reimplementation of the
linear-scan semantics and the real :class:`repro.mem.cache.CacheArray`
through identical randomized op sequences and require every observable
outcome to match: hit/miss per lookup, the victim chosen on insert,
removals, occupancy, and the full resident state (address, MESI state,
dirtiness, LRU stamp).  Every frame is resident: blocks leave a set only
by removal or eviction, never by an in-place invalidation.
"""

from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.block import CacheBlock, E, I, M, S
from repro.mem.cache import CacheArray
from repro.sim.config import CacheConfig

#: Power-of-two sets (shift/mask indexing) and non-power-of-two sets
#: (modulo indexing): 8 sets x 2 ways and 6 sets x 2 ways.
CONFIGS = (
    CacheConfig(size_bytes=1024, assoc=2, block_size=64),
    CacheConfig(size_bytes=768, assoc=2, block_size=64),
)


class LinearScanCacheArray:
    """Reference model: each set is a list of frames, every operation is a
    linear scan.  Mirrors the original CacheArray semantics exactly,
    including the LRU stamping discipline (stamp on touching lookup and on
    insert, nothing else)."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets = {}
        self._use = 0

    def set_index(self, block_addr: int) -> int:
        return (block_addr // self.config.block_size) % self.config.num_sets

    def _set_for(self, block_addr: int) -> List[CacheBlock]:
        return self._sets.setdefault(self.set_index(block_addr), [])

    def lookup(self, block_addr: int, touch: bool = True) -> Optional[CacheBlock]:
        for blk in self._set_for(block_addr):
            if blk.addr == block_addr:
                if touch:
                    self._use += 1
                    blk.last_use = self._use
                return blk
        return None

    def insert(self, block: CacheBlock) -> Optional[CacheBlock]:
        if block.state is I:
            raise ValueError("cannot insert an invalid block")
        frames = self._set_for(block.addr)
        for blk in frames:
            if blk.addr == block.addr:
                raise ValueError("already resident")
        self._use += 1
        block.last_use = self._use
        if len(frames) < self.config.assoc:
            frames.append(block)
            return None
        victim = min(frames, key=lambda b: b.last_use)
        frames[frames.index(victim)] = block
        return victim

    def remove(self, block_addr: int) -> Optional[CacheBlock]:
        blk = self.lookup(block_addr, touch=False)
        if blk is not None:
            self._set_for(block_addr).remove(blk)
        return blk

    def blocks(self):
        for frames in self._sets.values():
            yield from frames


block_addrs = st.integers(min_value=0, max_value=63).map(lambda i: i * 64)
ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "lookup", "peek", "remove"]),
        block_addrs,
        st.sampled_from([M, E, S]),
        st.booleans(),
    ),
    max_size=120,
)


def _resident_state(cache):
    """Everything observable about residency, as a comparable set."""
    return {
        (blk.addr, blk.state, blk.dirty, blk.persistent, blk.last_use)
        for blk in cache.blocks()
    }


def _addr(blk: Optional[CacheBlock]) -> Optional[int]:
    return None if blk is None else blk.addr


@settings(max_examples=200)
@given(st.sampled_from(CONFIGS), ops)
def test_dict_cache_matches_linear_scan_reference(config, op_list):
    real = CacheArray(config)
    ref = LinearScanCacheArray(config)
    for op, addr, state, dirty in op_list:
        if op == "insert":
            if real.contains(addr):
                continue
            got = real.insert(CacheBlock(addr, state=state, dirty=dirty))
            want = ref.insert(CacheBlock(addr, state=state, dirty=dirty))
            assert _addr(got) == _addr(want)
        elif op in ("lookup", "peek"):
            touch = op == "lookup"
            got = real.lookup(addr, touch=touch)
            want = ref.lookup(addr, touch=touch)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.addr, got.state, got.dirty, got.last_use) == (
                    want.addr, want.state, want.dirty, want.last_use
                )
        elif op == "remove":
            assert _addr(real.remove(addr)) == _addr(ref.remove(addr))
        assert _resident_state(real) == _resident_state(ref)
    assert real._use == ref._use


@settings(max_examples=100)
@given(st.sampled_from(CONFIGS), ops)
def test_set_index_matches_reference(config, op_list):
    real = CacheArray(config)
    ref = LinearScanCacheArray(config)
    for _, addr, _, _ in op_list:
        assert real.set_index(addr) == ref.set_index(addr)
