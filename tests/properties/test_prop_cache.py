"""Property-based tests for the cache array (repro.mem.cache)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.block import CacheBlock, E, I
from repro.mem.cache import CacheArray
from repro.sim.config import CacheConfig

CONFIG = CacheConfig(size_bytes=1024, assoc=2, block_size=64)  # 8 sets x 2

block_addrs = st.integers(min_value=0, max_value=63).map(lambda i: i * 64)
op_lists = st.lists(
    st.tuples(st.sampled_from(["insert", "lookup", "remove"]), block_addrs),
    max_size=80,
)


def apply_ops(ops):
    cache = CacheArray(CONFIG)
    for op, addr in ops:
        if op == "insert" and not cache.contains(addr):
            cache.insert(CacheBlock(addr, state=E))
        elif op == "lookup":
            cache.lookup(addr)
        elif op == "remove":
            cache.remove(addr)
    return cache


@given(op_lists)
def test_set_capacity_never_exceeded(ops):
    cache = apply_ops(ops)
    per_set = {}
    for blk in cache.blocks():
        per_set.setdefault(cache.set_index(blk.addr), []).append(blk)
    for blocks in per_set.values():
        assert len(blocks) <= CONFIG.assoc


@given(op_lists)
def test_no_duplicate_residency(ops):
    cache = apply_ops(ops)
    addrs = [b.addr for b in cache.blocks()]
    assert len(addrs) == len(set(addrs))


@given(op_lists)
def test_blocks_live_in_their_set(ops):
    cache = apply_ops(ops)
    for set_idx, frames in cache._sets.items():
        for addr, blk in frames.items():
            assert blk.state is not I
            assert blk.addr == addr
            assert cache.set_index(blk.addr) == set_idx


@given(op_lists, block_addrs)
def test_insert_makes_block_resident(ops, addr):
    cache = apply_ops(ops)
    if not cache.contains(addr):
        cache.insert(CacheBlock(addr, state=E))
    assert cache.contains(addr)


@given(op_lists)
def test_occupancy_matches_iteration(ops):
    cache = apply_ops(ops)
    assert cache.occupancy() == len(list(cache.blocks()))


@given(op_lists)
def test_tag_index_is_the_union_of_the_sets(ops):
    """The tag index holds exactly the frames of every set, the same
    objects under the same tags, after every operation."""
    cache = CacheArray(CONFIG)
    for op, addr in ops:
        if op == "insert" and not cache.contains(addr):
            cache.insert(CacheBlock(addr, state=E))
        elif op == "lookup":
            cache.lookup(addr)
        elif op == "remove":
            cache.remove(addr)
        union = {}
        for frames in cache._sets.values():
            union.update(frames)
        assert cache._frames.keys() == union.keys()
        assert all(cache._frames[a] is blk for a, blk in union.items())
