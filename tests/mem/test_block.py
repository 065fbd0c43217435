"""Unit tests for cache-line primitives (repro.mem.block)."""

import pytest

from repro.mem.block import (
    BlockData,
    CacheBlock,
    MESIState,
    E,
    I,
    M,
    S,
    block_address,
    block_offset,
)


class TestAddressHelpers:
    def test_block_address_aligns_down(self):
        assert block_address(0x1234, 64) == 0x1200

    def test_block_address_identity_for_aligned(self):
        assert block_address(0x1240, 64) == 0x1240

    def test_block_offset(self):
        assert block_offset(0x1234, 64) == 0x34

    def test_offset_plus_base_roundtrip(self):
        addr = 0xDEADBEEF
        assert block_address(addr, 64) + block_offset(addr, 64) == addr

    @pytest.mark.parametrize("size", [32, 64, 128])
    def test_other_block_sizes(self, size):
        addr = 5 * size + 7
        assert block_address(addr, size) == 5 * size
        assert block_offset(addr, size) == 7


class TestMESIState:
    def test_aliases_match_enum(self):
        assert M is MESIState.MODIFIED
        assert E is MESIState.EXCLUSIVE
        assert S is MESIState.SHARED
        assert I is MESIState.INVALID


class TestBlockData:
    def test_unwritten_bytes_read_zero(self):
        assert BlockData().read(5) == 0

    def test_write_read_byte(self):
        d = BlockData()
        d.write_word(3, 0xAB, 1)
        assert d.read(3) == 0xAB

    def test_write_masks_to_byte(self):
        d = BlockData()
        d.write_word(0, 0x1FF, 1)
        assert d.read(0) == 0xFF

    def test_write_word_little_endian(self):
        d = BlockData()
        d.write_word(0, 0x0102030405060708, size=8)
        assert d.read(0) == 0x08
        assert d.read(7) == 0x01

    def test_read_word_roundtrip(self):
        d = BlockData()
        value = 0xDEADBEEFCAFEF00D
        d.write_word(8, value, size=8)
        assert d.read_word(8, size=8) == value

    def test_read_word_partial_sizes(self):
        d = BlockData()
        d.write_word(0, 0xAABBCCDD, size=4)
        assert d.read_word(0, size=4) == 0xAABBCCDD
        assert d.read_word(0, size=2) == 0xCCDD

    def test_merge_from_overlays(self):
        a = BlockData({0: 1, 1: 2})
        b = BlockData({1: 9, 2: 3})
        a.merge_from(b)
        assert (a.read(0), a.read(1), a.read(2)) == (1, 9, 3)

    def test_copy_is_independent(self):
        a = BlockData({0: 1})
        b = a.copy()
        b.write_word(0, 2, 1)
        assert a.read(0) == 1

    def test_equality_is_value_based(self):
        a = BlockData({0: 0, 1: 5})
        b = BlockData({1: 5})
        assert a == b  # explicit zero equals unwritten zero

    def test_inequality(self):
        assert BlockData({0: 1}) != BlockData({0: 2})

    def test_bool_reflects_written_bytes(self):
        assert not BlockData()
        assert BlockData({0: 0})


class TestCacheBlock:
    def test_defaults(self):
        blk = CacheBlock(0x1000)
        assert blk.state is I
        assert not blk.dirty
        assert not blk.persistent
