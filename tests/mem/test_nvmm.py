"""Unit tests for the NVMM media model (repro.mem.nvmm)."""

import pytest

from repro.mem.block import BlockData
from repro.mem.nvmm import NVMMedia


@pytest.fixture
def media():
    return NVMMedia(base=0x10000, size=0x10000, block_size=64)


class TestBounds:
    def test_out_of_range_write_rejected(self, media):
        with pytest.raises(ValueError):
            media.write_block(0x0, BlockData({0: 1}))

    def test_unaligned_write_rejected(self, media):
        with pytest.raises(ValueError):
            media.write_block(0x10001, BlockData({0: 1}))

    def test_limit_is_exclusive(self, media):
        with pytest.raises(ValueError):
            media.write_block(0x20000, BlockData({0: 1}))


class TestReadWrite:
    def test_write_then_read(self, media):
        media.write_block(0x10000, BlockData({3: 0x5A}))
        assert media.read_block(0x10000).read(3) == 0x5A

    def test_overlay_semantics(self, media):
        media.write_block(0x10000, BlockData({0: 1, 1: 2}))
        media.write_block(0x10000, BlockData({1: 9}))
        blk = media.peek_block(0x10000)
        assert (blk.read(0), blk.read(1)) == (1, 9)

    def test_read_returns_copy(self, media):
        media.write_block(0x10000, BlockData({0: 1}))
        copy = media.read_block(0x10000)
        copy.write_word(0, 99, 1)
        assert media.peek_block(0x10000).read(0) == 1

    def test_unwritten_block_reads_empty(self, media):
        assert not media.peek_block(0x10040)

    def test_read_word_crosses_into_block(self, media):
        media.write_block(0x10000, BlockData({8: 0xEF, 9: 0xBE}))
        assert media.read_word(0x10008, size=2) == 0xBEEF


class TestAccounting:
    def test_write_counters(self, media):
        media.write_block(0x10000, BlockData({0: 1}))
        media.write_block(0x10000, BlockData({0: 2}))
        media.write_block(0x10040, BlockData({0: 3}))
        assert media.total_writes == 3
        assert media.write_counts[0x10000] == 2
        assert media.max_block_writes() == 2

    def test_read_counter_distinguishes_peek(self, media):
        media.write_block(0x10000, BlockData({0: 1}))
        media.read_block(0x10000)
        media.peek_block(0x10000)
        assert media.total_reads == 1

    def test_written_blocks(self, media):
        media.write_block(0x10000, BlockData({0: 1}))
        media.write_block(0x10080, BlockData({0: 2}))
        assert set(media.written_blocks()) == {0x10000, 0x10080}


class TestCopy:
    def test_image_snapshot(self, media):
        media.write_block(0x10000, BlockData({0: 1}))
        image = media.image()
        image[0x10000].write_word(0, 5, 1)
        assert media.peek_block(0x10000).read(0) == 1
