"""Unit tests for the memory controllers (repro.mem.memctrl)."""

import pytest

from repro.mem.block import BlockData
from repro.mem.memctrl import DRAMController, NVMMController
from repro.sim.config import MemConfig
from repro.sim.stats import SimStats


@pytest.fixture
def mem():
    return MemConfig(
        dram_bytes=1 << 20, nvmm_bytes=1 << 20, persistent_bytes=1 << 19
    )


@pytest.fixture
def stats():
    return SimStats(num_cores=1)


def nvmm_block(mem, i=0):
    return mem.nvmm_base + i * 64


class TestDRAM:
    def test_read_latency(self, mem, stats):
        dram = DRAMController(mem, stats)
        assert dram.read(100) == 100 + mem.dram_read_cycles
        assert stats.dram_reads == 1

    def test_write_latency(self, mem, stats):
        dram = DRAMController(mem, stats)
        assert dram.write(0) == mem.dram_write_cycles
        assert stats.dram_writes == 1


class TestNVMMReads:
    def test_read_latency_and_counter(self, mem, stats):
        mc = NVMMController(mem, stats)
        data, done = mc.read(nvmm_block(mem), 50)
        assert done == 50 + mem.nvmm_read_cycles
        assert stats.nvmm_reads == 1
        assert not data  # unwritten block reads empty

    def test_read_sees_accepted_write(self, mem, stats):
        mc = NVMMController(mem, stats)
        payload = BlockData({0: 0xAA})
        mc.write(nvmm_block(mem), payload, 0)
        data, _ = mc.read(nvmm_block(mem), 1000)
        assert data.read(0) == 0xAA


class TestNVMMWrites:
    def test_acceptance_is_durable_immediately(self, mem, stats):
        mc = NVMMController(mem, stats)
        mc.write(nvmm_block(mem), BlockData({1: 7}), 0)
        # Durable at acceptance: visible in the media image right away.
        assert mc.media.peek_block(nvmm_block(mem)).read(1) == 7

    def test_write_counts_media_writes(self, mem, stats):
        mc = NVMMController(mem, stats)
        mc.write(nvmm_block(mem), BlockData({0: 1}), 0)
        mc.write(nvmm_block(mem), BlockData({0: 2}), 100)
        assert stats.nvmm_writes == 2
        assert mc.media.write_counts[nvmm_block(mem)] == 2

    def test_port_contention_serialises_accepts(self, mem, stats):
        mc = NVMMController(mem, stats)
        t1 = mc.write(nvmm_block(mem, 0), BlockData({0: 1}), 0)
        t2 = mc.write(nvmm_block(mem, 1), BlockData({0: 2}), 0)
        assert t1 == mem.wpq_accept_cycles
        assert t2 == 2 * mem.wpq_accept_cycles  # queued behind the first

    def test_port_idles_between_spaced_writes(self, mem, stats):
        mc = NVMMController(mem, stats)
        mc.write(nvmm_block(mem, 0), BlockData({0: 1}), 0)
        t2 = mc.write(nvmm_block(mem, 1), BlockData({0: 2}), 10_000)
        assert t2 == 10_000 + mem.wpq_accept_cycles

    def test_sequential_values_overlay(self, mem, stats):
        mc = NVMMController(mem, stats)
        mc.write(nvmm_block(mem), BlockData({0: 1, 1: 2}), 0)
        mc.write(nvmm_block(mem), BlockData({1: 9}), 100)
        blk = mc.media.peek_block(nvmm_block(mem))
        assert (blk.read(0), blk.read(1)) == (1, 9)
