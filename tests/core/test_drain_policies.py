"""Tests for drain policies, including the future-work
LEAST_RECENTLY_WRITTEN predictor (repro.core.drain / repro.core.bbpb)."""

import pytest

from repro.core.drain import POLICY_DESCRIPTIONS, config_for_policy
from repro.core.bbpb import MemorySideBBPB
from repro.mem.block import BlockData
from repro.sim.config import BBBConfig, DrainPolicy
from repro.sim.stats import SimStats

from tests.core.test_bbpb_memory_side import DrainSink, data


def make(policy, entries=4, threshold=0.75, latency=10):
    sink = DrainSink(latency)
    cfg = BBBConfig(entries=entries, drain_threshold=threshold, drain_policy=policy)
    return MemorySideBBPB(cfg, core_id=0, drain=sink, stats=SimStats()), sink


class TestPolicyMetadata:
    def test_every_policy_documented(self):
        assert set(POLICY_DESCRIPTIONS) == set(DrainPolicy)

    def test_config_for_policy(self):
        cfg = config_for_policy(DrainPolicy.EAGER, entries=8)
        assert cfg.drain_policy is DrainPolicy.EAGER
        assert cfg.entries == 8
        assert cfg.memory_side


class TestLeastRecentlyWritten:
    def test_drains_idle_entry_not_hot_one(self):
        """Three entries; the oldest-allocated one is also the hottest
        (coalesced last).  FCFS would evict it; LRW keeps it and drains
        the entry idle the longest."""
        buf, sink = make(DrainPolicy.LEAST_RECENTLY_WRITTEN, entries=4,
                         threshold=0.75)
        buf.put(0x1000, data(1), now=0)    # hot block, allocated first
        buf.put(0x1040, data(2), now=10)   # idle after this
        buf.put(0x1000, data(3), now=20)   # re-write the hot block
        buf.put(0x1080, data(4), now=30)   # trips the threshold (3 entries)
        assert sink.calls[0][0] == 0x1040  # idle victim, not 0x1000

    def test_fcfs_would_have_drained_the_hot_block(self):
        buf, sink = make(DrainPolicy.FCFS_THRESHOLD, entries=4, threshold=0.75)
        buf.put(0x1000, data(1), now=0)
        buf.put(0x1040, data(2), now=10)
        buf.put(0x1000, data(3), now=20)
        buf.put(0x1080, data(4), now=30)
        assert sink.calls[0][0] == 0x1000  # allocation order wins

    def test_lrw_reduces_drains_on_hot_cold_mix(self):
        """A stream with one hot block and a cold stream: LRW drains the
        hot block less often than FCFS (more coalescing)."""

        def run(policy):
            buf, sink = make(policy, entries=4, threshold=0.75, latency=1)
            now = 0
            for i in range(40):
                buf.put(0x9000, data(i), now)            # hot every op
                buf.put(0x1000 + i * 64, data(i), now + 1)  # cold stream
                now += 100
            buf.drain_all(now + 1000)
            return sum(1 for c in sink.calls if c[0] == 0x9000)

        hot_drains_lrw = run(DrainPolicy.LEAST_RECENTLY_WRITTEN)
        hot_drains_fcfs = run(DrainPolicy.FCFS_THRESHOLD)
        assert hot_drains_lrw < hot_drains_fcfs

    def test_lrw_never_loses_data(self):
        buf, sink = make(DrainPolicy.LEAST_RECENTLY_WRITTEN, entries=2,
                         threshold=1.0, latency=5)
        values = {}
        now = 0
        for i in range(20):
            addr = 0x1000 + (i % 5) * 64
            buf.put(addr, data(i), now)
            values[addr] = i
            now += 50
        buf.drain_all(now + 1000)
        last = {}
        for addr, d, _, _ in sink.calls:
            last[addr] = d.read_word(0)
        assert last == values


class TestCoalesceTracking:
    def test_last_write_updated_on_coalesce(self):
        buf, _ = make(DrainPolicy.LEAST_RECENTLY_WRITTEN, entries=8)
        buf.put(0x1000, data(1), now=0)
        buf.put(0x1040, data(3), now=100)
        buf.put(0x1000, data(2), now=500)
        assert buf.entry(0x1000).last_write == 500
        # Coalescing does not make the entry younger: it keeps its FCFS place.
        assert buf.resident_blocks() == [0x1000, 0x1040]
