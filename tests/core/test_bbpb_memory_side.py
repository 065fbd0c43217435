"""Unit tests for the memory-side bbPB (repro.core.bbpb.MemorySideBBPB)."""

import pytest

from repro.core.bbpb import MemorySideBBPB
from repro.mem.block import BlockData
from repro.sim.config import BBBConfig, DrainPolicy
from repro.sim.stats import SimStats


class DrainSink:
    """Records drains; completes each after ``latency`` cycles, serialised."""

    def __init__(self, latency=50):
        self.latency = latency
        self.calls = []
        self.port_free = 0

    def __call__(self, block_addr, data, now):
        start = max(now, self.port_free)
        done = start + self.latency
        self.port_free = done
        self.calls.append((block_addr, data.copy(), now, done))
        return done


def make(entries=4, threshold=0.75, policy=DrainPolicy.FCFS_THRESHOLD, latency=50):
    sink = DrainSink(latency)
    cfg = BBBConfig(entries=entries, drain_threshold=threshold, drain_policy=policy)
    return MemorySideBBPB(cfg, core_id=0, drain=sink, stats=SimStats()), sink


def data(v):
    d = BlockData()
    d.write_word(0, v)
    return d


class TestAllocation:
    def test_put_allocates(self):
        buf, _ = make()
        stall, allocated = buf.put(0x1000, data(1), 0)
        assert allocated and stall == 0
        assert buf.contains(0x1000)
        assert buf.stats.bbpb_allocations == 1

    def test_coalesce_same_block(self):
        buf, _ = make()
        buf.put(0x1000, data(1), 0)
        stall, allocated = buf.put(0x1000, data(2), 10)
        assert not allocated and stall == 0
        assert buf.stats.bbpb_coalesces == 1
        assert len(buf) == 1
        assert buf.entry(0x1000).data.read_word(0) == 2

    def test_distinct_blocks_get_distinct_entries(self):
        buf, _ = make()
        buf.put(0x1000, data(1), 0)
        buf.put(0x1040, data(2), 0)
        assert len(buf) == 2


class TestThresholdDraining:
    def test_no_drain_below_threshold(self):
        buf, sink = make(entries=4, threshold=0.75)  # threshold at 3
        buf.put(0x1000, data(1), 0)
        buf.put(0x1040, data(2), 0)
        assert not sink.calls

    def test_drain_starts_at_threshold(self):
        buf, sink = make(entries=4, threshold=0.75)
        for i in range(3):
            buf.put(0x1000 + i * 64, data(i), 0)
        assert len(sink.calls) >= 1

    def test_fcfs_drains_oldest_first(self):
        buf, sink = make(entries=4, threshold=0.75)
        for i in range(3):
            buf.put(0x1000 + i * 64, data(i), 0)
        assert sink.calls[0][0] == 0x1000

    def test_inflight_entries_reaped_after_completion(self):
        buf, sink = make(entries=4, threshold=0.75, latency=50)
        for i in range(3):
            buf.put(0x1000 + i * 64, data(i), 0)
        assert len(buf) == 3  # in-flight entries still occupy capacity
        buf.reap(1000)
        assert len(buf) < 3

    def test_coalesce_blocked_on_inflight_entry_allocates_new(self):
        buf, sink = make(entries=4, threshold=0.5)  # threshold at 2
        buf.put(0x1000, data(1), 0)
        buf.put(0x1040, data(2), 0)  # triggers a drain of the oldest
        assert buf.entry(0x1000) is None  # moved to the in-flight list
        stall, allocated = buf.put(0x1000, data(3), 1)
        assert allocated  # cannot coalesce into an in-flight entry
        assert len(buf) == 3  # in-flight entry still occupies capacity


class TestFullBufferStalls:
    def test_rejection_counted_when_full(self):
        buf, _ = make(entries=2, threshold=1.0, latency=50)
        buf.put(0x1000, data(1), 0)
        buf.put(0x1040, data(2), 0)
        stall, _ = buf.put(0x1080, data(3), 0)
        assert buf.stats.bbpb_rejections >= 1
        assert stall > 0

    def test_stall_equals_drain_completion_wait(self):
        buf, _ = make(entries=1, threshold=1.0, latency=50)
        buf.put(0x1000, data(1), 0)  # fills, drains at threshold=1
        stall, _ = buf.put(0x1040, data(2), 0)
        # Must wait for the in-flight drain of 0x1000 (completes at 50).
        assert stall == 50

    def test_full_buffer_coalesce_does_not_stall(self):
        buf, _ = make(entries=2, threshold=1.0)
        buf.put(0x1000, data(1), 0)
        buf.put(0x1040, data(2), 0)
        # 0x1040 is resident (threshold drain starts with oldest = 0x1000).
        stall, allocated = buf.put(0x1040, data(9), 1)
        assert stall == 0 and not allocated


class TestPolicies:
    def test_eager_drains_every_entry(self):
        buf, sink = make(entries=8, policy=DrainPolicy.EAGER)
        buf.put(0x1000, data(1), 0)
        assert len(sink.calls) == 1

    def test_drain_all_empties_at_threshold(self):
        buf, sink = make(entries=4, threshold=0.75, policy=DrainPolicy.DRAIN_ALL)
        for i in range(2):
            buf.put(0x1000 + i * 64, data(i), 0)
        assert not sink.calls
        buf.put(0x1080, data(2), 0)
        assert len(sink.calls) == 3  # all entries sent


class TestCoherenceActions:
    def test_remove_returns_data_without_draining(self):
        buf, sink = make()
        buf.put(0x1000, data(7), 0)
        removed = buf.remove(0x1000)
        assert removed.read_word(0) == 7
        assert not buf.contains(0x1000)
        assert not sink.calls
        assert buf.stats.bbpb_removes == 1

    def test_remove_absent_returns_none(self):
        buf, _ = make()
        assert buf.remove(0x1000) is None

    def test_remove_inflight_returns_none_and_lets_drain_finish(self):
        buf, sink = make(entries=2, threshold=0.5)
        buf.put(0x1000, data(1), 0)  # drains immediately (threshold 1)
        assert buf.entry(0x1000) is None  # in flight, not coalescible
        assert buf.remove(0x1000) is None
        assert sink.calls[0][0] == 0x1000

    def test_force_drain_pushes_block_now(self):
        buf, sink = make(entries=8)
        buf.put(0x1000, data(7), 0)
        done = buf.force_drain(0x1000, 100)
        assert done > 100
        assert not buf.contains(0x1000)
        assert sink.calls[-1][0] == 0x1000
        assert buf.stats.bbpb_forced_drains == 1

    def test_force_drain_absent_is_free(self):
        buf, _ = make()
        assert buf.force_drain(0x1000, 100) == 100


class TestCrashAndSettle:
    def test_crash_drain_returns_all_entries_oldest_first(self):
        buf, _ = make(entries=8)
        buf.put(0x1000, data(1), 0)
        buf.put(0x1040, data(2), 0)
        drained = buf.battery_entries()
        buf.clear()
        assert [a for a, _ in drained] == [0x1000, 0x1040]
        assert len(buf) == 0

    def test_crash_drain_carries_latest_coalesced_value(self):
        buf, _ = make(entries=8)
        buf.put(0x1000, data(1), 0)
        buf.put(0x1000, data(9), 10)
        drained = buf.battery_entries()
        buf.clear()
        assert drained[0][1].read_word(0) == 9

    def test_drain_all_settles_everything(self):
        buf, sink = make(entries=8)
        buf.put(0x1000, data(1), 0)
        buf.put(0x1040, data(2), 0)
        done = buf.drain_all(100)
        assert done >= 100
        assert len(buf) == 0
        assert {c[0] for c in sink.calls} == {0x1000, 0x1040}


class TestConfigValidation:
    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            BBBConfig(entries=0)

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            BBBConfig(drain_threshold=0.0)
        with pytest.raises(ValueError):
            BBBConfig(drain_threshold=1.5)

    def test_threshold_entries(self):
        assert BBBConfig(entries=32, drain_threshold=0.75).threshold_entries == 24
        assert BBBConfig(entries=1, drain_threshold=0.75).threshold_entries == 1
