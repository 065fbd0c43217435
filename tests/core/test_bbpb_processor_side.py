"""Unit tests for the processor-side bbPB (repro.core.bbpb.ProcessorSideBBPB).

The organisational differences vs the memory-side buffer (Section III-B):
ordered per-store records, coalescing only between consecutive same-block
entries, strictly in-order draining.
"""

import pytest

from repro.core.bbpb import ProcessorSideBBPB
from repro.mem.block import BlockData
from repro.obs.bus import EventBus, EventRecorder
from repro.obs.events import DrainStart
from repro.sim.config import BBBConfig
from repro.sim.stats import SimStats

from tests.core.test_bbpb_memory_side import DrainSink, data


def make(entries=4, threshold=0.75, latency=50):
    sink = DrainSink(latency)
    cfg = BBBConfig(entries=entries, drain_threshold=threshold, memory_side=False)
    return ProcessorSideBBPB(cfg, core_id=0, drain=sink, stats=SimStats()), sink


class TestOrderedRecords:
    def test_records_kept_in_program_order(self):
        buf, _ = make(entries=8)
        buf.put(0x1000, data(1), 0)
        buf.put(0x1080, data(2), 0)
        buf.put(0x1040, data(3), 0)
        assert buf.resident_blocks() == [0x1000, 0x1080, 0x1040]

    def test_consecutive_same_block_coalesces(self):
        buf, _ = make(entries=8)
        buf.put(0x1000, data(1), 0)
        stall, allocated = buf.put(0x1000, data(2), 1)
        assert not allocated
        assert buf.stats.bbpb_coalesces == 1
        assert len(buf) == 1

    def test_non_consecutive_same_block_does_not_coalesce(self):
        """The key difference from the memory-side organisation: an
        intervening store to another block blocks coalescing (ordering
        would be violated)."""
        buf, _ = make(entries=8)
        buf.put(0x1000, data(1), 0)
        buf.put(0x1040, data(2), 0)
        stall, allocated = buf.put(0x1000, data(3), 0)
        assert allocated
        assert len(buf) == 3
        assert buf.stats.bbpb_coalesces == 0


class TestInOrderDraining:
    def test_threshold_drains_oldest_prefix(self):
        buf, sink = make(entries=4, threshold=0.75)
        for i in range(3):
            buf.put(0x1000 + i * 64, data(i), 0)
        assert [c[0] for c in sink.calls] == [0x1000]

    def test_drain_completions_serialise(self):
        buf, sink = make(entries=2, threshold=0.5, latency=50)
        buf.put(0x1000, data(1), 0)
        buf.put(0x1040, data(2), 0)
        buf.put(0x1080, data(3), 0)  # forces waiting on head drains
        dones = [c[3] for c in sink.calls]
        assert dones == sorted(dones)

    def test_reap_only_frees_completed_head_run(self):
        buf, sink = make(entries=4, threshold=0.5, latency=50)
        buf.put(0x1000, data(1), 0)
        buf.put(0x1040, data(2), 0)  # head starts draining
        buf.reap(10)   # nothing complete yet
        assert len(buf) == 2
        buf.reap(10_000)
        assert len(buf) < 2


class TestFullBuffer:
    def test_rejection_and_stall_when_full(self):
        buf, _ = make(entries=2, threshold=1.0, latency=50)
        buf.put(0x1000, data(1), 0)
        buf.put(0x1040, data(2), 0)
        stall, _ = buf.put(0x1080, data(3), 0)
        assert buf.stats.bbpb_rejections >= 1
        assert stall > 0


class TestCoherenceActions:
    def test_drain_through_drains_prefix_through_block(self):
        """Ordering forbids plucking a middle record: everything up to and
        including the block drains (part of why the paper rejects the
        processor-side design)."""
        buf, sink = make(entries=8)
        buf.put(0x1000, data(1), 0)
        buf.put(0x1040, data(2), 0)
        buf.put(0x1080, data(3), 0)
        done = buf.drain_through(0x1040, 0)
        assert [c[0] for c in sink.calls] == [0x1000, 0x1040]
        assert sink.calls[1][1].read_word(0) == 2
        assert done == sink.calls[1][3]
        assert buf.resident_blocks() == [0x1080]
        # A plain drain: nothing counted as forced, removed or moved.
        assert buf.stats.bbpb_forced_drains == 0
        assert buf.stats.bbpb_removes == 0

    @pytest.mark.parametrize("threshold, head_in_flight", [
        (0.75, False),
        # The head's drain starts at cycle 0 and completes long before
        # the drain-through: the records behind it still drain from ``now``.
        (0.5, True),
    ])
    def test_drain_through_starts_no_earlier_than_now(self, threshold,
                                                      head_in_flight):
        bus = EventBus()
        recorder = EventRecorder(bus)
        sink = DrainSink(latency=50)
        cfg = BBBConfig(entries=4, drain_threshold=threshold,
                        memory_side=False)
        buf = ProcessorSideBBPB(cfg, core_id=0, drain=sink, stats=SimStats(),
                                bus=bus)
        buf.put(0x1000, data(1), 0)
        buf.put(0x1040, data(2), 0)
        assert len(sink.calls) == int(head_in_flight)
        issued, recorder.events[:] = len(sink.calls), []
        now = 1000
        buf.drain_through(0x1040, now)
        starts = [call[2] for call in sink.calls[issued:]]
        events = [e.cycle for e in recorder.events
                  if isinstance(e, DrainStart)]
        assert starts and events
        assert min(starts) >= now
        assert min(events) >= now
        assert buf.resident_blocks() == []

    def test_drain_through_absent_is_noop(self):
        buf, sink = make()
        assert buf.drain_through(0x1000, 100) == 100
        assert not sink.calls

    def test_force_drain_through_block(self):
        buf, sink = make(entries=8)
        buf.put(0x1000, data(1), 0)
        buf.put(0x1040, data(2), 0)
        done = buf.force_drain(0x1040, 100)
        assert done >= 100
        assert [c[0] for c in sink.calls] == [0x1000, 0x1040]
        # Every drain it starts counts as forced.
        assert buf.stats.bbpb_forced_drains == 2


class TestCrash:
    def test_crash_drain_in_program_order(self):
        buf, _ = make(entries=8)
        buf.put(0x1000, data(1), 0)
        buf.put(0x1040, data(2), 0)
        drained = buf.battery_entries()
        buf.clear()
        assert [a for a, _ in drained] == [0x1000, 0x1040]
        assert len(buf) == 0

    def test_drain_all(self):
        buf, sink = make(entries=8)
        buf.put(0x1000, data(1), 0)
        buf.put(0x1040, data(2), 0)
        buf.drain_all(0)
        assert len(buf) == 0
        assert len(sink.calls) == 2


class TestWriteAmplification:
    def test_scattered_stores_drain_once_each(self):
        """N stores to the same block separated by other blocks produce N
        drains processor-side — the write-amplification of Section V-C."""
        buf, sink = make(entries=2, threshold=1.0, latency=1)
        for i in range(6):
            block = 0x1000 if i % 2 == 0 else 0x2000
            buf.put(block, data(i), i * 100)
        buf.drain_all(10_000)
        assert len(sink.calls) == 6  # zero coalescing
