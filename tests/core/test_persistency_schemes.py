"""Unit tests for the persistency schemes (repro.core.persistency)."""

import pytest

from repro.core.persistency import table1_rows
from repro.sim.config import ConsistencyModel, SystemConfig
from repro.api import build_system
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from tests.conftest import crash_after, paddr, single_thread_trace


def store_trace(config, n, stride_blocks=1):
    ops = [
        TraceOp.store(paddr(config, i * stride_blocks), i + 1) for i in range(n)
    ]
    return single_thread_trace(*ops)


class TestEADR:
    def test_no_stalls_no_extra_writes_during_run(self, small_config):
        system = build_system("eadr", config=small_config)
        result = system.run(store_trace(small_config, 10), finalize=False)
        assert result.stats.total_bbpb_stalls == 0
        assert result.stats.nvmm_writes == 0  # nothing evicted yet

    def test_crash_drain_persists_all_dirty_blocks(self, small_config):
        system = build_system("eadr", config=small_config,
                              options=crash_after(10))
        result = system.run(store_trace(small_config, 10))
        assert result.crashed
        assert result.drain_report.cache_blocks >= 10
        for i in range(10):
            assert system.nvmm_media.read_word(paddr(small_config, i), 8) == i + 1

    def test_crash_drain_prefers_l1_copy_over_stale_llc(self, small_config):
        system = build_system("eadr", config=small_config)
        h = system.hierarchy
        x = paddr(small_config, 0)
        h.store(0, x, 8, 1, 0)
        h.load(1, x, 8, 10)        # LLC gets value 1, both S
        h.store(0, x, 8, 2, 20)    # core 0 M again with newer value
        system.scheme.crash_drain(100)
        assert system.nvmm_media.read_word(x, 8) == 2

    def test_crash_drain_ignores_dram_blocks(self, small_config):
        from tests.conftest import daddr

        system = build_system("eadr", config=small_config)
        h = system.hierarchy
        h.store(0, daddr(small_config, 0), 8, 7, 0)
        report = system.scheme.crash_drain(10)
        assert report.cache_blocks == 0


class TestStrictPMEM:
    def test_every_persisting_store_flushes_and_fences(self, small_config):
        system = build_system("pmem", config=small_config)
        result = system.run(store_trace(small_config, 8), finalize=False)
        assert result.stats.flushes == 8
        assert result.stats.fences == 8
        assert result.stats.nvmm_writes == 8

    def test_stores_stall_for_wpq_round_trip(self, small_config):
        slow = build_system("pmem", config=small_config)
        fast = build_system("eadr", config=small_config)
        r_slow = slow.run(store_trace(small_config, 20), finalize=False)
        r_fast = fast.run(store_trace(small_config, 20), finalize=False)
        assert r_slow.execution_cycles > r_fast.execution_cycles * 1.5

    def test_durable_immediately_after_each_store(self, small_config):
        system = build_system("pmem", config=small_config,
                              options=crash_after(5))
        system.run(store_trace(small_config, 5))
        for i in range(5):
            assert system.nvmm_media.read_word(paddr(small_config, i), 8) == i + 1

    def test_non_persistent_stores_not_flushed(self, small_config):
        from tests.conftest import daddr

        system = build_system("pmem", config=small_config)
        trace = single_thread_trace(TraceOp.store(daddr(small_config, 0), 1))
        result = system.run(trace, finalize=False)
        assert result.stats.flushes == 0


class TestBBBFactories:
    def test_memory_side_default(self, small_config):
        system = build_system("bbb", config=small_config, entries=16)
        assert system.scheme.bbb_config.memory_side
        assert system.scheme.bbb_config.entries == 16

    def test_processor_side_factory(self, small_config):
        system = build_system("bbb-proc", config=small_config, entries=16)
        assert not system.scheme.bbb_config.memory_side

    def test_store_allocates_bbpb_entry(self, small_config):
        system = build_system("bbb", config=small_config)
        result = system.run(store_trace(small_config, 3), finalize=False)
        assert result.stats.bbpb_allocations == 3

    def test_same_block_stores_coalesce(self, small_config):
        system = build_system("bbb", config=small_config)
        ops = [TraceOp.store(paddr(small_config, 0, off), off) for off in (0, 8, 16)]
        result = system.run(single_thread_trace(*ops), finalize=False)
        assert result.stats.bbpb_allocations == 1
        assert result.stats.bbpb_coalesces == 2

    def test_crash_drains_bbpb_to_media(self, small_config):
        system = build_system("bbb", config=small_config, entries=64,
                              options=crash_after(10))
        result = system.run(store_trace(small_config, 10))
        assert result.drain_report.bbpb_blocks == 10
        for i in range(10):
            assert system.nvmm_media.read_word(paddr(small_config, i), 8) == i + 1

    def test_finalize_settles_all_buffers(self, small_config):
        system = build_system("bbb", config=small_config, entries=64)
        system.run(store_trace(small_config, 10), finalize=True)
        assert all(len(b) == 0 for b in system.scheme.buffers)
        for i in range(10):
            assert system.nvmm_media.read_word(paddr(small_config, i), 8) == i + 1

    def test_processor_side_writes_exceed_memory_side(self, small_config):
        """Scattered repeat stores: processor-side cannot coalesce."""
        ops = []
        for i in range(30):
            block = i % 3  # revisit 3 blocks repeatedly
            ops.append(TraceOp.store(paddr(small_config, block), i))
        trace = single_thread_trace(*ops)
        mem_side = build_system("bbb", config=small_config, entries=8)
        proc_side = build_system("bbb-proc", config=small_config, entries=8)
        r_mem = mem_side.run(trace)
        r_proc = proc_side.run(trace)
        assert r_proc.stats.nvmm_writes > 2 * r_mem.stats.nvmm_writes


class TestBEP:
    def test_epoch_barriers_counted(self, small_config):
        system = build_system("bep", config=small_config)
        ops = [
            TraceOp.store(paddr(small_config, 0), 1),
            TraceOp.epoch(),
            TraceOp.store(paddr(small_config, 1), 2),
            TraceOp.epoch(),
        ]
        result = system.run(single_thread_trace(*ops), finalize=False)
        assert result.stats.epoch_barriers == 2

    def test_epoch_boundary_drains_prior_epoch(self, small_config):
        system = build_system("bep", config=small_config)
        ops = [
            TraceOp.store(paddr(small_config, 0), 1),
            TraceOp.epoch(),
        ]
        system.run(single_thread_trace(*ops), finalize=False)
        assert system.nvmm_media.read_word(paddr(small_config, 0), 8) == 1

    def test_crash_loses_volatile_buffer(self, small_config):
        system = build_system("bep", config=small_config,
                              options=crash_after(1))
        ops = [TraceOp.store(paddr(small_config, 0), 1)]
        result = system.run(single_thread_trace(*ops))
        assert result.drain_report.total_units == 0
        assert system.nvmm_media.read_word(paddr(small_config, 0), 8) == 0

    def test_within_epoch_coalescing(self, small_config):
        system = build_system("bep", config=small_config)
        ops = [
            TraceOp.store(paddr(small_config, 0, 0), 1),
            TraceOp.store(paddr(small_config, 0, 8), 2),
            TraceOp.epoch(),
        ]
        result = system.run(single_thread_trace(*ops), finalize=False)
        assert result.stats.nvmm_writes == 1  # one block, coalesced


class TestNoPersistency:
    def test_nothing_durable_without_evictions(self, small_config):
        system = build_system("none", config=small_config)
        system.run(store_trace(small_config, 5), finalize=False)
        assert system.nvmm_media.total_writes == 0

    def test_crash_drains_nothing(self, small_config):
        system = build_system("none", config=small_config,
                              options=crash_after(5))
        result = system.run(store_trace(small_config, 5))
        assert result.drain_report.total_units == 0


class TestTraits:
    def test_table1_has_four_schemes(self):
        rows = table1_rows()
        assert [r.name for r in rows] == ["PMEM", "BSP", "eADR", "BBB (memory-side)"]

    def test_table1_battery_column(self):
        by_name = {r.name: r for r in table1_rows()}
        assert by_name["PMEM"].battery == "None"
        assert by_name["eADR"].battery == "Large"
        assert by_name["BBB (memory-side)"].battery == "Small"

    def test_table1_pop_locations(self):
        by_name = {r.name: r for r in table1_rows()}
        assert by_name["PMEM"].pop_location == "WPQ/mem"
        assert by_name["eADR"].pop_location == "L1D"
        assert by_name["BBB (memory-side)"].pop_location == "bbPB/L1D"

    def test_only_pmem_needs_persist_instructions(self):
        rows = table1_rows()
        for row in rows:
            if row.name == "PMEM":
                assert "clwb" in row.persist_instructions
            else:
                assert row.persist_instructions == "None"
