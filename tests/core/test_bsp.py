"""Tests for the Bulk Strict Persistency baseline (repro.core.bsp).

BSP hides the PoV/PoP gap instead of closing it: buffered stores persist
lazily, but a remote request for an unpersisted block forces the holder to
persist it (and all older stores) before responding.
"""

import pytest

from repro.core.bsp import BSP
from repro.core.persistency import table1_rows
from repro.core.recovery import check_exact_durability, check_prefix_consistency
from repro.api import build_system
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from tests.conftest import crash_after, paddr, single_thread_trace


def store_trace(config, n):
    return single_thread_trace(
        *[TraceOp.store(paddr(config, i), i + 1) for i in range(n)]
    )


class TestBuffering:
    def test_stores_buffer_without_immediate_persist(self, small_config):
        system = build_system("bsp", config=small_config)
        system.run(store_trace(small_config, 3), finalize=False)
        # Below the drain threshold nothing has persisted yet.
        assert system.nvmm_media.read_word(paddr(small_config, 0), 8) == 0
        assert len(system.scheme.buffers[0]) == 3

    def test_finalize_persists_everything(self, small_config):
        system = build_system("bsp", config=small_config)
        system.run(store_trace(small_config, 5), finalize=True)
        for i in range(5):
            assert system.nvmm_media.read_word(paddr(small_config, i), 8) == i + 1

    def test_background_threshold_draining(self, small_config):
        system = build_system("bsp", config=small_config, entries=4)
        system.run(store_trace(small_config, 10), finalize=False)
        assert system.stats.bbpb_drains > 0


class TestPersistBeforeRespond:
    def test_remote_read_forces_persist(self, two_core_config):
        """Core 1 reads a block core 0 wrote but has not persisted: the
        value must be durable before the read completes (Invariant 3's
        BSP-style enforcement)."""
        system = build_system("bsp", config=two_core_config)
        h = system.hierarchy
        x = paddr(two_core_config, 0)
        h.store(0, x, 8, 0xAB, 0)
        assert system.nvmm_media.read_word(x, 8) == 0  # buffered only
        value, done = h.load(1, x, 8, 100)
        assert value == 0xAB
        assert system.nvmm_media.read_word(x, 8) == 0xAB  # persisted first
        assert system.stats.bsp_conflict_drains == 1

    def test_remote_read_pays_the_drain_delay(self, two_core_config):
        """Same access pattern, but one system already drained its buffer:
        the read that triggers a persist-before-respond completes later."""
        x = paddr(two_core_config, 0)
        conflicted = build_system("bsp", config=two_core_config)
        conflicted.hierarchy.store(0, x, 8, 1, 0)
        clean = build_system("bsp", config=two_core_config)
        clean.hierarchy.store(0, x, 8, 1, 0)
        clean.scheme.finalize(50)  # buffer already empty at the read
        _, t_conflict = conflicted.hierarchy.load(1, x, 8, 100)
        _, t_clean = clean.hierarchy.load(1, x, 8, 100)
        assert t_conflict > t_clean

    def test_remote_write_forces_persist_of_older_stores(self, two_core_config):
        """The bulk part: persisting a requested block persists all older
        buffered stores of that core first (in-order buffer)."""
        system = build_system("bsp", config=two_core_config)
        h = system.hierarchy
        a, b = paddr(two_core_config, 0), paddr(two_core_config, 1)
        h.store(0, a, 8, 0x1, 0)     # older
        h.store(0, b, 8, 0x2, 10)    # younger
        h.store(1, b, 8, 0x3, 100)   # remote write to the younger block
        # Draining through b persisted a as well.
        assert system.nvmm_media.read_word(a, 8) == 0x1
        assert system.nvmm_media.read_word(b, 8) == 0x2  # then overwritten later

    def test_llc_eviction_drains_first_and_drops_writeback(self, two_core_config):
        from tests.conftest import conflict_addresses

        system = build_system("bsp", config=two_core_config)
        h = system.hierarchy
        x = paddr(two_core_config, 0)
        h.store(0, x, 8, 0x42, 0)
        for i, addr in enumerate(
            conflict_addresses(two_core_config, x, two_core_config.llc.assoc)
        ):
            h.load(1, addr, 8, (i + 1) * 1000)
        assert system.nvmm_media.read_word(x, 8) == 0x42
        # Exactly one media write: the ordered drain, not the writeback.
        bx = x & ~(two_core_config.block_size - 1)
        assert system.nvmm_media.write_counts[bx] == 1

    def test_conflict_drains_count_eviction_drain_throughs(self):
        """``bsp_conflict_drains`` counts every drain-through, not only
        those remote requests force: one thread has no remote requester
        and issues no flush, yet its LLC evictions drain through
        buffered blocks."""
        from repro.sim.config import SystemConfig
        from repro.workloads.base import WorkloadSpec, registry

        config = SystemConfig(num_cores=4).scaled_for_testing()
        spec = WorkloadSpec(threads=1, ops=60, elements=512, seed=11)
        workload = registry(config.mem, spec)["ctree"]
        system = build_system("bsp", config=config, entries=8)
        trace = workload.build()
        workload.seed_media(system.nvmm_media)
        stats = system.run(trace).stats
        assert stats.flushes == 0
        assert stats.llc_evictions > 0
        assert stats.bsp_conflict_drains > 0


class TestCrashSemantics:
    def test_crash_loses_buffered_stores(self, small_config):
        system = build_system("bsp", config=small_config,
                              options=crash_after(3))
        result = system.run(store_trace(small_config, 3))
        assert result.drain_report.total_units == 0
        check = check_exact_durability(system.nvmm_media, result.committed_persists)
        assert not check  # buffered stores died — unlike BBB

    @pytest.mark.parametrize("crash_at", [2, 5, 9, 14])
    def test_crash_state_is_always_a_program_order_prefix(
        self, small_config, crash_at
    ):
        """BSP's guarantee: whatever persisted is a per-core prefix."""
        system = build_system("bsp", config=small_config, entries=4,
                              options=crash_after(crash_at))
        trace = store_trace(small_config, 15)
        result = system.run(trace)
        check = check_prefix_consistency(
            system.nvmm_media, result.committed_persists
        )
        assert check, check.violations


class TestTraitsAndGap:
    def test_table1_row(self):
        traits = next(r for r in table1_rows() if r.name == "BSP")
        assert traits.hw_complexity == "High"
        assert traits.battery == "None"
        assert traits.pop_location == "Mem"

    def test_povpop_gap_is_nonzero(self, small_config):
        """Unlike BBB, BSP leaves the PoV/PoP gap open: persist latencies
        are strictly positive."""
        system = build_system("bsp", config=small_config, entries=4)
        system.run(store_trace(small_config, 12), finalize=True)
        assert system.stats.persist_latency_count > 0
        assert system.stats.persist_latency_avg > 0

    def test_bbb_gap_is_zero_for_comparison(self, small_config):
        system = build_system("bbb", config=small_config)
        system.run(store_trace(small_config, 12), finalize=True)
        assert system.stats.persist_latency_count == 12
        assert system.stats.persist_latency_avg == 0
