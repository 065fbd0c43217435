"""Unit tests for configuration dataclasses (repro.sim.config)."""

import dataclasses

import pytest

from repro.sim.config import (
    BBBConfig,
    CacheConfig,
    ConsistencyModel,
    DrainPolicy,
    MemConfig,
    SystemConfig,
    TABLE_III_CONFIG,
)


class TestCacheConfig:
    def test_derived_geometry(self):
        cfg = CacheConfig(128 << 10, 8, 64)
        assert cfg.num_sets == 256
        assert cfg.num_blocks == 2048

    def test_rejects_unbalanced_size(self):
        with pytest.raises(ValueError):
            CacheConfig(100, 3, 64)


class TestMemConfig:
    def test_address_map_layout(self):
        mem = MemConfig(dram_bytes=1 << 20, nvmm_bytes=1 << 20, persistent_bytes=1 << 19)
        assert mem.nvmm_base == 1 << 20
        assert mem.nvmm_limit == 2 << 20
        assert mem.persistent_base == (2 << 20) - (1 << 19)

    def test_region_predicates(self):
        mem = MemConfig(dram_bytes=1 << 20, nvmm_bytes=1 << 20, persistent_bytes=1 << 19)
        assert not mem.is_nvmm(0)
        assert mem.is_nvmm(mem.nvmm_base)
        assert not mem.is_nvmm(mem.nvmm_limit)
        assert not mem.is_persistent(mem.nvmm_base)   # non-persistent NVMM
        assert mem.is_persistent(mem.persistent_base)

    def test_persistent_larger_than_nvmm_rejected(self):
        with pytest.raises(ValueError):
            MemConfig(nvmm_bytes=1 << 20, persistent_bytes=1 << 21)


class TestBBBConfig:
    def test_defaults_match_table3(self):
        cfg = BBBConfig()
        assert cfg.entries == 32
        assert cfg.drain_threshold == 0.75
        assert cfg.threshold_entries == 24
        assert cfg.memory_side
        assert cfg.drain_policy is DrainPolicy.FCFS_THRESHOLD


class TestSystemConfig:
    def test_table3_defaults(self):
        cfg = TABLE_III_CONFIG
        assert cfg.num_cores == 8
        assert cfg.l1d.size_bytes == 128 << 10
        assert cfg.l1d.hit_latency == 2
        assert cfg.llc.size_bytes == 1 << 20
        assert cfg.llc.hit_latency == 11
        assert cfg.mem.nvmm_read_cycles == 300   # 150 ns @ 2 GHz
        assert cfg.mem.dram_read_cycles == 110   # 55 ns
        assert BBBConfig().entries == 32

    def test_block_size_consistency_enforced(self):
        with pytest.raises(ValueError):
            SystemConfig(
                l1d=CacheConfig(1024, 2, 64),
                llc=CacheConfig(4096, 4, 128),
            )
        # The NVMM media and the crash oracles hold 64 B blocks only.
        for size in (32, 128):
            with pytest.raises(ValueError, match=f"{size} B .* 64 B"):
                SystemConfig(
                    l1d=CacheConfig(4096, 2, size),
                    llc=CacheConfig(16384, 4, size),
                )

    def test_scaled_for_testing_shrinks(self):
        cfg = SystemConfig().scaled_for_testing()
        assert cfg.l1d.size_bytes < (128 << 10)
        assert cfg.mem.persistent_bytes < (4 << 30)
        assert cfg.num_cores == 8  # untouched

    def test_needs_at_least_one_core(self):
        with pytest.raises(ValueError):
            SystemConfig(num_cores=0)

    def test_consistency_default_is_tso(self):
        assert SystemConfig().consistency is ConsistencyModel.TSO
