"""Unit tests for statistics (repro.sim.stats)."""

import pytest

from repro.sim.stats import (
    CORE_FIELDS,
    SCALAR_FIELDS,
    STATS_SCHEMA,
    CoreStats,
    SimStats,
)


class TestCoreStats:
    def test_hit_rate(self):
        cs = CoreStats(l1_hits=3, l1_misses=1)
        assert cs.l1_hit_rate == 0.75

    def test_hit_rate_no_accesses(self):
        assert CoreStats().l1_hit_rate == 0.0


class TestSimStats:
    def test_per_core_list_created(self):
        stats = SimStats(num_cores=4)
        assert len(stats.core) == 4

    def test_execution_cycles_is_max(self):
        stats = SimStats(num_cores=2)
        stats.core[0].cycles = 100
        stats.core[1].cycles = 250
        assert stats.execution_cycles == 250

    def test_totals_aggregate_cores(self):
        stats = SimStats(num_cores=2)
        stats.core[0].stores = 3
        stats.core[0].persisting_stores = 1
        stats.core[1].stores = 5
        stats.core[1].persisting_stores = 2
        assert stats.total_stores == 8
        assert stats.total_persisting_stores == 3
        assert stats.persist_store_fraction == 3 / 8

    def test_fraction_with_no_stores(self):
        assert SimStats(num_cores=1).persist_store_fraction == 0.0

    def test_bbpb_stall_total(self):
        stats = SimStats(num_cores=2)
        stats.core[0].stall_cycles_bbpb_full = 10
        stats.core[1].stall_cycles_bbpb_full = 5
        assert stats.total_bbpb_stalls == 15

    def test_summary_contains_headline_metrics(self):
        stats = SimStats(num_cores=1)
        summary = stats.summary()
        for key in ("execution_cycles", "nvmm_writes", "bbpb_rejections",
                    "bbpb_drains", "p_store_fraction"):
            assert key in summary

    def test_str_renders(self):
        assert "SimStats" in str(SimStats(num_cores=1))


def _populated_stats() -> SimStats:
    stats = SimStats(num_cores=2)
    stats.core[0].stores = 3
    stats.core[0].cycles = 120
    stats.core[1].loads = 7
    stats.core[1].cycles = 90
    stats.nvmm_writes = 11
    stats.bbpb_drains = 4
    stats.bbpb_per_core[0] = 3
    stats.bbpb_per_core[1] = 1
    stats.record_persist_latency(10)
    stats.record_persist_latency(30)
    return stats


class TestSerialisation:
    def test_to_dict_structure(self):
        d = _populated_stats().to_dict()
        assert d["schema"] == STATS_SCHEMA == "repro.simstats/v1"
        assert d["num_cores"] == 2
        assert set(d["totals"]) == set(SCALAR_FIELDS)
        assert len(d["cores"]) == 2
        assert set(d["cores"][0]) == set(CORE_FIELDS)
        assert d["totals"]["nvmm_writes"] == 11
        assert d["cores"][0]["stores"] == 3
        assert d["bbpb_per_core"] == {"0": 3, "1": 1}
        assert d["derived"]["execution_cycles"] == 120

    def test_from_dict_roundtrips_losslessly(self):
        stats = _populated_stats()
        restored = SimStats.from_dict(stats.to_dict())
        assert restored.to_dict() == stats.to_dict()
        assert restored.nvmm_writes == 11
        assert restored.bbpb_per_core == stats.bbpb_per_core
        assert restored.persist_latency_avg == 20.0

    def test_to_json_is_the_same_schema(self):
        import json

        d = json.loads(_populated_stats().to_json())
        assert d["schema"] == STATS_SCHEMA
        assert SimStats.from_dict(d).execution_cycles == 120

    def test_from_dict_rejects_wrong_schema(self):
        payload = _populated_stats().to_dict()
        payload["schema"] = "repro.simstats/v0"
        with pytest.raises(ValueError, match="unsupported stats schema"):
            SimStats.from_dict(payload)

    def test_persist_latency_accumulation(self):
        stats = SimStats(num_cores=1)
        assert stats.persist_latency_avg == 0.0
        stats.record_persist_latency(5)
        stats.record_persist_latency(-3)  # clamped to 0
        assert stats.persist_latency_count == 2
        assert stats.persist_latency_avg == 2.5
        assert stats.persist_latency_max == 5
