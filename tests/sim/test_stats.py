"""Unit tests for statistics (repro.sim.stats)."""

from repro.sim.stats import (
    CORE_FIELDS,
    SCALAR_FIELDS,
    STATS_SCHEMA,
    SimStats,
)


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

    def test_to_json_is_the_same_schema(self):
        import json

        stats = _populated_stats()
        d = json.loads(stats.to_json())
        assert d["schema"] == STATS_SCHEMA
        assert d == stats.to_dict()

    def test_persist_latency_accumulation(self):
        stats = SimStats(num_cores=1)
        assert stats.persist_latency_avg == 0.0
        stats.record_persist_latency(5)
        stats.record_persist_latency(-3)  # clamped to 0
        assert stats.persist_latency_count == 2
        assert stats.persist_latency_avg == 2.5
        assert stats.persist_latency_max == 5
