"""Unit tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_monotonic(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)


class TestGauge:
    def test_tracks_min_max(self):
        g = Gauge("x")
        for v in (3, 9, 1):
            g.set(v)
        assert (g.value, g.min_value, g.max_value) == (1, 1, 9)


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("lat", buckets=(10, 100))
        for v in (5, 50, 500):
            h.observe(v)
        assert h.counts == [1, 1, 1]  # <=10, <=100, overflow
        assert h.count == 3
        assert h.sum == 555
        assert h.min == 5 and h.max == 500
        assert h.mean == 185.0

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=(100, 10))

    def test_to_dict(self):
        h = Histogram("x", buckets=(1,))
        h.observe(1)
        d = h.to_dict()
        assert d["kind"] == "histogram"
        assert d["buckets"] == {"1": 1}
        assert d["overflow"] == 0


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_family_children_by_label(self):
        reg = MetricsRegistry()
        fam = reg.counter_family("core_loads", label="core")
        fam.labels(0).inc(2)
        fam.labels(1).inc(3)
        assert fam.labels(0).value == 2
        assert dict(fam.items())[1].value == 3

    def test_introspection_and_dump(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge_family("b", label="ch").labels(0).set(7)
        assert reg.names() == ["a", "b"]
        assert "a" in reg and len(reg) == 2
        dump = reg.to_dict()
        assert dump["a"]["value"] == 1
        assert dump["b"]["children"]["0"]["value"] == 7


class TestRunRegistry:
    def _run(self, mode):
        from repro.analysis.experiments import default_sim_config
        from repro.api import RunOptions, build_system
        from repro.core.registry import iter_schemes
        from repro.workloads.base import (WorkloadSpec, build_cached,
                                          seed_media_words)

        cfg = default_sim_config()
        trace, words = build_cached(
            "hashmap", cfg.mem, WorkloadSpec(threads=2, ops=20,
                                             elements=512, seed=2))
        scheme = next(i for i in iter_schemes() if i.has_persist_buffer)
        system = build_system(scheme.name, config=cfg, entries=8,
                              options=RunOptions(mode=mode))
        seed_media_words(system.nvmm_media, words)
        system.run(trace, finalize=False)
        return system

    def test_projects_run_stats(self):
        from repro.obs import run_registry

        system = self._run("sim")
        reg = run_registry(system)
        assert reg.get("nvmm_writes").value == system.stats.nvmm_writes
        assert not any(name.startswith("analytical.") for name in reg.names())

    def test_analytical_runs_add_model_gauges(self):
        from repro.obs import run_registry

        system = self._run("analytical")
        reg = run_registry(system)
        assert "analytical.occupancy" in reg
        assert "analytical.drains" in reg
