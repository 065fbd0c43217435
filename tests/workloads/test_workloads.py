"""Tests for the Table IV workload suite (repro.workloads)."""

import pytest

from repro.sim.config import SystemConfig
from repro.api import build_system
from repro.sim.trace import OpKind
from repro.workloads.base import WORKLOAD_NAMES, WorkloadSpec, registry
from tests.conftest import crash_after


@pytest.fixture
def cfg():
    return SystemConfig(num_cores=4).scaled_for_testing()


@pytest.fixture
def spec():
    return WorkloadSpec(threads=4, ops=40, elements=1024, seed=7)


class TestRegistry:
    def test_all_table4_workloads_present(self, cfg, spec):
        assert set(registry(cfg.mem, spec)) == set(WORKLOAD_NAMES)

    def test_names_match_keys(self, cfg, spec):
        for key, workload in registry(cfg.mem, spec).items():
            assert workload.name == key


class TestTraceGeneration:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_builds_one_thread_per_spec_thread(self, cfg, spec, name):
        trace = registry(cfg.mem, spec)[name].build()
        assert trace.num_threads == spec.threads

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_generates_persisting_stores(self, cfg, spec, name):
        workload = registry(cfg.mem, spec)[name]
        trace = workload.build()
        assert workload.p_store_fraction(trace) > 0

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_deterministic_for_seed(self, cfg, spec, name):
        t1 = registry(cfg.mem, spec)[name].build()
        t2 = registry(cfg.mem, spec)[name].build()
        ops1 = [(o.kind, o.addr, o.value) for t in t1.threads for o in t]
        ops2 = [(o.kind, o.addr, o.value) for t in t2.threads for o in t]
        assert ops1 == ops2

    @pytest.mark.parametrize(
        "name,paper_pct,tolerance",
        [
            ("rtree", 15.5, 8.0),
            ("ctree", 18.9, 8.0),
            ("hashmap", 6.0, 3.0),
            ("mutateNC", 23.8, 6.0),
            ("mutateC", 23.8, 6.0),
            ("swapNC", 23.8, 6.0),
            ("swapC", 23.8, 6.0),
        ],
    )
    def test_p_store_fraction_near_paper(self, cfg, spec, name, paper_pct, tolerance):
        """Measured %P-Stores should land near Table IV's figures."""
        workload = registry(cfg.mem, spec)[name]
        measured = workload.p_store_fraction(workload.build()) * 100
        assert abs(measured - paper_pct) <= tolerance, (
            f"{name}: measured {measured:.1f}% vs paper {paper_pct}%"
        )


class TestConflictStructure:
    def test_nc_threads_touch_disjoint_regions(self, cfg, spec):
        workload = registry(cfg.mem, spec)["mutateNC"]
        trace = workload.build()
        footprints = []
        for thread in trace.threads:
            addrs = {
                op.addr
                for op in thread
                if op.kind is OpKind.STORE and cfg.mem.is_persistent(op.addr)
            }
            footprints.append(addrs)
        for i in range(len(footprints)):
            for j in range(i + 1, len(footprints)):
                assert not (footprints[i] & footprints[j])

    def test_conflicting_threads_overlap(self, cfg):
        spec = WorkloadSpec(threads=4, ops=200, elements=64, seed=7)
        workload = registry(cfg.mem, spec)["mutateC"]
        trace = workload.build()
        blocks = []
        for thread in trace.threads:
            blocks.append(
                {
                    op.addr & ~63
                    for op in thread
                    if op.kind is OpKind.STORE and cfg.mem.is_persistent(op.addr)
                }
            )
        assert blocks[0] & blocks[1]


class TestMediaSeeding:
    def test_prepopulated_workloads_declare_initial_state(self, cfg, spec):
        reg = registry(cfg.mem, spec)
        assert reg["ctree"].initial_words      # prepopulated BSTs
        assert reg["rtree"].initial_words      # skeleton tree
        assert not reg["mutateNC"].initial_words  # arrays start zeroed

    def test_seed_media_installs_words(self, cfg, spec):
        workload = registry(cfg.mem, spec)["ctree"]
        system = build_system("bbb", config=cfg)
        count = workload.seed_media(system.nvmm_media)
        assert count == len(workload.initial_words)
        addr, value = next(iter(workload.initial_words.items()))
        assert system.nvmm_media.read_word(addr, 8) == value

    def test_seed_media_does_not_count_as_window_writes(self, cfg, spec):
        workload = registry(cfg.mem, spec)["ctree"]
        system = build_system("bbb", config=cfg)
        workload.seed_media(system.nvmm_media)
        assert system.nvmm_media.total_writes == 0
        assert system.stats.nvmm_writes == 0

    def test_ctree_checker_sees_prepopulated_tree(self, cfg):
        """With seeded media the durable tree is non-trivial even before
        any in-trace insert persists."""
        spec = WorkloadSpec(threads=2, ops=5, elements=512, seed=3)
        workload = registry(cfg.mem, spec)["ctree"]
        trace = workload.build()
        checker = workload.make_checker()
        system = build_system("bbb", config=cfg, entries=64,
                              options=crash_after(1))
        workload.seed_media(system.nvmm_media)
        result = system.run(trace)
        ok, violations = checker(system, result)
        assert ok, violations
        # The prepopulated root itself is durable and walkable.
        assert system.nvmm_media.read_word(workload.root_slots[0], 8) != 0


class TestRecoveryCheckers:
    @pytest.mark.parametrize("name", ["hashmap", "ctree", "rtree"])
    def test_checker_passes_on_complete_bbb_run(self, cfg, name):
        spec = WorkloadSpec(threads=2, ops=30, elements=512, seed=3)
        workload = registry(cfg.mem, spec)[name]
        trace = workload.build()
        checker = workload.make_checker()
        system = build_system("bbb", config=cfg, entries=64)
        workload.seed_media(system.nvmm_media)
        result = system.run(trace)  # finalize drains everything
        ok, violations = checker(system, result)
        assert ok, violations

    @pytest.mark.parametrize("name", ["hashmap", "ctree", "rtree"])
    def test_checker_passes_on_bbb_crash(self, cfg, name):
        spec = WorkloadSpec(threads=2, ops=20, elements=512, seed=3)
        workload = registry(cfg.mem, spec)[name]
        trace = workload.build()
        checker = workload.make_checker()
        for crash_at in (5, trace.total_ops() // 2, trace.total_ops() - 1):
            system = build_system("bbb", config=cfg, entries=64,
                                  options=crash_after(crash_at))
            workload.seed_media(system.nvmm_media)
            result = system.run(trace)
            ok, violations = checker(system, result)
            assert ok, (crash_at, violations)

    def test_array_workloads_have_no_structural_checker(self, cfg, spec):
        assert registry(cfg.mem, spec)["mutateNC"].make_checker() is None


class TestSimulationSmoke:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_runs_to_completion_under_bbb(self, cfg, name):
        spec = WorkloadSpec(threads=4, ops=15, elements=256, seed=1)
        workload = registry(cfg.mem, spec)[name]
        system = build_system("bbb", config=cfg)
        result = system.run(workload.build())
        assert result.stats.total_persisting_stores > 0
        assert result.execution_cycles > 0


class TestConflictingWorkloadCoherence:
    def test_conflicting_workloads_move_blocks_between_bbpbs(self, cfg):
        """mutateC's cross-thread conflicts exercise the Fig. 6(a)/(b)
        move-without-drain path; the NC variant does not."""
        spec = WorkloadSpec(threads=4, ops=120, elements=64, seed=5)
        conflicting = registry(cfg.mem, spec)["mutateC"]
        system_c = build_system("bbb", config=cfg)
        system_c.run(conflicting.build(), finalize=False)
        assert system_c.stats.bbpb_moves > 0

        non_conflicting = registry(cfg.mem, spec)["mutateNC"]
        system_nc = build_system("bbb", config=cfg)
        system_nc.run(non_conflicting.build(), finalize=False)
        assert system_nc.stats.bbpb_moves == 0

    def test_invariants_hold_under_conflicts(self, cfg):
        from repro.core.invariants import check_all

        spec = WorkloadSpec(threads=4, ops=80, elements=64, seed=5)
        workload = registry(cfg.mem, spec)["swapC"]
        system = build_system("bbb", config=cfg)
        system.run(workload.build(), finalize=False)
        check_all(system)

    def test_eviction_pressure_triggers_forced_drains_and_drops(self, cfg):
        spec = WorkloadSpec(threads=4, ops=200, elements=8192, seed=5)
        workload = registry(cfg.mem, spec)["mutateNC"]
        system = build_system("bbb", config=cfg, entries=1024)  # big buffer: blocks stay resident
        system.run(workload.build(), finalize=False)
        assert system.stats.bbpb_forced_drains > 0
        assert system.stats.llc_writebacks_dropped > 0
