"""Tests for the crash-consistency model checker (repro.check.checker)."""

from dataclasses import replace

import pytest

from repro.analysis.experiments import default_sim_config
from repro.api import RunOptions, build_system
from repro.check.checker import (
    CHECK_SCHEMA,
    CheckUnit,
    build_report,
    count_micro_points,
    diff_golden,
    durable_fingerprint,
    explore,
    golden_expected,
    run_check_unit,
)
from repro.check.mutants import MUTANTS
from repro.check.schedule import CrashSchedule, SITE_OP, SITE_POV
from repro.core.persistency import BBBScheme, ResidueBlock
from repro.mem.block import BlockData
from repro.workloads.base import WorkloadSpec
from tests.conftest import paddr, single_thread_trace
from repro.sim.trace import TraceOp

#: Small enough for exhaustive exploration in well under a second.
TINY = WorkloadSpec(threads=2, ops=3, elements=64, seed=11)
#: A seeded-heap workload at this size stays well under a second even
#: unpruned, where every point rehashes the whole seeded image.
TINY_SEEDED = WorkloadSpec(threads=2, ops=2, elements=64, seed=11)


class _StrayBBB(BBBScheme):
    """BBB that also makes bytes durable that no persist claims: one
    block written straight to the media at each persisting store, and one
    in its battery residue, both at the top of the NVMM range."""

    #: Distance below the NVMM limit of the media and the residue stray.
    STRAYS = (64, 128)

    def on_persisting_store(self, core, block_addr, block_data, now):
        h = self.hierarchy
        h.nvmm.media.write_block(h.config.mem.nvmm_limit - self.STRAYS[0],
                                 BlockData({0: 0xEE}))
        return super().on_persisting_store(core, block_addr, block_data, now)

    def battery_residue(self):
        stray = self.hierarchy.config.mem.nvmm_limit - self.STRAYS[1]
        return super().battery_residue() + [
            ResidueBlock(False, -1, stray, BlockData({0: 0xDD}))]


class TestEngineIntegration:
    """The schedule hooks must fire inside a real run and leave a crashed,
    recoverable system behind."""

    def test_crash_point_recorded_on_result(self, small_config):
        ops = [TraceOp.store(paddr(small_config, i), i + 1) for i in range(4)]
        trace = single_thread_trace(*ops)
        schedule = CrashSchedule(stop_at=2)
        system = build_system("bbb", config=small_config,
                              options=RunOptions(crash_schedule=schedule))
        result = system.run(trace)
        assert result.crashed
        assert result.crash_point is not None
        assert result.crash_point.index == 2

    def test_disabled_schedule_changes_nothing(self, small_config):
        ops = [TraceOp.store(paddr(small_config, i), i + 1) for i in range(4)]
        trace = single_thread_trace(*ops)
        plain = build_system("bbb", config=small_config).run(trace)
        counted = CrashSchedule(stop_at=None)
        hooked = build_system("bbb", config=small_config,
                              options=RunOptions(crash_schedule=counted)).run(trace)
        assert not hooked.crashed
        assert plain.stats.nvmm_writes == hooked.stats.nvmm_writes
        assert counted.visits > 0

    def test_pov_crash_keeps_bbb_exact(self, small_config):
        """Crash in the PoV window: the in-flight store sits in the
        battery-backed SB, every earlier store in a bbPB — nothing
        committed may be lost."""
        from repro.core.recovery import check_exact_durability

        ops = [TraceOp.store(paddr(small_config, i), i + 1) for i in range(4)]
        trace = single_thread_trace(*ops)
        schedule = CrashSchedule(stop_at=3, sites=(SITE_POV,))
        system = build_system("bbb", config=small_config,
                              options=RunOptions(crash_schedule=schedule))
        result = system.run(trace)
        assert result.crashed
        check = check_exact_durability(
            system.nvmm_media, result.committed_persists
        )
        assert check.consistent, check.violations


class TestCounting:
    def test_counting_is_deterministic(self):
        unit = CheckUnit(scheme="bbb", spec=TINY)
        a = count_micro_points(unit)
        b = count_micro_points(unit)
        assert a == b
        assert a[0] == sum(a[1].values())

    def test_site_filter_shrinks_the_space(self):
        full, _ = count_micro_points(CheckUnit(scheme="bbb", spec=TINY))
        ops_only, sites = count_micro_points(
            CheckUnit(scheme="bbb", spec=TINY, sites=(SITE_OP,))
        )
        assert ops_only < full
        assert set(sites) == {SITE_OP}


class TestOracles:
    def test_golden_expected_overlays_persists_on_seeds(self):
        recs = [type("R", (), {"addr": 64, "value": 0xAB, "size": 1})()]
        image = golden_expected({0: 0x11}, recs)
        assert image[0].read(0) == 0x11
        assert image[64].read(0) == 0xAB

    def test_diff_golden_catches_lost_and_extra_bytes(self, small_config):
        media = build_system("bbb", config=small_config).nvmm_media
        base = small_config.mem.persistent_base
        data = BlockData()
        data.write_word(0, 0x1234, 8)
        media.write_block(base, data)
        # lost byte: golden expects a second block the media never got
        expected = {
            base: data.copy(),
            base + 64: BlockData({0: 0x99}),
        }
        v = diff_golden(media, expected, small_config.mem.is_persistent)
        assert any("golden mismatch" in s for s in v)
        # extra byte: media holds a block golden never claimed
        v2 = diff_golden(media, {}, small_config.mem.is_persistent)
        assert v2

    def test_fingerprint_is_pure(self, small_config):
        sys_a = build_system("bbb", config=small_config)
        sys_b = build_system("bbb", config=small_config)
        for s in (sys_a, sys_b):
            data = BlockData()
            data.write_word(0, 7, 8)
            s.nvmm_media.write_block(small_config.mem.persistent_base, data)
        assert durable_fingerprint("bbb", sys_a.nvmm_media, [], []) == \
            durable_fingerprint("bbb", sys_b.nvmm_media, [], [])
        assert durable_fingerprint("bbb", sys_a.nvmm_media, [], []) != \
            durable_fingerprint("eadr", sys_b.nvmm_media, [], [])


class TestExplore:
    def test_bbb_exhaustive_is_violation_free(self):
        verdicts, total, _ = explore(CheckUnit(scheme="bbb", spec=TINY))
        assert len(verdicts) == total > 0
        bad = [v for v in verdicts if not v.consistent]
        assert not bad, bad[:3]

    def test_pruned_and_unpruned_verdicts_agree(self):
        """The unpruned run fingerprints and judges every point from
        scratch, so it is the reference for the pruned run's memoized
        fingerprints and incremental golden image.  ctree seeds its heap
        into the media; the mutants put violation text in the diff."""
        for workload, scheme, mutant in (
            ("hashmap", "bbb", None),
            ("ctree", "bbb", None),
            ("ctree", "bbb", "bbb-delayed-alloc"),
            ("ctree", "eadr", "eadr-skip-l1"),
        ):
            unit = CheckUnit(scheme=scheme, workload=workload, mutant=mutant,
                             spec=TINY_SEEDED if workload == "ctree" else TINY)
            pruned, _, _ = explore(unit)
            plain, _, _ = explore(replace(unit, prune=False))
            assert [v._replace(pruned=False) for v in pruned] == plain
            assert any(v.pruned for v in pruned)
            assert not any(v.pruned for v in plain)
            assert (mutant is None) == all(v.consistent for v in plain)

    def test_pruned_run_sees_unclaimed_durable_bytes(self, monkeypatch):
        """Bytes durable but never claimed, written to the media or left in
        the battery residue, fail the golden diff on the pruned path as on
        the reference path, even outside every claimed block."""
        monkeypatch.setitem(MUTANTS, "bbb-stray", ("bbb", _StrayBBB))
        unit = CheckUnit(scheme="bbb", workload="ctree", mutant="bbb-stray",
                         spec=TINY_SEEDED)
        pruned, _, _ = explore(unit)
        plain, _, _ = explore(replace(unit, prune=False))
        assert [v._replace(pruned=False) for v in pruned] == plain
        limit = default_sim_config().mem.nvmm_limit
        seen = " ".join(s for v in plain for s in v.violations)
        for stray in _StrayBBB.STRAYS:
            assert f"golden mismatch at 0x{limit - stray:x}" in seen

    def test_mutant_is_caught(self):
        unit = CheckUnit(scheme="bbb", mutant="bbb-delayed-alloc", spec=TINY)
        verdicts, _, _ = explore(unit)
        assert any(not v.consistent for v in verdicts)

    def test_max_points_samples_deterministically(self):
        unit = CheckUnit(scheme="bbb", spec=TINY, max_points=10, sample_seed=3)
        a, total, _ = explore(unit)
        b, _, _ = explore(unit)
        assert [v.point for v in a] == [v.point for v in b]
        assert len(a) == 10 < total


class TestReport:
    def test_report_shape_and_accounting(self):
        unit = CheckUnit(scheme="bbb", spec=TINY)
        report, verdicts = run_check_unit(unit, jobs=1)
        assert report["schema"] == CHECK_SCHEMA
        assert report["contract"] == "exact"
        assert report["checked_points"] == len(verdicts) == report["total_points"]
        assert report["explored"] + report["pruned"] == report["checked_points"]
        assert report["unique_states"] <= report["checked_points"]
        assert report["consistent"] and report["num_violations"] == 0

    def test_unknown_mutant_raises(self):
        from repro.check.mutants import build_mutant_system

        with pytest.raises(ValueError):
            build_mutant_system("no-such-mutant")
