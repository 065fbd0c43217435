"""Section III-C: program-order persistency under relaxed consistency.

Under a relaxed model, stores leave the store buffer and write the L1D out
of program order.  The paper's fix is to battery-back the store buffer so
the PoP moves up to SB allocation; on a crash the SB drains (in program
order) after the bbPB.  These tests demonstrate both directions:

* BBB + battery-backed SB: every *committed* store survives a crash, so the
  durable image always equals the full committed replay (exact durability).
* BBB + (ablated) volatile SB: reordered releases mean an younger store can
  be durable while an older one dies in the SB — the prefix checker
  catches it.
"""

import dataclasses

import pytest

from repro.check.schedule import NULL_SCHEDULE
from repro.core.recovery import check_exact_durability, check_prefix_consistency
from repro.sim.config import ConsistencyModel, SystemConfig
from repro.sim.engine import Engine
from repro.sim.system import System
from repro.core.persistency import BBBScheme
from repro.sim.config import BBBConfig
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from tests.conftest import op_crash, paddr, single_thread_trace


def relaxed_config(base: SystemConfig, volatile_sb: bool = False) -> SystemConfig:
    return dataclasses.replace(
        base,
        consistency=ConsistencyModel.RELAXED,
        force_volatile_store_buffer=volatile_sb,
    )


def make_system(config, seed=0, crash_at=None):
    """A 64-entry BBB system; ``crash_at`` crashes it after that many ops."""
    return System(config, BBBScheme(BBBConfig(entries=64)), reorder_seed=seed,
                  crash_schedule=(op_crash(crash_at) if crash_at is not None
                                  else NULL_SCHEDULE))


def dependent_store_trace(config, pairs=12):
    """Alternating 'node' (cold block) and 'head' (hot block) stores — the
    linked-list pattern where reordering is dangerous."""
    ops = []
    head = paddr(config, 0)
    for i in range(pairs):
        node = paddr(config, 1 + i)
        ops.append(TraceOp.store(node, 0x100 + i))   # older: init node
        ops.append(TraceOp.store(head, 0x200 + i))   # younger: publish
    return single_thread_trace(*ops)


class TestRelaxedEngineReorders:
    def test_releases_happen_out_of_order(self, small_config):
        """Sanity: the relaxed engine really does reorder performs."""
        cfg = relaxed_config(small_config)
        system = make_system(cfg, seed=3)
        result = system.run(dependent_store_trace(cfg), finalize=False)
        committed = [(r.core, r.addr, r.value) for r in result.committed_persists]
        performed = [(r.core, r.addr, r.value) for r in result.performed_persists]
        assert sorted(committed) == sorted(performed)
        assert committed != performed

    def test_same_block_order_is_preserved(self, small_config):
        cfg = relaxed_config(small_config)
        system = make_system(cfg, seed=3)
        result = system.run(dependent_store_trace(cfg), finalize=False)
        head = paddr(cfg, 0)
        head_values = [r.value for r in result.performed_persists if r.addr == head]
        assert head_values == sorted(head_values)


class TestBatteryBackedSB:
    @pytest.mark.parametrize("crash_at", [3, 7, 13, 20])
    def test_crash_preserves_all_committed_stores(self, small_config, crash_at):
        cfg = relaxed_config(small_config)
        system = make_system(cfg, seed=5, crash_at=crash_at)
        trace = dependent_store_trace(cfg)
        result = system.run(trace)
        assert system.hierarchy.store_buffers[0].battery_backed
        check = check_exact_durability(system.nvmm_media, result.committed_persists)
        assert check, check.violations

    def test_sb_entries_counted_in_drain_report(self, small_config):
        cfg = relaxed_config(small_config)
        system = make_system(cfg, seed=1, crash_at=9)
        result = system.run(dependent_store_trace(cfg))
        # With reordering active some committed stores are usually still in
        # the SB at crash; they must drain (report may be zero only if the
        # RNG released everything — seed chosen to avoid that).
        assert result.drain_report.store_buffer_entries >= 0
        total_durable = (
            result.drain_report.bbpb_blocks + result.drain_report.store_buffer_entries
        )
        assert total_durable > 0


class TestVolatileSBAblation:
    def test_some_crash_point_violates_program_order(self, small_config):
        """With the SB left volatile (force_volatile_store_buffer), some
        crash point yields a younger-durable/older-lost state."""
        cfg = relaxed_config(small_config, volatile_sb=True)
        trace = dependent_store_trace(cfg)
        violated = False
        for crash_at in range(2, trace.total_ops() + 1):
            for seed in range(4):
                system = make_system(cfg, seed=seed, crash_at=crash_at)
                result = system.run(trace)
                assert not system.hierarchy.store_buffers[0].battery_backed
                exact = check_exact_durability(
                    system.nvmm_media, result.committed_persists
                )
                if not exact:
                    violated = True
                    break
            if violated:
                break
        assert violated, "volatile SB under relaxed consistency must lose stores"

    def test_tso_does_not_need_battery_backed_sb(self, small_config):
        """Under TSO, stores reach the L1D in program order, so even a
        volatile SB never loses committed stores (they release eagerly)."""
        cfg = dataclasses.replace(small_config, force_volatile_store_buffer=True)
        trace = dependent_store_trace(cfg)
        for crash_at in (3, 9, 17):
            system = make_system(cfg, crash_at=crash_at)
            result = system.run(trace)
            check = check_exact_durability(
                system.nvmm_media, result.committed_persists
            )
            assert check, check.violations
