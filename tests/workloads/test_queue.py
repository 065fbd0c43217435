"""Tests for the persistent FIFO queue workload (repro.workloads.queue)."""

import pytest

from repro.sim.config import SystemConfig
from repro.api import build_system
from repro.sim.trace import OpKind, ProgramTrace, ThreadTrace, TraceOp
from repro.workloads.base import WorkloadSpec
from repro.workloads.queue import QueueAppend
from tests.conftest import conflict_addresses, crash_after


@pytest.fixture
def cfg():
    return SystemConfig(num_cores=2).scaled_for_testing()


def make(cfg, threads=2, ops=20):
    return QueueAppend(cfg.mem, WorkloadSpec(threads=threads, ops=ops))


class TestTraceShape:
    def test_payload_before_publish(self, cfg):
        workload = make(cfg, threads=1, ops=3)
        trace = workload.build()
        tags = [op.tag for op in trace.threads[0] if op.tag]
        assert tags[:3] == ["seq:0:0", "payload:0:0", "tail:0:0"]

    def test_per_thread_rings_disjoint(self, cfg):
        workload = make(cfg)
        addrs = set()
        for tail, ring in workload.rings:
            assert tail not in addrs
            addrs.add(tail)
            assert ring not in addrs
            addrs.add(ring)

    def test_tail_seeded_to_zero(self, cfg):
        workload = make(cfg)
        for tail, _ in workload.rings:
            assert workload.initial_words[tail] == 0


class TestRecovery:
    @pytest.mark.parametrize("scheme", ["bbb", "eadr", "pmem"])
    def test_crash_sweep_consistent_under_strict_schemes(self, cfg, scheme):
        workload = make(cfg, threads=2, ops=12)
        trace = workload.build()
        checker = workload.make_checker()
        for crash_at in range(1, trace.total_ops() + 1, 9):
            system = build_system(scheme, config=cfg,
                                  options=crash_after(crash_at))
            workload.seed_media(system.nvmm_media)
            result = system.run(trace)
            ok, violations = checker(system, result)
            assert ok, (scheme, crash_at, violations)

    def test_bsp_also_consistent(self, cfg):
        """BSP persists in program order (lazily): the tail never persists
        ahead of its payload."""
        workload = make(cfg, threads=1, ops=10)
        trace = workload.build()
        checker = workload.make_checker()
        for crash_at in range(1, trace.total_ops() + 1, 5):
            system = build_system("bsp", config=cfg,
                                  options=crash_after(crash_at))
            workload.seed_media(system.nvmm_media)
            result = system.run(trace)
            ok, violations = checker(system, result)
            assert ok, (crash_at, violations)

    def test_torn_publish_under_volatile_caches(self, cfg):
        """Evict the tail block mid-stream while payload slots stay cached:
        the durable tail points past torn records."""
        workload = make(cfg, threads=1, ops=4)
        base_trace = workload.build()
        checker = workload.make_checker()
        tail_slot, _ = workload.rings[0]
        ops = list(base_trace.threads[0])
        for addr in conflict_addresses(cfg, tail_slot, cfg.llc.assoc):
            ops.append(TraceOp.load(addr))
        trace = ProgramTrace([ThreadTrace(ops)])
        torn = False
        for crash_at in range(1, len(ops) + 1):
            system = build_system("none", config=cfg,
                                  options=crash_after(crash_at))
            workload.seed_media(system.nvmm_media)
            result = system.run(trace)
            ok, violations = checker(system, result)
            if not ok:
                torn = True
                assert "torn" in violations[0]
                break
        assert torn


class TestFullRun:
    def test_complete_run_checker_passes(self, cfg):
        workload = make(cfg)
        trace = workload.build()
        checker = workload.make_checker()
        system = build_system("bbb", config=cfg)
        workload.seed_media(system.nvmm_media)
        result = system.run(trace)
        ok, violations = checker(system, result)
        assert ok, violations
        # Every tail reached the final count.
        for thread_id, (tail_slot, _) in enumerate(workload.rings):
            assert system.nvmm_media.read_word(tail_slot) == workload.spec.ops
