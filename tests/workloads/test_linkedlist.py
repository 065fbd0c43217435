"""Tests for the paper's Fig. 2/3 linked-list example
(repro.workloads.linkedlist)."""

import pytest

from repro.sim.config import SystemConfig
from repro.api import build_system
from repro.sim.trace import OpKind
from repro.workloads.base import WorkloadSpec
from repro.workloads.linkedlist import LinkedListAppend
from tests.conftest import conflict_addresses, crash_after
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp


@pytest.fixture
def cfg():
    return SystemConfig(num_cores=2).scaled_for_testing()


def make_workload(cfg, ops=20, isolate_blocks=False):
    return LinkedListAppend(
        cfg.mem, WorkloadSpec(threads=1, ops=ops), isolate_blocks=isolate_blocks
    )


class TestTraceShapes:
    def test_fig2_has_no_persist_instructions(self, cfg):
        trace = make_workload(cfg).build()
        kinds = {op.kind for t in trace.threads for op in t}
        assert OpKind.FLUSH not in kinds
        assert OpKind.FENCE not in kinds

    def test_fig3_inserts_flush_fence_pairs(self, cfg):
        workload = make_workload(cfg, ops=5)
        trace = workload.build_with_barriers()
        thread = trace.threads[0]
        assert thread.count(OpKind.FLUSH) == 3 * 5   # node(x2) + head per append
        assert thread.count(OpKind.FENCE) == 2 * 5   # two barriers per append

    def test_append_links_to_previous_head(self, cfg):
        workload = make_workload(cfg, ops=3)
        workload.build()
        nodes = list(workload.model_nodes.items())
        # First node's next is null, later nodes chain backwards.
        assert nodes[0][1][1] == 0
        assert nodes[1][1][1] == nodes[0][0]
        assert nodes[2][1][1] == nodes[1][0]


class TestRecoveryUnderClosedGapSchemes:
    @pytest.mark.parametrize("scheme", ["bbb", "eadr", "pmem"])
    def test_fig2_code_is_crash_safe_without_barriers(self, cfg, scheme):
        """The paper's headline: the *plain* Fig. 2 code is crash consistent
        under BBB (and eADR), with no flushes or fences."""
        workload = make_workload(cfg, ops=15)
        trace = workload.build()
        checker = workload.make_checker()
        for crash_at in range(1, trace.total_ops() + 1, 7):
            system = build_system(scheme, config=cfg,
                                  options=crash_after(crash_at))
            result = system.run(trace)
            ok, violations = checker(system, result)
            assert ok, (scheme, crash_at, violations)

    def test_fig3_code_is_crash_safe_under_pmem(self, cfg):
        """With the explicit barriers of Fig. 3, even ADR-only PMEM is
        safe at every crash point."""
        workload = make_workload(cfg, ops=10)
        trace = workload.build_with_barriers()
        checker = workload.make_checker()
        for crash_at in range(1, trace.total_ops() + 1, 5):
            # plain ADR, honours explicit flushes
            system = build_system("none", config=cfg,
                                  options=crash_after(crash_at))
            result = system.run(trace)
            ok, violations = checker(system, result)
            assert ok, (crash_at, violations)


class TestFailureWithoutBBB:
    def test_fig2_breaks_under_volatile_caches_with_eviction_pressure(self, cfg):
        """Section II-A's corruption, made concrete: evict the head-pointer
        block (persisting the head in replacement order) while the node
        initialisation is still cached, then crash.  Walking the durable
        list reaches an uninitialised node."""
        workload = make_workload(cfg, ops=4, isolate_blocks=True)
        base_trace = workload.build()
        checker = workload.make_checker()
        thread = list(base_trace.threads[0])
        # Append eviction pressure on the head slot's LLC set.
        for addr in conflict_addresses(cfg, workload.head_slot, cfg.llc.assoc):
            thread.append(TraceOp.load(addr))
        trace = ProgramTrace([ThreadTrace(thread)])

        violated = False
        for crash_at in range(len(thread) - cfg.llc.assoc, len(thread) + 1):
            system = build_system("none", config=cfg,
                                  options=crash_after(crash_at))
            result = system.run(trace)
            ok, violations = checker(system, result)
            if not ok:
                violated = True
                assert "new node will be lost" in violations[0]
                break
        assert violated, "expected replacement-order persistence to corrupt the list"

    def test_same_pressure_is_safe_under_bbb(self, cfg):
        workload = make_workload(cfg, ops=4, isolate_blocks=True)
        base_trace = workload.build()
        checker = workload.make_checker()
        thread = list(base_trace.threads[0])
        for addr in conflict_addresses(cfg, workload.head_slot, cfg.llc.assoc):
            thread.append(TraceOp.load(addr))
        trace = ProgramTrace([ThreadTrace(thread)])
        for crash_at in range(1, len(thread) + 1):
            system = build_system("bbb", config=cfg,
                                  options=crash_after(crash_at))
            result = system.run(trace)
            ok, violations = checker(system, result)
            assert ok, (crash_at, violations)
