"""Property tests: protocol bookkeeping stays consistent under random
programs (repro.mem.audit)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.audit import (
    HierarchyAuditError,
    audit_hierarchy,
    check_directory_agreement,
    check_llc_inclusion,
    check_resident_frames_valid,
    check_single_writer,
)
from repro.mem.block import CacheBlock, I, M
from repro.sim.config import SystemConfig
from repro.api import build_system
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp

CFG = SystemConfig(num_cores=4).scaled_for_testing()

op_strategy = st.tuples(
    st.sampled_from(["load", "store"]),
    st.booleans(),
    st.integers(min_value=0, max_value=31),
    st.sampled_from([0, 8, 24, 56]),
    st.integers(min_value=1, max_value=1 << 32),
)


def to_op(kind, persistent, block, offset, value):
    base = CFG.mem.persistent_base if persistent else 4096
    addr = base + block * 64 + offset
    return TraceOp.load(addr) if kind == "load" else TraceOp.store(addr, value)


programs = st.lists(
    st.lists(op_strategy, min_size=1, max_size=50), min_size=1, max_size=4
)


@settings(max_examples=50, deadline=None)
@given(programs, st.sampled_from(["bbb", "eadr", "none", "bsp"]))
def test_hierarchy_consistent_after_random_programs(threads, scheme_name):
    system = build_system(scheme_name, config=CFG)
    trace = ProgramTrace(
        [ThreadTrace([to_op(*op) for op in ops]) for ops in threads]
    )
    system.run(trace, finalize=False)
    audit_hierarchy(system.hierarchy)


@settings(max_examples=25, deadline=None)
@given(programs, st.integers(min_value=1, max_value=120))
def test_hierarchy_consistent_mid_program(threads, prefix):
    """Audit after an arbitrary truncated prefix of the program."""
    system = build_system("bbb", config=CFG)
    cut = []
    remaining = prefix
    for ops in threads:
        take = min(len(ops), remaining)
        cut.append(ThreadTrace([to_op(*op) for op in ops[:take]]))
        remaining -= take
    system.run(ProgramTrace(cut), finalize=False)
    audit_hierarchy(system.hierarchy)


class TestAuditorsCatchSeededBugs:
    def _system(self):
        system = build_system("none", config=CFG)
        h = system.hierarchy
        x = CFG.mem.persistent_base
        h.store(0, x, 8, 1, 0)
        return system, h, x & ~63

    def test_inclusion_violation(self):
        system, h, bx = self._system()
        h.llc.remove(bx)
        try:
            check_llc_inclusion(h)
        except HierarchyAuditError as exc:
            assert "inclusion" in str(exc)
        else:
            raise AssertionError("seeded inclusion violation not caught")

    def test_double_exclusive_violation(self):
        system, h, bx = self._system()
        h.l1s[1].insert(CacheBlock(bx, state=M))
        try:
            check_single_writer(h)
        except HierarchyAuditError as exc:
            assert "exclusive" in str(exc)
        else:
            raise AssertionError("seeded double-M not caught")

    def test_directory_sharer_mismatch(self):
        system, h, bx = self._system()
        h.directory.record_l1_eviction(bx, 0)  # lie: core 0 still holds it
        try:
            check_directory_agreement(h)
        except HierarchyAuditError as exc:
            assert "sharers" in str(exc) or "directory" in str(exc)
        else:
            raise AssertionError("seeded directory mismatch not caught")

    def test_untracked_block_violation(self):
        system, h, bx = self._system()
        h.directory.drop(bx)
        try:
            check_directory_agreement(h)
        except HierarchyAuditError as exc:
            assert "no directory entry" in str(exc)
        else:
            raise AssertionError("seeded untracked block not caught")

    def test_resident_invalid_frame(self):
        # The cache probes no state: a frame marked I in place would still
        # hit, so the auditor must refuse one in the L1s and the LLC.
        for level in ("l1", "llc"):
            system, h, bx = self._system()
            cache = h.l1s[0] if level == "l1" else h.llc
            cache.lookup(bx, touch=False).state = I
            try:
                check_resident_frames_valid(h)
            except HierarchyAuditError as exc:
                assert "state I" in str(exc)
            else:
                raise AssertionError(f"resident I frame in {level} not caught")
