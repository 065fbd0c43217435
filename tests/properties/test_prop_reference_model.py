"""Differential testing: the full hierarchy vs a flat-memory oracle.

Random multicore programs run through the complete simulator (caches,
MESI directory, store buffers, bbPBs, evictions, drains) while wrappers
round the hierarchy's ``load``/``store`` and each store buffer's
``forward`` log every operation as it takes effect; replaying the log
against :class:`FlatMemory` must reproduce every load value exactly.  Any
coherence, forwarding, merge, or writeback bug diverges.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import SystemConfig
from repro.sim.reference import FlatMemory, LogKind, LogRecord, check_against_reference
from repro.api import build_system
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp

CFG = SystemConfig(num_cores=4).scaled_for_testing()

op_strategy = st.tuples(
    st.sampled_from(["load", "store"]),
    st.booleans(),                                     # persistent vs DRAM
    st.integers(min_value=0, max_value=23),            # block index
    st.sampled_from([0, 8, 16, 24, 32, 40, 48, 56]),   # offset
    st.integers(min_value=1, max_value=(1 << 62)),
)


def to_trace_op(kind, persistent, block, offset, value):
    base = CFG.mem.persistent_base if persistent else 4096
    addr = base + block * 64 + offset
    if kind == "load":
        return TraceOp.load(addr)
    return TraceOp.store(addr, value)


programs = st.lists(
    st.lists(op_strategy, min_size=1, max_size=40), min_size=1, max_size=4
)


def record_log(system):
    """Wrap ``system``'s hierarchy ``load``/``store`` and each store
    buffer's ``forward`` so that every operation is logged, in the order
    it took effect: a store once the hierarchy performs it, a load with
    the value it observed (from the buffer only when it forwards)."""
    log = []
    hierarchy = system.hierarchy
    load, store = hierarchy.load, hierarchy.store

    def logged_load(core, addr, size, now):
        value, done = load(core, addr, size, now)
        log.append(LogRecord(LogKind.LOAD, core, addr, size, value))
        return value, done

    def logged_store(core, addr, size, value, now):
        out = store(core, addr, size, value, now)
        log.append(LogRecord(LogKind.STORE, core, addr, size, value))
        return out

    def logged_forward(core, forward):
        def wrapper(addr, size):
            value = forward(addr, size)
            if value is not None:
                log.append(LogRecord(LogKind.LOAD, core, addr, size, value))
            return value
        return wrapper

    hierarchy.load, hierarchy.store = logged_load, logged_store
    for core, sb in enumerate(hierarchy.store_buffers):
        sb.forward = logged_forward(core, sb.forward)
    return log


def run_logged(scheme, threads):
    """The execution log of ``threads`` run under ``scheme``.

    The log must be complete: every load leaves one record (from the
    store buffer or from the hierarchy) and every store one, or a wrapper
    that the engine bypasses would let the oracle pass on a partial log.
    """
    system = build_system(scheme, config=CFG)
    log = record_log(system)
    trace = ProgramTrace(
        [ThreadTrace([to_trace_op(*op) for op in ops]) for ops in threads]
    )
    system.engine.run(trace)
    stores = sum(op[0] == "store" for ops in threads for op in ops)
    assert len(log) == sum(len(ops) for ops in threads)
    assert sum(r.kind is LogKind.STORE for r in log) == stores
    return log


@settings(max_examples=50, deadline=None)
@given(programs)
def test_bbb_hierarchy_matches_flat_memory(threads):
    log = run_logged("bbb", threads)
    divergences = check_against_reference(log)
    assert not divergences, divergences[0]


@settings(max_examples=25, deadline=None)
@given(programs)
def test_eadr_hierarchy_matches_flat_memory(threads):
    log = run_logged("eadr", threads)
    assert not check_against_reference(log)


@settings(max_examples=25, deadline=None)
@given(programs)
def test_bsp_hierarchy_matches_flat_memory(threads):
    log = run_logged("bsp", threads)
    assert not check_against_reference(log)


@settings(max_examples=15, deadline=None)
@given(programs)
def test_pmem_hierarchy_matches_flat_memory(threads):
    log = run_logged("pmem", threads)
    assert not check_against_reference(log)


@settings(max_examples=15, deadline=None)
@given(programs)
def test_no_persistency_hierarchy_matches_flat_memory(threads):
    """Even the volatile scheme must be *functionally* coherent while
    running — only its crash behaviour differs."""
    log = run_logged("none", threads)
    assert not check_against_reference(log)


class TestOracleItself:
    def test_flat_memory_roundtrip(self):
        mem = FlatMemory()
        mem.store(0x100, 0xDEADBEEF, 4)
        assert mem.load(0x100, 4) == 0xDEADBEEF
        assert mem.load(0x102, 2) == 0xDEAD

    def test_checker_flags_divergence(self):
        log = [
            LogRecord(LogKind.STORE, 0, 0x100, 8, 42),
            LogRecord(LogKind.LOAD, 1, 0x100, 8, 41),  # wrong value
        ]
        divergences = check_against_reference(log)
        assert len(divergences) == 1
        assert divergences[0].expected == 42

    def test_checker_accepts_correct_log(self):
        log = [
            LogRecord(LogKind.STORE, 0, 0x100, 8, 42),
            LogRecord(LogKind.LOAD, 1, 0x100, 8, 42),
        ]
        assert not check_against_reference(log)
