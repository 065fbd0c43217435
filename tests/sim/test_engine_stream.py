"""Streamed ingestion against the golden run fingerprints, and the
``EngineStream`` protocol.

Feeding each thread's ops through ``System.stream()`` in any chunking and
any order across cores, pumping after every feed, must reproduce the
recorded fingerprint of the materialized run (full ``SimStats`` plus both
persist-record streams) for every builtin scheme, under TSO and under
relaxed consistency.  The manual-session tests pin the protocol itself
(starve/feed/advance/idle/end/finish).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bench import fingerprint_run
from repro.analysis.experiments import default_sim_config
from repro.api import build_system
from repro.core.registry import BBB
from repro.sim.trace import TraceOp
from tests.sim.test_run_fingerprints import (RELAXED_SEEDS, RELAXED_WORKLOADS,
                                             SCHEMES, cell_system, golden)


@pytest.mark.parametrize("info", SCHEMES, ids=lambda i: i.name)
@pytest.mark.parametrize("workload", RELAXED_WORKLOADS)
@settings(max_examples=10, deadline=None)
@given(seed=st.sampled_from((None,) + RELAXED_SEEDS),
       chunks=st.lists(st.integers(1, 32), min_size=1, max_size=8),
       picks=st.lists(st.integers(0, 7), min_size=1, max_size=8))
def test_streamed_matches_materialized(info, workload, seed, chunks, picks):
    """Feed step ``i`` gives ``chunks[i]`` ops to the ``picks[i]``-th core
    with ops left (both cycled); ``seed=None`` is TSO."""
    system, trace = cell_system(info, workload, reorder_seed=seed)
    session = system.stream()
    for core in range(trace.num_threads, session.num_cores):
        session.end(core)
    fed = [0] * trace.num_threads
    live = list(range(trace.num_threads))
    step = 0
    while live:
        core = live[picks[step % len(picks)] % len(live)]
        n = chunks[step % len(chunks)]
        ops = trace.threads[core].ops
        session.feed(core, ops[fed[core]:fed[core] + n])
        fed[core] += n
        if fed[core] >= len(ops):
            session.end(core)
            live.remove(core)
        session.pump()
        step += 1
    result = session.finish(finalize=False)
    assert fingerprint_run(result) == golden(info, workload, seed)


@pytest.mark.parametrize("chunk", [1, 3, 64, 10_000])
def test_chunk_size_is_invisible(chunk):
    """Feeding every core ``chunk`` ops at a time, round-robin, must not
    leak the feed granularity into results."""
    info = next(i for i in SCHEMES if i.name == BBB)
    system, trace = cell_system(info, "hashmap")
    session = system.stream()
    for core in range(trace.num_threads, session.num_cores):
        session.end(core)
    ops = [thread.ops for thread in trace.threads]
    for start in range(0, max(map(len, ops)), chunk):
        for core, core_ops in enumerate(ops):
            if start < len(core_ops):
                session.feed(core, core_ops[start:start + chunk])
                if start + chunk >= len(core_ops):
                    session.end(core)
            session.pump()
    result = session.finish(finalize=False)
    assert fingerprint_run(result) == golden(info, "hashmap")


# ----------------------------------------------------------------------
# The EngineStream protocol itself
# ----------------------------------------------------------------------

def _bbb_session():
    system = build_system(BBB, config=default_sim_config(), entries=8)
    return system, system.stream()


def test_pump_starves_on_the_minimum_clock_core():
    _, session = _bbb_session()
    session.feed(0, [TraceOp.compute(100)])
    # Core 1 (clock 0) blocks global progress until fed/ended/idled.
    needy = session.pump()
    assert needy is not None
    assert session.clock(needy) <= min(
        session.clock(c) for c in range(session.num_cores)
    )


def test_starved_clock_is_completion_cycle():
    """After a starve, the fed core's clock is exactly the completion
    cycle of its last op — the latency basis the serving layer uses."""
    _, session = _bbb_session()
    for core in range(1, session.num_cores):
        session.end(core)
    session.feed(0, [TraceOp.compute(25)])
    assert session.pump() == 0
    assert session.clock(0) == 25
    session.feed(0, [TraceOp.compute(10)])
    assert session.pump() == 0
    assert session.clock(0) == 35


def test_advance_moves_only_forward():
    _, session = _bbb_session()
    session.advance(0, 500)
    assert session.clock(0) == 500
    session.advance(0, 100)  # no-op: never rewinds
    assert session.clock(0) == 500
    session.feed(0, [TraceOp.compute(1)])
    with pytest.raises(ValueError):
        session.advance(0, 1000)  # buffered ops pin the clock


def test_idle_requires_empty_queue_and_feed_rearms():
    _, session = _bbb_session()
    session.feed(0, [TraceOp.compute(5)])
    with pytest.raises(ValueError):
        session.idle(0)
    for core in range(1, session.num_cores):
        session.idle(core)
    assert session.pump() == 0  # idle cores no longer starve the pump
    session.feed(1, [TraceOp.compute(5)])  # re-arms core 1
    session.end(0)
    assert session.pump() == 1


def test_finish_is_terminal():
    system, session = _bbb_session()
    session.feed(0, [TraceOp.compute(5)])
    result = session.finish()
    assert result.execution_cycles >= 5
    assert session.finish() is result  # idempotent
    with pytest.raises(RuntimeError):
        session.pump()
    with pytest.raises(RuntimeError):
        session.feed(0, [TraceOp.compute(1)])


def test_feed_after_end_rejected():
    _, session = _bbb_session()
    session.end(0)
    with pytest.raises(ValueError):
        session.feed(0, [TraceOp.compute(1)])


@pytest.mark.parametrize("call", [
    lambda s, c: s.feed(c, [TraceOp.compute(1)]),
    lambda s, c: s.end(c),
    lambda s, c: s.idle(c),
    lambda s, c: s.advance(c, 10),
    lambda s, c: s.clock(c),
], ids=["feed", "end", "idle", "advance", "clock"])
def test_core_outside_the_system_rejected(call):
    """``-1`` must not wrap around to the last core, and ``num_cores`` must
    not surface as a bare ``IndexError``."""
    _, session = _bbb_session()
    for core in (-1, session.num_cores):
        with pytest.raises(ValueError, match="no core"):
            call(session, core)
    assert [session.clock(c) for c in range(session.num_cores)] == \
        [0] * session.num_cores
