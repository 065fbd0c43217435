"""Golden-fingerprint equivalence for the streaming ingestion path.

Feeding a workload's per-thread op streams incrementally through
``System.run_stream`` (chunked pulls on engine backpressure) must produce
bit-identical ``SimStats`` and persist records to materializing the same
ops into a ``ProgramTrace`` and calling ``System.run`` — for every
registered builtin scheme, across chunk sizes, and under relaxed
consistency.  The manual-session tests pin the
``EngineStream`` protocol itself (starve/feed/advance/idle/end).
"""

import pytest

from repro.analysis.bench import fingerprint_run
from repro.analysis.experiments import default_sim_config
from repro.api import build_system
from repro.core.registry import BBB, CONTRACT_EPOCH, iter_schemes
from repro.sim.config import ConsistencyModel
from repro.sim.trace import TraceOp, with_epochs
from repro.workloads.base import (WorkloadSpec, build_cached,
                                  seed_media_words)

SPEC = WorkloadSpec(threads=2, ops=25, elements=512, seed=13)
SCHEMES = [info for info in iter_schemes() if info.builtin]


def _system(info, config=None):
    kwargs = {"entries": 8} if info.has_persist_buffer else {}
    return build_system(info.name, config=config or default_sim_config(),
                        **kwargs)


def _prepared(info, workload, config=None):
    cfg = config or default_sim_config()
    trace, initial_words = build_cached(workload, cfg.mem, SPEC)
    if info.contract == CONTRACT_EPOCH:
        trace = with_epochs(trace, every_n_stores=8)
    return trace, initial_words


def _run_materialized(info, trace, initial_words, config=None):
    system = _system(info, config)
    seed_media_words(system.nvmm_media, initial_words)
    return system.run(trace, finalize=False)


def _run_streamed(info, trace, initial_words, chunk=7, config=None):
    system = _system(info, config)
    seed_media_words(system.nvmm_media, initial_words)
    streams = [iter(thread.ops) for thread in trace.threads]
    return system.run_stream(streams, chunk=chunk, finalize=False)


@pytest.mark.parametrize("info", SCHEMES, ids=lambda i: i.name)
@pytest.mark.parametrize("workload", ["hashmap", "mutateC"])
def test_streamed_matches_materialized(info, workload):
    trace, words = _prepared(info, workload)
    ref = _run_materialized(info, trace, words)
    streamed = _run_streamed(info, trace, words)
    assert fingerprint_run(ref) == fingerprint_run(streamed)


@pytest.mark.parametrize("chunk", [1, 3, 64, 10_000])
def test_chunk_size_is_invisible(chunk):
    """The pull granularity must not leak into results."""
    info = next(i for i in SCHEMES if i.name == BBB)
    trace, words = _prepared(info, "hashmap")
    ref = _run_materialized(info, trace, words)
    streamed = _run_streamed(info, trace, words, chunk=chunk)
    assert fingerprint_run(ref) == fingerprint_run(streamed)


def test_streamed_relaxed_consistency():
    import dataclasses

    info = next(i for i in SCHEMES if i.name == BBB)
    cfg = dataclasses.replace(default_sim_config(),
                              consistency=ConsistencyModel.RELAXED)
    trace, words = _prepared(info, "hashmap", config=cfg)
    ref = _run_materialized(info, trace, words, config=cfg)
    streamed = _run_streamed(info, trace, words, config=cfg)
    assert fingerprint_run(ref) == fingerprint_run(streamed)


# ----------------------------------------------------------------------
# The EngineStream protocol itself
# ----------------------------------------------------------------------

def _bbb_session():
    info = next(i for i in SCHEMES if i.name == BBB)
    system = _system(info)
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
