"""Streamed ingestion against the golden run fingerprints, and the
``EngineStream`` protocol.

Feeding each thread's ops through ``System.stream()`` in any chunking and
any order across cores, pumping after every feed, must reproduce the
recorded fingerprint of the materialized run (full ``SimStats`` plus both
persist-record streams) for every builtin scheme, under TSO and under
relaxed consistency.  The manual-session tests pin the protocol itself
(starve/feed/advance/end/finish), and a Hypothesis state machine
interleaves every session call, ``advance`` among partial feeds
included, against a twin session whose scheduler heap is rebuilt before
every pump.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

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
    # Core 1 (clock 0) blocks global progress until fed or ended.
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


def _starved_hashmap_session():
    """bbb's golden hashmap cell fed in full and pumped once: the pump
    starves on the first idle core and keeps its heap.  The system is
    returned too, to keep it alive (a scheme holds it weakly)."""
    info = next(i for i in SCHEMES if i.name == BBB)
    system, trace = cell_system(info, "hashmap")
    session = system.stream()
    for core, thread in enumerate(trace.threads):
        session.feed(core, thread.ops)
    starved = session.pump()
    assert starved == trace.num_threads
    return info, system, session, starved


def test_ending_other_cores_drops_the_kept_heap():
    """A stale entry for an ended idle core would starve the next pump on
    a core that is already ended."""
    info, _system, session, _ = _starved_hashmap_session()
    for core in reversed(range(session.num_cores)):  # the starved one last
        session.end(core)
    assert session.pump() is None
    result = session.finish(finalize=False)
    assert fingerprint_run(result) == golden(info, "hashmap")


def test_advancing_another_core_drops_the_kept_heap():
    """The next pump must order the advanced core by its new clock, not
    by the key the kept heap still holds."""
    _info, _system, session, starved = _starved_hashmap_session()
    session.advance(starved + 1, 10 ** 6)
    session.end(starved)
    assert session.pump() == starved + 2


def test_finish_drops_the_kept_heap():
    """``finish()`` ends every core by assignment, not through ``end()``,
    and must still run the fed cores to the golden fingerprint."""
    info, _system, session, _ = _starved_hashmap_session()
    result = session.finish(finalize=False)
    assert fingerprint_run(result) == golden(info, "hashmap")


def test_feed_after_end_rejected():
    _, session = _bbb_session()
    session.end(0)
    with pytest.raises(ValueError):
        session.feed(0, [TraceOp.compute(1)])


@pytest.mark.parametrize("call", [
    lambda s, c: s.feed(c, [TraceOp.compute(1)]),
    lambda s, c: s.end(c),
    lambda s, c: s.advance(c, 10),
    lambda s, c: s.clock(c),
], ids=["feed", "end", "advance", "clock"])
def test_core_outside_the_system_rejected(call):
    """``-1`` must not wrap around to the last core, and ``num_cores`` must
    not surface as a bare ``IndexError``."""
    _, session = _bbb_session()
    for core in (-1, session.num_cores):
        with pytest.raises(ValueError, match="no core"):
            call(session, core)
    assert [session.clock(c) for c in range(session.num_cores)] == \
        [0] * session.num_cores


class EngineStreamMachine(RuleBasedStateMachine):
    """Random interleavings of ``feed``/``pump``/``advance``/``end`` over
    bbb on a golden TSO cell.  Without an ``advance`` the run must match
    the cell's recorded fingerprint, however the feeds were cut.

    A twin session on a second identical system gets every call too, but
    its kept scheduler heap is dropped before each of its pumps, so it
    schedules from a heap rebuilt over every core: each pump must starve
    on the same core and leave the same clocks and ``executed`` count."""

    @initialize(workload=st.sampled_from(RELAXED_WORKLOADS))
    def open_session(self, workload):
        self.info = next(i for i in SCHEMES if i.name == BBB)
        self.workload = workload
        self.system, trace = cell_system(self.info, workload)
        self.session = self.system.stream()
        self.twin_system, _ = cell_system(self.info, workload)
        self.twin = self.twin_system.stream()
        n = self.session.num_cores
        self.ops = [trace.threads[c].ops if c < trace.num_threads else []
                    for c in range(n)]
        self.fed = [0] * n
        self.ended = [False] * n
        self.clocks = [0] * n
        self.advanced = False

    def _queued(self, core):
        return len(self.session._pending[core])

    def _cores(self, eligible):
        return [c for c in range(self.session.num_cores) if eligible(c)]

    def _feedable(self, core):
        return not self.ended[core] and self.fed[core] < len(self.ops[core])

    def _waiting(self, core):
        return not self.ended[core] and not self._queued(core)

    def _complete(self, core):
        return not self.ended[core] and self.fed[core] == len(self.ops[core])

    @precondition(lambda self: self._cores(self._feedable))
    @rule(pick=st.integers(0, 7), n=st.integers(1, 32))
    def feed(self, pick, n):
        cores = self._cores(self._feedable)
        core = cores[pick % len(cores)]
        start = self.fed[core]
        for session in (self.session, self.twin):
            session.feed(core, self.ops[core][start:start + n])
        self.fed[core] = min(start + n, len(self.ops[core]))

    @rule()
    def pump(self):
        needy = self.session.pump()
        self.twin._heap = None
        assert self.twin.pump() == needy
        assert self.twin.clocks == self.session.clocks
        assert self.twin.executed == self.session.executed
        if needy is None:
            assert all(self.ended)
            assert not any(self._queued(c)
                           for c in range(self.session.num_cores))
        else:
            assert not self._queued(needy) and not self.ended[needy]

    @precondition(lambda self: self._cores(self._waiting))
    @rule(pick=st.integers(0, 7), delta=st.integers(-100, 500))
    def advance(self, pick, delta):
        """A target at or below the core's clock must leave it alone."""
        cores = self._cores(self._waiting)
        core = cores[pick % len(cores)]
        cycle = self.session.clock(core) + delta
        for session in (self.session, self.twin):
            session.advance(core, cycle)
        self.advanced = self.advanced or delta > 0

    @precondition(lambda self: self._cores(self._complete))
    @rule(pick=st.integers(0, 7))
    def end(self, pick):
        cores = self._cores(self._complete)
        core = cores[pick % len(cores)]
        for session in (self.session, self.twin):
            session.end(core)
        self.ended[core] = True

    @invariant()
    def clocks_never_decrease(self):
        clocks = [self.session.clock(c) for c in range(self.session.num_cores)]
        assert all(now >= before for now, before in zip(clocks, self.clocks))
        self.clocks = clocks

    @invariant()
    def executed_is_fed_minus_queued(self):
        queued = sum(self._queued(c) for c in range(self.session.num_cores))
        assert self.session.executed == sum(self.fed) - queued

    def teardown(self):
        for session in (self.session, self.twin):
            for core in range(session.num_cores):
                if not self.ended[core]:
                    session.feed(core, self.ops[core][self.fed[core]:])
                    session.end(core)
        result = self.session.finish(finalize=False)
        digest = fingerprint_run(self.twin.finish(finalize=False))
        assert fingerprint_run(result) == digest
        if not self.advanced:
            assert digest == golden(self.info, self.workload)


TestEngineStreamMachine = EngineStreamMachine.TestCase
TestEngineStreamMachine.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None)
