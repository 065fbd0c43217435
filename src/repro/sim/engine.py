"""The multicore trace-interleaving engine.

The engine executes per-core op streams over a
:class:`~repro.mem.hierarchy.MemoryHierarchy`.  Each core has its own cycle
clock; the engine always steps the core with the smallest clock, which gives
a deterministic, contention-aware interleaving of the threads (the standard
trace-driven multicore approach).  That interleaving lives in one place,
:meth:`EngineStream.pump`: :meth:`Engine.run` feeds a whole
:class:`~repro.sim.trace.ProgramTrace` to a stream and finishes it, and
serving feeds requests to a stream as they arrive.

Store buffers sit between the core and the hierarchy:

* Under ``ConsistencyModel.TSO`` a committed store is released to the L1D
  immediately, so stores reach the cache in program order.
* Under ``ConsistencyModel.RELAXED`` releases are deliberately reordered
  (seeded RNG) except between stores to the same cache block — modelling the
  out-of-order L1D writes of Section III-C.  Whether the crash-drain still
  yields program-order persistency then depends on the store buffer being
  battery-backed, which is exactly the paper's point.

The engine records every *committed* and every *performed* (L1D-written)
persisting store; the recovery checker uses them as the golden state.  It
keeps no per-op execution log: a differential test that needs one wraps
the hierarchy's ``load``/``store`` (see :mod:`repro.sim.reference`).
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, List, NamedTuple, Optional, Tuple

from repro.check.schedule import SITE_OP, CrashNow, FiredPoint
from repro.core.persistency import DrainReport
from repro.mem.block import block_address
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.storebuffer import SBEntry
from repro.obs.events import (
    STALL_EPOCH,
    STALL_FLUSH_FENCE,
    SbRelease,
    StallBegin,
    StallEnd,
)
from repro.sim.config import ConsistencyModel
from repro.sim.stats import SimStats
from repro.sim.trace import OpKind, ProgramTrace, TraceOp


class PersistRecord(NamedTuple):
    """One persisting store, as seen by the golden model.

    A ``NamedTuple`` rather than a (frozen) dataclass: persist-heavy runs
    create one pair per persisting store, and tuple construction is
    several times cheaper than ``object.__setattr__``-based init.
    """

    core: int
    addr: int
    size: int
    value: int
    seq: int  # global monotonic order (commit order / perform order)


@dataclass
class RunResult:
    """Everything a run produces."""

    stats: SimStats
    crashed: bool = False
    crash_op: Optional[int] = None
    committed_persists: List[PersistRecord] = field(default_factory=list)
    performed_persists: List[PersistRecord] = field(default_factory=list)
    drain_report: Optional[DrainReport] = None
    #: Crash-schedule point that fired (None when the run completed).
    crash_point: Optional[FiredPoint] = None

    @property
    def execution_cycles(self) -> int:
        return self.stats.execution_cycles


#: Chance that a relaxed-consistency store-buffer entry is released at
#: each release opportunity (see :meth:`Engine._release_relaxed`).
RELEASE_PROBABILITY = 0.5


class Engine:
    """Drives one program over one hierarchy + scheme."""

    def __init__(self, hierarchy: MemoryHierarchy,
                 reorder_seed: int = 0) -> None:
        self.hierarchy = hierarchy
        self.config = hierarchy.config
        self.stats = hierarchy.stats
        self._rng = random.Random(reorder_seed)
        self._seq = 0
        self._tso = self.config.consistency is ConsistencyModel.TSO
        #: The result of the run in progress (or of the last run).
        self.result: Optional[RunResult] = None
        self._store_buffers = hierarchy.store_buffers
        self._bus = hierarchy.bus

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def run(self, trace: ProgramTrace, finalize: bool = True) -> RunResult:
        """Execute ``trace``: feed each thread's ops to one stream and
        finish it (see :meth:`EngineStream.finish`).  A crash happens only
        where the hierarchy's crash schedule fires
        (``CrashSchedule(stop_at=k, sites=(SITE_OP,))`` crashes after ``k``
        globally executed operations)."""
        if trace.num_threads > self.config.num_cores:
            raise ValueError(
                f"trace has {trace.num_threads} threads but the system has "
                f"{self.config.num_cores} cores"
            )
        session = self.stream()
        for core, thread in enumerate(trace.threads):
            session.feed(core, thread.ops)
        return session.finish(finalize)

    def stream(self) -> "EngineStream":
        """Open a streaming ingestion session (see :class:`EngineStream`).

        An :class:`Engine` is single-shot: use either :meth:`run` or one
        stream per engine, never both."""
        return EngineStream(self)

    # ------------------------------------------------------------------
    # Per-op execution
    # ------------------------------------------------------------------
    def _execute(
        self,
        core: int,
        op: TraceOp,
        now: int,
        result: RunResult,
        flush_outstanding: List[int],
    ) -> int:
        """Execute one non-store op (:meth:`EngineStream.pump` sends
        stores to the store commit it picked for the engine's mode).

        A load probes its core's store buffer only under RELAXED: no TSO
        commit ever puts an entry in the buffer's FIFO (the direct commit
        bypasses the buffer and the observed one holds the store in the
        release slot only), so under TSO the probe would always miss."""
        kind = op.kind
        if kind is OpKind.COMPUTE:
            self.stats.core[core].compute_cycles += op.cycles
            return now + op.cycles

        if kind is OpKind.LOAD:
            if not self._tso:
                forwarded = self._store_buffers[core].forward(op.addr, op.size)
                if forwarded is not None:
                    self.stats.core[core].sb_forwards += 1
                    self.stats.core[core].loads += 1
                    return now + 1
            return self.hierarchy.load(core, op.addr, op.size, now)[1]

        if kind is OpKind.FLUSH:
            # clwb is asynchronous: it starts the writeback and retires.
            now = self._release_all(core, now, result)
            done = self.hierarchy.flush_block_to_wpq(core, op.addr, now)
            if done > now:
                self.stats.flushes += 1
                flush_outstanding.append(done + self.config.mem.mc_transfer_cycles)
            return now + 1

        if kind is OpKind.FENCE:
            now = self._release_all(core, now, result)
            self.stats.fences += 1
            if flush_outstanding:
                target = max(flush_outstanding)
                if target > now:
                    self.stats.core[core].stall_cycles_flush_fence += target - now
                    if self._bus.enabled:
                        self._bus.emit(StallBegin(now, core, STALL_FLUSH_FENCE))
                        self._bus.emit(StallEnd(target, core, STALL_FLUSH_FENCE))
                    now = target
                flush_outstanding.clear()
            return now

        if kind is OpKind.EPOCH:
            now = self._release_all(core, now, result)
            stall = self.hierarchy.scheme.on_epoch_boundary(core, now)
            if stall and self._bus.enabled:
                self._bus.emit(StallBegin(now, core, STALL_EPOCH))
                self._bus.emit(StallEnd(now + stall, core, STALL_EPOCH))
            return now + stall

        raise ValueError(f"unknown op kind {kind!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Store commits: EngineStream.pump picks one per call, by mode
    # ------------------------------------------------------------------
    def _commit_store_direct(
        self, core: int, op: TraceOp, now: int, result: RunResult
    ) -> int:
        """TSO with no crash schedule.  Release is eager under TSO, so the
        store buffer is empty at every commit, and with no schedule to
        observe the store in flight it skips the buffer round trip:
        records, stats and timing are those of a push followed at once by
        a release.  The hierarchy classifies the address, and both persist
        records are appended after the store, since nothing can read them
        in between."""
        addr, size, value = op.addr, op.size, op.value
        # +1: commit cost
        done, persistent = self.hierarchy.store(core, addr, size, value, now + 1)
        if persistent:
            seq = self._seq
            result.committed_persists.append(
                PersistRecord(core, addr, size, value, seq + 1)
            )
            result.performed_persists.append(
                PersistRecord(core, addr, size, value, seq + 2)
            )
            self._seq = seq + 2
        return done

    def _commit_store(
        self, core: int, op: TraceOp, now: int, result: RunResult
    ) -> int:
        """RELAXED: buffer the store, then give the buffer a release
        opportunity (:meth:`_release_relaxed`)."""
        sb = self._store_buffers[core]
        if sb.full:
            now = self._release_oldest(core, now, result)
        persistent = self.config.mem.is_persistent(op.addr)
        sb.push(op.addr, op.value, op.size, persistent, now)
        if persistent:
            self._seq += 1
            result.committed_persists.append(
                PersistRecord(core, op.addr, op.size, op.value, self._seq)
            )
        return self._release_relaxed(core, now + 1, result)  # +1: commit

    def _commit_store_observed(
        self, core: int, op: TraceOp, now: int, result: RunResult
    ) -> int:
        """TSO under a crash schedule: the records, stats, timing and event
        stream (no SB events) of :meth:`_commit_store_direct`, with the
        store held in the SB's release slot while the hierarchy performs
        it — where a crash point inside the store must find it."""
        persistent = self.config.mem.is_persistent(op.addr)
        if persistent:
            self._seq += 1
            result.committed_persists.append(
                PersistRecord(core, op.addr, op.size, op.value, self._seq)
            )
        sb = self._store_buffers[core]
        entry = sb.releasing = SBEntry(op.addr, op.size, op.value, 0,
                                       persistent)
        now = self._release_entry(core, entry, now + 1, result)  # +1: commit
        sb.releasing = None
        return now

    def _release_entry(self, core: int, entry, now: int, result: RunResult) -> int:
        done, persistent = self.hierarchy.store(
            core, entry.addr, entry.size, entry.value, now
        )
        if persistent:
            self._seq += 1
            result.performed_persists.append(
                PersistRecord(core, entry.addr, entry.size, entry.value, self._seq)
            )
        return done

    def _release_all(self, core: int, now: int, result: RunResult) -> int:
        sb = self._store_buffers[core]
        while len(sb):
            now = self._release_oldest(core, now, result)
        return now

    def _release_oldest(self, core: int, now: int, result: RunResult) -> int:
        sb = self._store_buffers[core]
        entry = sb.pop_oldest(now)
        if entry is not None:
            # As far as the persistence domain is concerned the store leaves
            # the SB only when its L1D write is done: it sits in the release
            # slot, ahead of the unreleased remainder, until then.
            sb.releasing = entry
            now = self._release_entry(core, entry, now, result)
            sb.releasing = None
        return now

    def _release_relaxed(self, core: int, now: int, result: RunResult) -> int:
        """Out-of-order release: each entry may release ahead of older ones
        to *different* blocks; same-block order is always preserved (the
        hardware guarantee relaxed models keep)."""
        sb = self.hierarchy.store_buffers[core]
        blocked_blocks = set()
        kept = []
        released = []
        bus_on = self._bus.enabled
        for entry in sb.entries():
            baddr = block_address(entry.addr, self.config.block_size)
            if baddr in blocked_blocks:
                kept.append(entry)
                continue
            if self._rng.random() < RELEASE_PROBABILITY:
                if bus_on:
                    released.append((now, entry.addr))
                now = self._release_entry(core, entry, now, result)
            else:
                kept.append(entry)
                blocked_blocks.add(baddr)
        sb.requeue(kept)  # preserve original relative order
        if bus_on:
            # requeue bypasses pop_*, so emit the releases here (occupancy
            # reflects the post-release buffer, as with pop_oldest).
            for cycle, addr in released:
                self._bus.emit(SbRelease(cycle, core, addr, len(kept)))
        return now


class EngineStream:
    """Incremental, request-driven execution session over one
    :class:`Engine` — the engine's only scheduling loop.

    A caller *feeds* ops to per-core queues and *pumps* the engine, which
    executes exactly as far as it can while keeping the deterministic
    smallest-clock interleaving (ties break toward the lower core index):

    * ``pump()`` executes ops only while the globally next key
      ``(clock, core)`` belongs to a core with buffered work.  When the
      next key belongs to a core whose queue is empty and that has not
      been :meth:`end`-ed, the pump *starves* and returns that core's
      index — backpressure telling the caller which stream the engine
      needs next.  This is what makes any chunking of the feeds
      bit-identical to feeding every op up front, as :meth:`Engine.run`
      does: an op fed later to the starved core could order before
      anything currently buffered elsewhere.
    * ``feed(core, ops)`` appends ops to a core's queue; ``end(core)``
      declares a stream complete.
    * ``advance(core, cycle)`` moves an (empty-queued) core's clock
      forward to a request arrival time, modelling the gap between
      requests in an open-loop workload.
    * ``finish()`` ends every core, drains, and settles the run, returning
      the :class:`RunResult`.

    Because a core's clock only moves when its own ops execute, a starved
    core's clock is exactly the completion cycle of the last op it was
    fed — per-request latency falls out of ``clock(core)`` with no per-op
    completion callbacks (:mod:`repro.serve` builds on this).

    The scheduler's ``(clock, core)`` heap is kept between pumps, less
    the core the last pump starved on; the next pump pushes that core
    back with its current clock while it still blocks (it has ops, or it
    is not ended).  ``feed`` never changes a key, so the heap survives
    it, and a server that feeds, advances and ends only the core it was
    handed never pays for a rebuild.  ``advance`` or ``end`` of any other
    core, ``finish()`` and a crash drop the heap, and the next pump
    rebuilds it over every core.

    The session publishes its result as ``engine.result`` as soon as it is
    built, so a crash-schedule observer can read the persist records of
    the run in progress (:func:`repro.check.explore.sweep` does).
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        n = engine.config.num_cores
        self.num_cores = n
        self.result = engine.result = RunResult(stats=engine.stats)
        self.clocks = [0] * n
        self.flush_outstanding: List[List[int]] = [[] for _ in range(n)]
        self.executed = 0
        self._pending: List[Deque[TraceOp]] = [deque() for _ in range(n)]
        self._ended = [False] * n
        self._finished = False
        #: The scheduler heap kept between pumps: ``(clock, core)`` of every
        #: core that blocks except ``_starved``, the one the last pump
        #: returned.  ``None``: the next pump rebuilds it.
        self._heap: Optional[List[Tuple[int, int]]] = None
        self._starved = 0
        schedule = engine.hierarchy.crash_schedule
        self._schedule = schedule
        self._schedule_on = schedule.enabled

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise ValueError(
                f"no core {core}: the system has cores 0..{self.num_cores - 1}"
            )

    def _crashed(self, crash: CrashNow) -> None:
        result = self.result
        result.crashed = True
        result.crash_op = self.executed  # fully executed ops
        result.crash_point = crash.point

    # -- ingestion -----------------------------------------------------
    def clock(self, core: int) -> int:
        """Core ``core``'s cycle clock — after a starve, the completion
        cycle of the last op it executed."""
        self._check_core(core)
        return self.clocks[core]

    def feed(self, core: int, ops: Iterable[TraceOp]) -> None:
        """Append ops to ``core``'s queue."""
        if self._finished:
            raise RuntimeError("stream already finished")
        self._check_core(core)
        if self._ended[core]:
            raise ValueError(f"core {core} already ended")
        self._pending[core].extend(ops)

    def end(self, core: int) -> None:
        """Declare ``core``'s stream complete; it stops blocking pumps
        once its queue drains, and may not be fed again."""
        self._check_core(core)
        self._ended[core] = True
        if core != self._starved:
            self._heap = None

    def advance(self, core: int, cycle: int) -> None:
        """Move an empty-queued core's clock forward to ``cycle`` (no-op
        if its clock is already past), modelling inter-request gaps."""
        self._check_core(core)
        if self._pending[core]:
            raise ValueError(f"core {core} has buffered ops; cannot advance")
        if cycle > self.clocks[core]:
            self.clocks[core] = cycle
            if core != self._starved:
                self._heap = None

    # -- execution -----------------------------------------------------
    def pump(self) -> Optional[int]:
        """Execute every buffered op that can run without violating the
        global interleaving.  Returns the index of the core the engine
        starved on (feed or end it, then pump again), or ``None`` once
        every core is ended and drained (or the run crashed)."""
        if self._finished:
            raise RuntimeError("stream already finished")
        if self.result.crashed:
            return None
        engine = self.engine
        execute = engine._execute
        schedule_on = self._schedule_on
        # The store commit for the engine's mode.  A pump local, not an
        # attribute: a bound method stored on the engine would make every
        # system a reference cycle.
        if not engine._tso:
            commit_store = engine._commit_store
        elif schedule_on:
            commit_store = engine._commit_store_observed
        else:
            commit_store = engine._commit_store_direct
        store_kind = OpKind.STORE
        result = self.result
        clocks = self.clocks
        pending = self._pending
        ended = self._ended
        fo = self.flush_outstanding
        schedule = self._schedule
        executed = self.executed
        # Min-heap of (clock, core): the smallest clock wins, ties break
        # toward the lower core index.  Cores with an empty queue that are
        # not ended stay in the heap as barriers.
        heap = self._heap
        if heap is None:
            heap = self._heap = [(clocks[c], c) for c in range(self.num_cores)
                                 if pending[c] or not ended[c]]
            heapq.heapify(heap)
        else:
            core = self._starved
            if pending[core] or not ended[core]:
                heapq.heappush(heap, (clocks[core], core))
        if not heap:
            return None
        clock, core = heapq.heappop(heap)
        while True:
            queue = pending[core]
            if not queue:
                self.executed = executed
                self._starved = core
                return core  # starved: an op fed here could order first
            # The core keeps running while its (clock, core) key stays
            # below the next one in the heap: clock < limit.
            if heap:
                top_clock, top_core = heap[0]
                limit = top_clock + (core < top_core)
            else:
                limit = None
            flushes = fo[core]
            while True:
                op = queue.popleft()
                try:
                    if op.kind is store_kind:
                        clock = commit_store(core, op, clock, result)
                    else:
                        clock = execute(core, op, clock, result, flushes)
                    clocks[core] = clock
                    executed += 1
                    if schedule_on:
                        schedule.reached(SITE_OP, clock)
                except CrashNow as crash:
                    self.executed = executed
                    self._heap = None
                    self._crashed(crash)
                    return None
                if not queue or (limit is not None and clock >= limit):
                    break
            # Requeue the core and pop the next one in one sift.
            if queue or not ended[core]:
                clock, core = heapq.heappushpop(heap, (clock, core))
            elif heap:
                clock, core = heapq.heappop(heap)
            else:
                break
        self.executed = executed
        return None

    # -- completion ----------------------------------------------------
    def finish(self, finalize: bool = True) -> RunResult:
        """End every core, drain all buffered ops, and settle the run.

        After a normal completion every core retires its store buffer and
        waits out its outstanding flushes, and with ``finalize=True`` the
        scheme settles all outstanding persistence-domain state so the
        media image is complete.  After a crash (or a crash while
        settling) ``finalize`` is ignored: the scheme's battery drains
        whatever it covers and the volatile state is lost.  Either way the
        per-core clocks become the cores' cycle counts."""
        if self._finished:
            return self.result
        for core in range(self.num_cores):
            self._ended[core] = True
        self._heap = None
        self.pump()
        self._finished = True
        engine = self.engine
        result = self.result
        clocks = self.clocks
        scheme = engine.hierarchy.scheme
        if not result.crashed:
            try:
                for core, flushes in enumerate(self.flush_outstanding):
                    clocks[core] = engine._release_all(core, clocks[core],
                                                       result)
                    if flushes:
                        clocks[core] = max(clocks[core], max(flushes))
                if finalize:
                    scheme.finalize(max(clocks))
            except CrashNow as crash:
                self._crashed(crash)
        if result.crashed:
            result.drain_report = scheme.crash_drain(max(clocks))
        for core, clock in enumerate(clocks):
            engine.stats.core[core].cycles = clock
        return result
