"""The multicore trace-interleaving engine.

The engine executes a :class:`~repro.sim.trace.ProgramTrace` over a
:class:`~repro.mem.hierarchy.MemoryHierarchy`.  Each core has its own cycle
clock; the engine always steps the core with the smallest clock, which gives
a deterministic, contention-aware interleaving of the threads (the standard
trace-driven multicore approach).

Store buffers sit between the core and the hierarchy:

* Under ``ConsistencyModel.TSO`` a committed store is released to the L1D
  immediately, so stores reach the cache in program order.
* Under ``ConsistencyModel.RELAXED`` releases are deliberately reordered
  (seeded RNG) except between stores to the same cache block — modelling the
  out-of-order L1D writes of Section III-C.  Whether the crash-drain still
  yields program-order persistency then depends on the store buffer being
  battery-backed, which is exactly the paper's point.

The engine records every *committed* and every *performed* (L1D-written)
persisting store; the recovery checker uses them as the golden state.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Deque, Iterable, List, NamedTuple, Optional, Sequence

from repro.check.schedule import SITE_OP, CrashNow, FiredPoint
from repro.core.persistency import DrainReport
from repro.mem.block import I as MESI_I, M as MESI_M, block_address
from repro.mem.hierarchy import STORE_COMMIT_CYCLES, MemoryHierarchy
from repro.mem.storebuffer import SBEntry
from repro.obs.events import (
    STALL_EPOCH,
    STALL_FLUSH_FENCE,
    SbRelease,
    StallBegin,
    StallEnd,
)
from repro.sim.coltrace import ColumnarTrace, columnar_of
from repro.sim.config import ConsistencyModel
from repro.sim.reference import LogKind, LogRecord
from repro.sim.stats import SimStats
from repro.sim.trace import OpKind, ProgramTrace, TraceOp

#: Interpreter modes accepted by :class:`Engine`.  ``auto`` uses the
#: batched columnar path whenever it is handed a :class:`ColumnarTrace`
#: and the run is eligible; ``columnar`` additionally converts incoming
#: ``ProgramTrace`` objects (memoized); ``object`` always interprets one
#: ``TraceOp`` at a time.
ENGINE_MODES = ("auto", "object", "columnar")


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
    #: Micro-step crash point that fired (crash-schedule runs only; None
    #: for op-boundary crashes requested via ``crash_at_op``).
    crash_point: Optional[FiredPoint] = None
    #: Architectural execution log (populated when Engine(log=True)) — the
    #: exact order operations took effect, for differential testing
    #: against :mod:`repro.sim.reference`.
    log: List[LogRecord] = field(default_factory=list)

    @property
    def execution_cycles(self) -> int:
        return self.stats.execution_cycles


class Engine:
    """Drives one program over one hierarchy + scheme."""

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        consistency: Optional[ConsistencyModel] = None,
        reorder_seed: int = 0,
        release_probability: float = 0.5,
        log: bool = False,
        mode: str = "auto",
    ) -> None:
        if mode not in ENGINE_MODES:
            raise ValueError(
                f"unknown engine mode {mode!r}; expected one of "
                f"{', '.join(ENGINE_MODES)}"
            )
        self.hierarchy = hierarchy
        self.config = hierarchy.config
        self.stats = hierarchy.stats
        self.consistency = consistency or self.config.consistency
        self.mode = mode
        self._rng = random.Random(reorder_seed)
        self._release_probability = release_probability
        self._log_enabled = log
        self._seq = 0
        # Hot-loop bound references (resolved once, not per executed op).
        self._tso = self.consistency is ConsistencyModel.TSO
        #: TSO stores may bypass the store buffer (see _commit_store)
        #: unless a crash schedule can observe one mid-flight.
        self._tso_direct = self._tso and not hierarchy.crash_schedule.enabled
        self._is_persistent = self.config.mem.is_persistent
        #: The result of the run in progress (or of the last run).
        self.result: Optional[RunResult] = None
        self._store_buffers = hierarchy.store_buffers
        self._bus = hierarchy.bus
        #: Batched-interpreter telemetry for the last run that used the
        #: columnar path (projected as ``engine.batch.*`` metrics by
        #: :meth:`publish_batch_metrics`).  Zeroes mean "object path".
        self.batch_counters = {
            "phases": 0,
            "private_ops": 0,
            "shared_ops": 0,
            "rescans": 0,
            "scanned_ops": 0,
        }

    # ------------------------------------------------------------------
    # Batched-path eligibility and telemetry
    # ------------------------------------------------------------------
    def _scheme_flags(self) -> "tuple[bool, bool]":
        """``(cache_local_persists, stall_free_persists)`` of the active
        scheme (see :class:`repro.core.registry.SchemeInfo`).  Unregistered
        schemes get the conservative answers."""
        from repro.core.registry import scheme_info

        try:
            info = scheme_info(getattr(self.hierarchy.scheme, "name", ""))
        except ValueError:
            return False, False
        return info.cache_local_persists, info.stall_free_persists

    def publish_batch_metrics(self, registry) -> None:
        """Project the last run's batched-interpreter counters into an
        :class:`~repro.obs.metrics.MetricsRegistry` as ``engine.batch.*``.
        Counters live on the engine (not :class:`SimStats`): the batched
        path must produce bit-identical stats, so its telemetry cannot
        ride in them."""
        for key, value in self.batch_counters.items():
            registry.counter(
                f"engine.batch.{key}",
                f"batched columnar interpreter: {key.replace('_', ' ')}",
            ).inc(value)

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def run(
        self,
        trace: ProgramTrace,
        crash_at_op: Optional[int] = None,
        finalize: bool = True,
    ) -> RunResult:
        """Execute ``trace``; optionally crash after ``crash_at_op`` globally
        executed operations.

        On a crash, the active persistency scheme's battery drains whatever
        it covers and the volatile state is lost; ``finalize`` is ignored.
        On a normal completion (``finalize=True``) the scheme settles all
        outstanding persistence-domain state so the media image is complete.

        ``trace`` may be a :class:`ProgramTrace` or a
        :class:`~repro.sim.coltrace.ColumnarTrace`; both representations
        produce identical results.  In ``auto``/``columnar`` mode,
        eligible runs (TSO, no crash scheduling, no fault injection, no
        execution log) take the batched columnar path.
        """
        if trace.num_threads > self.config.num_cores:
            raise ValueError(
                f"trace has {trace.num_threads} threads but the system has "
                f"{self.config.num_cores} cores"
            )
        schedule = self.hierarchy.crash_schedule
        schedule_on = schedule.enabled
        cols: Optional[ColumnarTrace] = (
            trace if isinstance(trace, ColumnarTrace) else None
        )
        if self.mode == "object":
            if cols is not None:
                trace = cols.to_program()
            cols = None
        elif cols is None and self.mode == "columnar":
            cols = columnar_of(trace)
        batched = (
            cols is not None
            and self._tso
            and crash_at_op is None
            and not schedule_on
            and not self._log_enabled
            and not self.hierarchy.fault_injector.enabled
            and cols.fast_path_ok
        )
        result = self.result = RunResult(stats=self.stats)
        num_threads = trace.num_threads
        clocks = [0] * num_threads
        indices = [0] * num_threads
        flush_outstanding: List[List[int]] = [[] for _ in range(num_threads)]
        executed = 0
        for key in self.batch_counters:
            self.batch_counters[key] = 0

        if batched:
            executed = self._run_columnar(
                cols, result, clocks, indices, flush_outstanding
            )
        else:
            if cols is not None:
                trace = cols.to_program()
            # Min-heap scheduler: always step the core with the smallest
            # clock, ties broken by core index — identical to a min() over
            # live cores, but O(log n) per step and with no per-step
            # liveness list-build.
            ops_per_core = [t.ops for t in trace.threads]
            lengths = [len(ops) for ops in ops_per_core]
            heap = [(0, c) for c in range(num_threads) if lengths[c]]
            execute = self._execute
            while heap:
                clock, core = heapq.heappop(heap)
                i = indices[core]
                op = ops_per_core[core][i]
                indices[core] = i + 1
                try:
                    clock = execute(core, op, clock, result,
                                    flush_outstanding[core])
                    clocks[core] = clock
                    executed += 1
                    if schedule_on:
                        schedule.reached(SITE_OP, clock)
                except CrashNow as crash:
                    # A scheduled micro-step crash fired inside (or right
                    # after) this op: ``executed`` counts fully-executed ops.
                    clocks[core] = max(clocks[core], clock)
                    result.crashed = True
                    result.crash_op = executed
                    result.crash_point = crash.point
                    break
                if i + 1 < lengths[core]:
                    heapq.heappush(heap, (clock, core))
                if crash_at_op is not None and executed >= crash_at_op:
                    result.crashed = True
                    result.crash_op = executed
                    break

        return self._epilogue(result, clocks, flush_outstanding, executed,
                              finalize)

    def _epilogue(
        self,
        result: RunResult,
        clocks: List[int],
        flush_outstanding: List[List[int]],
        executed: int,
        finalize: bool,
    ) -> RunResult:
        """Settle a completed (or crashed) execution: retire remaining
        store-buffer entries and outstanding flushes, finalize the scheme,
        drain on crash, and publish per-core cycle counts.  Shared by
        :meth:`run` and :meth:`EngineStream.finish`."""
        if not result.crashed:
            try:
                for core in range(len(clocks)):
                    clocks[core] = self._release_all(core, clocks[core], result)
                    if flush_outstanding[core]:
                        clocks[core] = max(clocks[core],
                                           max(flush_outstanding[core]))
                if finalize:
                    self.hierarchy.scheme.finalize(max(clocks))
            except CrashNow as crash:
                result.crashed = True
                result.crash_op = executed
                result.crash_point = crash.point
        if result.crashed:
            result.drain_report = self.hierarchy.scheme.crash_drain(
                max(clocks) if clocks else 0
            )
        for core, clock in enumerate(clocks):
            self.stats.core[core].cycles = clock
        return result

    # ------------------------------------------------------------------
    # Batched columnar interpreter
    # ------------------------------------------------------------------
    def _run_columnar(
        self,
        cols: ColumnarTrace,
        result: RunResult,
        clocks: List[int],
        indices: List[int],
        flush_outstanding: List[List[int]],
    ) -> int:
        """Scan/cut batched execution of an eligible (TSO, crash-free) run.
        Returns the number of executed ops.

        Correctness rests on the *private-ops-commute* property: an L1-hit
        LOAD, an M-state-hit non-persisting STORE, and a COMPUTE touch only
        core-private state (the core's own L1 array and per-array LRU
        clock, its own ``CoreStats`` counters, its own clock, data the core
        holds exclusively), so reordering them across cores cannot change
        any observable.  MESI guarantees a cross-core conflict on the same
        block always involves a *shared* op (a miss or an upgrade) on at
        least one side, and private ops never change L1 residency or MESI
        state — so whether each upcoming op is private can be *scanned*
        without executing anything.

        Each phase therefore: (1) rescans cores whose previous scan was
        invalidated, parking each at its first shared op with the clock it
        would reach it at (private costs are deterministic); (2) picks the
        globally next shared op S* = min over (park clock, core); (3)
        retires every core's scanned private ops whose heap position
        ``(clock, core)`` orders *before* S* — exactly the ops the min-heap
        would have popped first; (4) executes S* through the unchanged
        per-op path, preserving the exact global order of every shared op
        (and with it persist-record sequencing, coherence traffic, stats,
        and LRU decisions bit for bit); (5) invalidates the scan of S*'s
        core and of any core whose L1 the shared op touched (tracked by
        ``MemoryHierarchy.l1_versions``; schemes without
        ``cache_local_persists`` invalidate everyone).

        Schemes declaring ``stall_free_persists`` (their persist hook is a
        stall-free, order-insensitive counter at most — eADR, the
        no-persistency baseline) additionally retire M-state-hit
        *persisting* stores on the private path: the persist hook still
        runs per store, but the (committed, performed) record pair is
        captured with the op's heap position ``(clock, core)`` and the
        full record list is re-sequenced into exact global order after the
        run (record-producing ops advance their core's clock, so heap
        positions are unique and totally ordered).
        """
        h = self.hierarchy
        config = self.config
        mem = config.mem
        load_cost = config.l1d.hit_latency
        store_cost = STORE_COMMIT_CYCLES + 1
        cache_local, persists_private = self._scheme_flags()
        (prefix_t, mord_t, mcls_t, mbaddr_t, mset_t, rix_t, rend_t,
         nst_t, sord_t, soff_t, sval_t, ssiz_t, spst_t,
         sbyt_t) = cols.engine_prep(
            config.block_size - 1,
            mem.persistent_base,
            mem.nvmm_limit,
            config.l1d.block_size.bit_length() - 1,
            config.l1d.num_sets,
            load_cost,
            store_cost,
            persists_private,
        )
        n = cols.num_threads
        lengths = [t.n for t in cols.threads]
        mlens = [len(m) for m in mord_t]
        prog = cols.known_program()  # ops for shared dispatch, if built
        ops_pc = [t.ops for t in prog.threads] if prog is not None else None
        sets_c = [h.l1s[c]._sets for c in range(n)]
        l1_versions = h.l1_versions
        core_stats = self.stats.core
        execute = self._execute
        conservative = not cache_local
        counters = self.batch_counters
        # Private-persist support (stall_free_persists schemes only).
        on_pstore = h.scheme.on_persisting_store
        llc = h.llc
        llc_sets = llc._sets
        llc_shift = llc._block_shift
        llc_mask = llc._set_mask
        llc_nsets = llc.config.num_sets
        seq_base = self._seq
        committed = result.committed_persists
        #: Deferred private persist records: (pop clock, core, addr, size,
        #: value) — merged with the shared-op records at the end.
        priv_records: List["tuple"] = []
        #: Heap position of each shared-op (committed, performed) pair, in
        #: append order, for the same merge.
        shared_tags: List["tuple"] = []

        mpos = [0] * n            # current memory-op position per core
        park_idx = [0] * n        # park point as an op index
        park_mem = [0] * n        # park point as a memory-op position
        park_clock = [0] * n
        #: Block refs captured by the last scan, one per *run* of
        #: same-block ops, indexed ``rix[m] - scan_rix0``.  Safe across
        #: phases: any mutation of the core's L1 bumps its
        #: ``l1_versions`` entry and forces a rescan before the next use.
        scan_blks: List[list] = [[] for _ in range(n)]
        scan_rix0 = [0] * n       # run index of the first cached ref
        scan_hi = [0] * n         # mem position the cached refs extend to
        valid = [False] * n
        seen = [0] * n
        executed = 0
        phases = 0
        rescans = 0
        scanned_ops = 0
        shared_ops = 0
        cores = list(range(n))
        _I = MESI_I
        _M = MESI_M

        while True:
            # -- (1) rescan invalidated cores to their park points --------
            # Only memory ops can be shared or change privacy, so the scan
            # walks the memory-op columns; the park clock comes from the
            # cost prefix sum in O(1).
            for c in cores:
                if valid[c]:
                    continue
                rescans += 1
                mp = mpos[c]
                mcls = mcls_t[c]
                mlen = mlens[c]
                hi = scan_hi[c]
                if mp < hi and not conservative:
                    # The core still sits inside its cached scan window, so
                    # this rescan was forced by a *remote* version bump.
                    # Dead blocks are state-I-marked and remote activity
                    # can only invalidate or downgrade this core's blocks
                    # (never install), so a state-only recheck of the
                    # cached refs is exact — no dict walks, and the park
                    # point can only move earlier.
                    sblks = scan_blks[c]
                    rix = rix_t[c]
                    rend = rend_t[c]
                    nst = nst_t[c]
                    sord = sord_t[c]
                    nstores = len(sord)
                    rbase = scan_rix0[c]
                    while mp < hi:
                        st = sblks[rix[mp] - rbase].state
                        if st is _I:
                            break
                        e = rend[mp]
                        if e > hi:
                            e = hi
                        if st is not _M:
                            # Loads stay private on any valid state, but
                            # the run parks at its first store.
                            s0 = nst[mp]
                            fs = sord[s0] if s0 < nstores else mlen
                            if fs < e:
                                mp = fs
                                break
                        mp = e
                else:
                    # First scan, or the core consumed its window (its
                    # parked op was dispatched): walk fresh from mpos.
                    mbad = mbaddr_t[c]
                    msets = mset_t[c]
                    sets = sets_c[c]
                    rend = rend_t[c]
                    nst = nst_t[c]
                    sord = sord_t[c]
                    nstores = len(sord)
                    sblks = scan_blks[c] = []
                    sapp = sblks.append
                    scan_rix0[c] = rix_t[c][mp] if mp < mlen else 0
                    while mp < mlen:
                        cl = mcls[mp] & 7
                        if cl == 3:
                            break
                        frames = sets.get(msets[mp])
                        if frames is None:
                            break
                        blk = frames.get(mbad[mp])
                        if blk is None or blk.state is _I:
                            break
                        e = rend[mp]
                        if blk.state is not _M:
                            # Loads stay private on any valid state; the
                            # run parks at its first store (an upgrade is
                            # a shared op).
                            s0 = nst[mp]
                            fs = sord[s0] if s0 < nstores else mlen
                            if fs < e:
                                if fs == mp:
                                    break
                                sapp(blk)
                                mp = fs
                                break
                        sapp(blk)
                        mp = e
                    scan_hi[c] = mp
                park_mem[c] = mp
                P = prefix_t[c]
                pidx = mord_t[c][mp] if mp < mlen else lengths[c]
                park_idx[c] = pidx
                idx = indices[c]
                park_clock[c] = clocks[c] + P[pidx] - P[idx]
                scanned_ops += pidx - idx
                valid[c] = True
                seen[c] = l1_versions[c]

            # -- (2) the globally next shared op ---------------------------
            # The ascending-core scan with a strict ``<`` reproduces the
            # heap's (clock, core) tie-break exactly.
            s_core = -1
            s_clock = 0
            for c in cores:
                if park_idx[c] >= lengths[c]:
                    continue
                pc = park_clock[c]
                if s_core < 0 or pc < s_clock:
                    s_core = c
                    s_clock = pc

            # -- (3) retire private ops ordered before S* ------------------
            phases += 1
            for c in cores:
                idx = indices[c]
                stop = park_idx[c]
                if idx >= stop:
                    continue
                clock = clocks[c]
                P = prefix_t[c]
                if s_core < 0 or c == s_core:
                    # Drain (no shared op left) or same core (program
                    # order): everything scanned retires.
                    j = stop
                else:
                    # (clock, c) < (s_clock, s_core) ⇔ clock < limit.
                    limit = s_clock + 1 if c < s_core else s_clock
                    if clock >= limit:
                        continue
                    # First op whose pop clock reaches the limit; the pop
                    # clock of op i is clock + P[i] - P[idx].
                    j = bisect_left(P, P[idx] + limit - clock, idx, stop)
                    if j <= idx:
                        continue
                mp = mpos[c]
                me = (park_mem[c] if j >= stop
                      else bisect_left(mord_t[c], j, mp, park_mem[c]))
                sblks = scan_blks[c]
                rix = rix_t[c]
                rbase = scan_rix0[c]
                nst = nst_t[c]
                l1 = h.l1s[c]
                use0 = l1._use
                s0 = nst[mp]
                s1 = nst[me]
                stores = s1 - s0
                loads = (me - mp) - stores
                pstores = 0
                if stores:
                    sord = sord_t[c]
                    sbyt = sbyt_t[c]
                    spst = spst_t[c]
                    mbad = mbaddr_t[c]
                    mord = mord_t[c]
                    for si in range(s0, s1):
                        m = sord[si]
                        blk = sblks[rix[m] - rbase]
                        blk.data.bytes.update(sbyt[si])
                        blk.dirty = True
                        if spst[si]:
                            # M-state-hit persisting store of a
                            # stall_free_persists scheme: same L1 effects
                            # as cl 2, plus the persistent flags, the
                            # (stall-free) scheme hook, and a deferred
                            # record pair at the op's heap position.
                            blk.persistent = True
                            b = mbad[m]
                            bi = b >> llc_shift
                            frames = llc_sets.get(
                                bi & llc_mask if llc_mask is not None
                                else bi % llc_nsets
                            )
                            lblk = (frames.get(b)
                                    if frames is not None else None)
                            if lblk is not None and lblk.state is not _I:
                                lblk.persistent = True
                            pclk = clock + P[mord[m]] - P[idx]
                            on_pstore(c, b, blk.data, pclk + 1)
                            priv_records.append(
                                (pclk, c, b + soff_t[c][si], ssiz_t[c][si],
                                 sval_t[c][si]))
                            pstores += 1
                # LRU: each op stamps the array use-clock in order, but
                # only a block's *last* stamp in the window is observable
                # — one write per run instead of one per op.
                rend = rend_t[c]
                m = mp
                while m < me:
                    e = rend[m]
                    if e > me:
                        e = me
                    sblks[rix[m] - rbase].last_use = use0 + e - mp
                    m = e
                l1._use = use0 + (me - mp)
                new_clock = clock + P[j] - P[idx]
                cs = core_stats[c]
                if loads:
                    cs.loads += loads
                    cs.l1_hits += loads
                if stores:
                    cs.stores += stores
                    if pstores:
                        cs.persisting_stores += pstores
                # Loads and stores have fixed private costs, so compute
                # cycles are the remainder of the clock advance.
                comp = (new_clock - clock - loads * load_cost
                        - stores * store_cost)
                if comp:
                    cs.compute_cycles += comp
                clocks[c] = new_clock
                indices[c] = j
                mpos[c] = me
                executed += j - idx

            if s_core < 0:
                break  # drained

            # -- (4) the shared op runs through the exact per-op path ------
            i = indices[s_core]
            op = (ops_pc[s_core][i] if ops_pc is not None
                  else cols.op_at(s_core, i))
            indices[s_core] = i + 1
            mpos[s_core] = park_mem[s_core] + 1
            shared_ops += 1
            s_pop = park_clock[s_core]
            pairs_before = len(committed)
            try:
                clock = execute(s_core, op, s_pop, result,
                                flush_outstanding[s_core])
                clocks[s_core] = clock
                executed += 1
                if persists_private and len(committed) > pairs_before:
                    shared_tags.append((s_pop, s_core))
            except CrashNow as crash:  # pragma: no cover - defensive: the
                # eligibility gate excludes every built-in crash source, but
                # a plugin scheme hook could still raise.
                clocks[s_core] = max(clocks[s_core], s_pop)
                result.crashed = True
                result.crash_op = executed
                result.crash_point = crash.point
                if persists_private and len(committed) > pairs_before:
                    shared_tags.append((s_pop, s_core))
                break

            # -- (5) invalidate scans the shared op may have stale-ified ---
            valid[s_core] = False
            if conservative:
                for c in cores:
                    valid[c] = False
            else:
                for c in cores:
                    if valid[c] and l1_versions[c] != seen[c]:
                        valid[c] = False

        if priv_records:
            # Records were captured out of global order (private persists
            # are deferred): rebuild both lists in exact heap order.  Every
            # record-producing op advances its core's clock, so the
            # (pop clock, core) keys are unique and the sort reproduces the
            # object interpreter's pop order — and with it the seq
            # numbering — exactly.  Only the last committed record can lack
            # its performed twin (defensive crash path).
            performed = result.performed_persists
            npairs = len(performed)
            entries = [
                (tag[0], tag[1], rec.addr, rec.size, rec.value, j < npairs)
                for j, (rec, tag) in enumerate(zip(committed, shared_tags))
            ]
            entries.extend(
                (clk, cr, addr, sz, v, True)
                for clk, cr, addr, sz, v in priv_records
            )
            # Keys are unique, so the bare lexicographic tuple sort never
            # compares past (clock, core) — no key function needed.
            entries.sort()
            seq = seq_base
            committed_rows = []
            performed_rows = []
            capp = committed_rows.append
            papp = performed_rows.append
            for clk, cr, addr, sz, v, paired in entries:
                seq += 1
                capp((cr, addr, sz, v, seq))
                if paired:
                    seq += 1
                    papp((cr, addr, sz, v, seq))
            committed[:] = map(PersistRecord._make, committed_rows)
            performed[:] = map(PersistRecord._make, performed_rows)
            self._seq = seq

        counters["phases"] = phases
        counters["private_ops"] = executed - shared_ops
        counters["shared_ops"] = shared_ops
        counters["rescans"] = rescans
        counters["scanned_ops"] = scanned_ops
        return executed

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
        kind = op.kind
        if kind is OpKind.STORE:
            return self._commit_store(core, op, now, result)

        if kind is OpKind.COMPUTE:
            self.stats.core[core].compute_cycles += op.cycles
            return now + op.cycles

        if kind is OpKind.LOAD:
            forwarded = self._store_buffers[core].forward(op.addr, op.size)
            if forwarded is not None:
                self.stats.core[core].sb_forwards += 1
                self.stats.core[core].loads += 1
                if self._log_enabled:
                    result.log.append(
                        LogRecord(LogKind.LOAD, core, op.addr, op.size, forwarded)
                    )
                return now + 1
            value, done = self.hierarchy.load(core, op.addr, op.size, now)
            if self._log_enabled:
                # NOTE: under TSO, unreleased remote SB entries do not exist
                # (release is eager), so the hierarchy value is the
                # architectural one.  Under RELAXED, remote cores' buffered
                # stores are not yet visible — the log captures that.
                value_with_local = value
                result.log.append(
                    LogRecord(LogKind.LOAD, core, op.addr, op.size, value_with_local)
                )
            return done

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
    # Store buffer handling
    # ------------------------------------------------------------------
    def _commit_store(
        self, core: int, op: TraceOp, now: int, result: RunResult
    ) -> int:
        sb = self._store_buffers[core]
        if self._tso_direct and not len(sb):
            # TSO fast path: release is eager, so by the time a store
            # commits the buffer is empty again — the entry would be pushed
            # and immediately popped.  Skip the round trip; the observable
            # behaviour (records, stats, timing) is identical.
            addr, size, value = op.addr, op.size, op.value
            persistent = self._is_persistent(addr)
            if persistent:
                self._seq += 1
                result.committed_persists.append(
                    PersistRecord(core, addr, size, value, self._seq)
                )
            now += 1  # commit cost
            done, persistent = self.hierarchy.store(core, addr, size, value, now)
            if self._log_enabled:
                result.log.append(LogRecord(LogKind.STORE, core, addr, size, value))
            if persistent:
                self._seq += 1
                result.performed_persists.append(
                    PersistRecord(core, addr, size, value, self._seq)
                )
            return done
        if self._tso and not len(sb):
            return self._commit_store_observed(core, op, now, result, sb)

        if sb.full:
            now = self._release_oldest(core, now, result)
        persistent = self.config.mem.is_persistent(op.addr)
        sb.push(op.addr, op.value, op.size, persistent, now)
        if persistent:
            self._seq += 1
            result.committed_persists.append(
                PersistRecord(core, op.addr, op.size, op.value, self._seq)
            )
        now += 1  # commit cost

        if self.consistency is ConsistencyModel.TSO:
            return self._release_all(core, now, result)
        return self._release_relaxed(core, now, result)

    def _commit_store_observed(
        self, core: int, op: TraceOp, now: int, result: RunResult, sb
    ) -> int:
        """The TSO fast path under a crash schedule: the same records,
        stats, timing and event stream (no SB events), with the store held
        in the SB's release slot while the hierarchy performs it — where a
        crash point inside the store must find it."""
        persistent = self._is_persistent(op.addr)
        if persistent:
            self._seq += 1
            result.committed_persists.append(
                PersistRecord(core, op.addr, op.size, op.value, self._seq)
            )
        entry = sb.releasing = SBEntry(op.addr, op.size, op.value, 0,
                                       persistent)
        now = self._release_entry(core, entry, now + 1, result)  # +1: commit
        sb.releasing = None
        return now

    def _release_entry(self, core: int, entry, now: int, result: RunResult) -> int:
        done, persistent = self.hierarchy.store(
            core, entry.addr, entry.size, entry.value, now
        )
        if self._log_enabled:
            result.log.append(
                LogRecord(LogKind.STORE, core, entry.addr, entry.size, entry.value)
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
            if self._rng.random() < self._release_probability:
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

    # ------------------------------------------------------------------
    # Streaming ingestion
    # ------------------------------------------------------------------
    def stream(self) -> "EngineStream":
        """Open a streaming ingestion session (see :class:`EngineStream`).

        An :class:`Engine` is single-shot: use either :meth:`run` or one
        stream per engine, never both."""
        return EngineStream(self)

    def run_stream(
        self,
        streams: Sequence[Iterable[TraceOp]],
        chunk: int = 256,
        finalize: bool = True,
    ) -> RunResult:
        """Execute per-core op iterables incrementally, pulling ``chunk``
        ops at a time from whichever core the engine starves on.

        Equivalent to materializing the iterables into a
        :class:`~repro.sim.trace.ProgramTrace` and calling :meth:`run` —
        bit-identical stats and persist records — without ever holding
        more than the in-flight chunks in memory.
        """
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        num_cores = self.config.num_cores
        if len(streams) > num_cores:
            raise ValueError(
                f"{len(streams)} op streams but the system has "
                f"{num_cores} cores"
            )
        iters = [iter(s) for s in streams]
        session = self.stream()

        def refill(core: int) -> None:
            batch = list(islice(iters[core], chunk))
            if batch:
                session.feed(core, batch)
            else:
                session.end(core)

        for core in range(len(iters)):
            refill(core)
        for core in range(len(iters), num_cores):
            session.end(core)
        while True:
            needy = session.pump()
            if needy is None:
                break
            refill(needy)
        return session.finish(finalize=finalize)


class EngineStream:
    """Incremental, request-driven execution session over one
    :class:`Engine`.

    Instead of materializing a whole :class:`~repro.sim.trace.ProgramTrace`
    up front, a caller *feeds* ops to per-core queues and *pumps* the
    engine, which executes exactly as far as it can while preserving the
    deterministic smallest-clock interleaving of :meth:`Engine.run`:

    * ``pump()`` executes ops only while the globally next heap key
      ``(clock, core)`` belongs to a core with buffered work.  When the
      next key belongs to a core whose queue is empty (and that has not
      been :meth:`end`-ed or marked :meth:`idle`), the pump *starves* and
      returns that core's index — backpressure telling the caller which
      stream the engine needs next.  This is what makes streamed ingestion
      bit-identical to a materialized run: an op fed later to the starved
      core could order before anything currently buffered elsewhere.
    * ``feed(core, ops)`` appends ops to a core's queue; ``end(core)``
      declares a stream complete; ``idle(core)`` temporarily removes a
      core from the starvation barrier (closed-loop serving: the core has
      no request in flight, so it cannot block global progress — a later
      ``feed`` re-arms it).
    * ``advance(core, cycle)`` moves an (empty-queued) core's clock
      forward to a request arrival time, modelling the gap between
      requests in an open-loop workload.
    * ``finish()`` ends every core, drains, and settles the run exactly
      like :meth:`Engine.run`'s completion path, returning the
      :class:`RunResult`.

    Because a core's clock only moves when its own ops execute, a starved
    core's clock is exactly the completion cycle of the last op it was
    fed — per-request latency falls out of ``clock(core)`` with no per-op
    completion callbacks (:mod:`repro.serve` builds on this).

    Sessions always run on the per-op interpreter, whatever the engine's
    mode: a columnar window per pump would rebuild its prep tables for
    every request-sized batch of ops, which costs far more than it saves.
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        n = engine.config.num_cores
        self.num_cores = n
        self.result = RunResult(stats=engine.stats)
        self.clocks = [0] * n
        self.flush_outstanding: List[List[int]] = [[] for _ in range(n)]
        self.executed = 0
        self._pending: List[Deque[TraceOp]] = [deque() for _ in range(n)]
        self._ended = [False] * n
        self._idle = [False] * n
        self._finished = False
        schedule = engine.hierarchy.crash_schedule
        self._schedule = schedule
        self._schedule_on = schedule.enabled

    # -- ingestion -----------------------------------------------------
    def clock(self, core: int) -> int:
        """Core ``core``'s cycle clock — after a starve, the completion
        cycle of the last op it executed."""
        return self.clocks[core]

    def feed(self, core: int, ops: Iterable[TraceOp]) -> None:
        """Append ops to ``core``'s queue (clears an ``idle`` mark)."""
        if self._finished:
            raise RuntimeError("stream already finished")
        if self._ended[core]:
            raise ValueError(f"core {core} already ended")
        self._idle[core] = False
        self._pending[core].extend(ops)

    def end(self, core: int) -> None:
        """Declare ``core``'s stream complete; it stops blocking pumps
        once its queue drains, and may not be fed again."""
        self._ended[core] = True
        self._idle[core] = False

    def idle(self, core: int) -> None:
        """Remove an empty-queued core from the starvation barrier until
        the next :meth:`feed` (closed-loop: no request in flight)."""
        if self._pending[core]:
            raise ValueError(f"core {core} has buffered ops; cannot idle")
        self._idle[core] = True

    def advance(self, core: int, cycle: int) -> None:
        """Move an empty-queued core's clock forward to ``cycle`` (no-op
        if its clock is already past), modelling inter-request gaps."""
        if self._pending[core]:
            raise ValueError(f"core {core} has buffered ops; cannot advance")
        if cycle > self.clocks[core]:
            self.clocks[core] = cycle

    # -- execution -----------------------------------------------------
    def pump(self) -> Optional[int]:
        """Execute every buffered op that can run without violating the
        global interleaving.  Returns the index of the core the engine
        starved on (feed, idle, or end it, then pump again), or ``None``
        when nothing blocks progress — every non-ended core is idle or
        the session is fully drained (or crashed)."""
        if self._finished:
            raise RuntimeError("stream already finished")
        if self.result.crashed:
            return None
        execute = self.engine._execute
        result = self.result
        clocks = self.clocks
        pending = self._pending
        ended = self._ended
        idle = self._idle
        fo = self.flush_outstanding
        schedule_on = self._schedule_on
        schedule = self._schedule
        executed = self.executed
        # Same order as Engine.run's min-heap: smallest clock wins, ties
        # break toward the lower core index.  Cores with an empty queue
        # that are neither ended nor idle stay in the heap as barriers.
        heap = [(clocks[c], c) for c in range(self.num_cores)
                if pending[c] or not (ended[c] or idle[c])]
        heapq.heapify(heap)
        while heap:
            clock, core = heapq.heappop(heap)
            queue = pending[core]
            if not queue:
                self.executed = executed
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
                    clock = execute(core, op, clock, result, flushes)
                    clocks[core] = clock
                    executed += 1
                    if schedule_on:
                        schedule.reached(SITE_OP, clock)
                except CrashNow as crash:
                    self.executed = executed
                    result.crashed = True
                    result.crash_op = executed
                    result.crash_point = crash.point
                    return None
                if not queue or (limit is not None and clock >= limit):
                    break
            if queue or not (ended[core] or idle[core]):
                heapq.heappush(heap, (clock, core))
        self.executed = executed
        return None

    # -- completion ----------------------------------------------------
    def finish(self, finalize: bool = True) -> RunResult:
        """End every core, drain all buffered ops, and settle the run
        exactly as :meth:`Engine.run` does on completion."""
        if self._finished:
            return self.result
        for core in range(self.num_cores):
            self._ended[core] = True
            self._idle[core] = False
        self.pump()
        self._finished = True
        return self.engine._epilogue(
            self.result, self.clocks, self.flush_outstanding,
            self.executed, finalize,
        )
