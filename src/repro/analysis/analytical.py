"""Closed-form analytical performance model (``repro run --mode analytical``).

Instead of stepping the discrete simulator op by op, this module derives
the headline metrics — execution cycles, NVMM write traffic, persist-buffer
occupancy/drains/stalls — from *statistics of the trace* plus the system
configuration, in one cheap pass:

1. **Structural pass** (O(total ops), no hierarchy objects): each thread's
   ops are folded into *runs* — maximal chains of consecutive same-block
   memory operations.  Within a run only the leading access can miss the
   L1, so cache behaviour is decided per run, not per op.
2. **Cache-content estimate**: runs are interleaved across threads in
   estimated-clock order (a heap, exactly like the engine's scheduler) over
   small LRU models of the per-core L1s and the shared LLC, with a
   last-writer map supplying MESI invalidation/intervention effects.  This
   yields per-thread miss counts and their latency penalties.
3. **Closed-form composition**: per-thread cycles are the private floor
   (``hit_latency``-priced loads, ``STORE_COMMIT_CYCLES + 1``-priced
   stores, compute cycles) plus the charged penalties; execution time is
   the slowest thread.  Persistence traffic follows the scheme's
   *capability flags* from the registry — never its name:

   * ``has_persist_buffer`` — allocations = persist runs, coalesces =
     persisting stores − allocations, steady-state drains =
     ``max(0, allocations − cores·(threshold_entries − 1))`` (the
     threshold drainer parks each buffer just below the threshold).
   * ``pop == POP_FLUSH`` — write-through discipline: every persisting
     store is flushed, so NVMM writes ≈ persisting stores and each one
     stalls the core for roughly the WPQ round trip.
   * otherwise (no persist buffer, PoP at store commit: eADR, no
     persistency) — durability rides on natural eviction: NVMM writes =
     dirty persistent LLC evictions observed in the pass.

Accuracy contract
-----------------

:data:`TOLERANCE` declares the validated relative-error bands on the
``repro bench`` engine grid (TSO, no explicit flush/fence traffic);
:func:`validate_against_sim` checks an estimate against a discrete-sim
:class:`~repro.sim.stats.SimStats` and is wired into the bench smoke gate.
Op counts (loads / stores / persisting stores) are exact by construction.
Schemes that stall on explicit persist instructions (PoP at the flush)
fall outside the validated band; the model still produces an estimate but
flags it ``calibrated=False``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.core.registry import POP_FLUSH, scheme_info
from repro.mem.block import block_address
from repro.mem.hierarchy import C2C_EXTRA_CYCLES, STORE_COMMIT_CYCLES
from repro.sim.config import BBBConfig, SystemConfig
from repro.sim.stats import CoreStats, SimStats
from repro.sim.trace import OpKind, ProgramTrace

#: Validated relative-error bands (|analytical − sim| / max(sim, 1)) on the
#: ``repro bench`` engine grid.  Measured worst cases sit well inside these
#: (cycles within a few percent, NVMM writes within ~15%); the bands leave
#: headroom for workload drift.  Checked by :func:`validate_against_sim`.
TOLERANCE: Dict[str, float] = {
    "execution_cycles": 0.20,
    "nvmm_writes": 0.35,
}

#: Fields the estimate reproduces exactly (they are trace statistics, not
#: model outputs).
EXACT_FIELDS: Tuple[str, ...] = (
    "total_loads", "total_stores", "total_persisting_stores",
)


@dataclass
class AnalyticalEstimate:
    """Closed-form estimate of one run, plus model provenance."""

    scheme: str
    num_cores: int
    #: A :class:`SimStats` carrying the estimated counters, shaped exactly
    #: like the discrete sim's so reports/serialisers work unchanged.
    stats: SimStats
    #: Estimated steady-state resident entries per persist buffer
    #: (0.0 for schemes without one).
    occupancy: float
    #: Estimated drains issued while running (steady state, pre-finalize).
    drains: int
    #: Estimated persist-related stall cycles across all cores.
    stall_cycles: int
    #: Whether the scheme falls inside the validated tolerance band.
    calibrated: bool
    #: Intermediate model quantities, for reports and debugging.
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def execution_cycles(self) -> int:
        return self.stats.execution_cycles

    @property
    def nvmm_writes(self) -> int:
        return self.stats.nvmm_writes


# ----------------------------------------------------------------------
# Structural pass: ops -> per-thread run lists
# ----------------------------------------------------------------------

def _thread_runs(trace: ProgramTrace, config: SystemConfig):
    """Fold each thread's ops into run tuples
    ``[baddr, leader_is_load, n_loads, n_stores, n_pstores, priv_cost]``
    plus per-thread op totals.

    ``priv_cost`` is the run's private execution floor: compute cycles and
    flush retire cycles accumulated since the previous run, plus the
    hit-priced cost of the run's own memory ops.  Penalties for the (at
    most one) leading miss are charged later by the interleave pass.
    """
    block_size = config.block_size
    is_p = config.mem.is_persistent
    load_cost = config.l1d.hit_latency
    store_cost = STORE_COMMIT_CYCLES + 1
    LOAD, COMPUTE = OpKind.LOAD, OpKind.COMPUTE
    FLUSH, FENCE, EPOCH = OpKind.FLUSH, OpKind.FENCE, OpKind.EPOCH

    runs_t: List[List[list]] = []
    totals_t: List[Dict[str, int]] = []
    for thread in trace.threads:
        runs: List[list] = []
        tot = {"loads": 0, "stores": 0, "pstores": 0, "compute": 0,
               "flushes": 0, "fences": 0, "epochs": 0}
        pending = 0  # private cost accrued since the last run boundary
        cur = -1
        run = None
        for op in thread.ops:
            k = op.kind
            if k is COMPUTE:
                pending += op.cycles
                tot["compute"] += op.cycles
                continue
            if k is FLUSH:
                tot["flushes"] += 1
                pending += 1  # clwb retires in one cycle (async writeback)
                cur = -1
                continue
            if k is FENCE:
                tot["fences"] += 1
                cur = -1
                continue
            if k is EPOCH:
                tot["epochs"] += 1
                cur = -1
                continue
            baddr = block_address(op.addr, block_size)
            if baddr != cur:
                run = [baddr, k is LOAD, 0, 0, 0, pending]
                runs.append(run)
                pending = 0
                cur = baddr
            if k is LOAD:
                tot["loads"] += 1
                run[2] += 1
                run[5] += load_cost
            else:
                tot["stores"] += 1
                run[3] += 1
                run[5] += store_cost
                if is_p(op.addr):
                    tot["pstores"] += 1
                    run[4] += 1
        runs_t.append(runs)
        totals_t.append(tot)
    return runs_t, totals_t


# ----------------------------------------------------------------------
# Cache-content estimate: interleaved LRU pass over the runs
# ----------------------------------------------------------------------

class _SetLRU:
    """Per-set LRU model of one set-associative cache level.  Entries are
    ``[dirty, persistent]`` lists; eviction reports go to the caller."""

    __slots__ = ("sets", "mod", "mask", "shift", "assoc")

    def __init__(self, cfg) -> None:
        num_sets = cfg.num_sets
        self.sets: List[OrderedDict] = [
            OrderedDict() for _ in range(num_sets)
        ]
        self.mod = num_sets
        self.mask = num_sets - 1 if num_sets & (num_sets - 1) == 0 else None
        self.shift = cfg.block_size.bit_length() - 1
        self.assoc = cfg.assoc

    def set_for(self, baddr: int) -> OrderedDict:
        idx = baddr >> self.shift
        idx = idx & self.mask if self.mask is not None else idx % self.mod
        return self.sets[idx]

    def get(self, baddr: int):
        s = self.set_for(baddr)
        ent = s.get(baddr)
        if ent is not None:
            s.move_to_end(baddr)
        return ent

    def insert(self, baddr: int, entry: list):
        """Insert; returns the evicted ``(baddr, entry)`` or ``None``."""
        s = self.set_for(baddr)
        s[baddr] = entry
        if len(s) > self.assoc:
            return s.popitem(last=False)
        return None

    def pop(self, baddr: int):
        return self.set_for(baddr).pop(baddr, None)

    def entries(self):
        for s in self.sets:
            yield from s.values()


def _interleave_pass(runs_t, config: SystemConfig,
                     persist_threshold: Optional[int] = None):
    """Merge the per-thread run lists in estimated-clock order and play
    them over set-associative LRU models of the L1s and LLC.

    Returns per-thread ``(cycles, l1_misses)`` plus shared counters:
    llc hits/misses/evictions, memory reads by type, the dirty /
    dirty-persistent eviction counts the persistence models consume, and —
    when ``persist_threshold`` is given — per-core persist-buffer
    allocation/coalesce/drain/remove counts from FCFS threshold-drain
    buffers tracked alongside the caches (Table II remove-without-drain
    included: a remote store evicts the holder's resident entry).
    """
    n_threads = len(runs_t)
    llc_pen = config.llc.hit_latency
    nvmm_pen = config.mem.nvmm_read_cycles
    dram_pen = config.mem.dram_read_cycles
    is_p = config.mem.is_persistent

    # entry value = [dirty, persistent]
    l1: List[_SetLRU] = [_SetLRU(config.l1d) for _ in range(n_threads)]
    llc = _SetLRU(config.llc)
    copies: Dict[int, set] = {}
    dirty_owner: Dict[int, int] = {}

    # Optional persist-buffer occupancy model (FCFS, drain at threshold).
    track_bbpb = persist_threshold is not None
    resident_cap = max(0, (persist_threshold or 1) - 1)
    bbpb: List[OrderedDict] = [OrderedDict() for _ in range(n_threads)]

    clock = [0] * n_threads
    l1_miss = [0] * n_threads
    shared = {
        "llc_hits": 0, "llc_misses": 0, "llc_evictions": 0,
        "nvmm_reads": 0, "dram_reads": 0, "dram_writes": 0,
        "evict_dirty_persistent": 0, "llc_writebacks": 0,
        "bbpb_allocations": 0, "bbpb_coalesces": 0, "bbpb_drains": 0,
        "bbpb_removes": 0,
    }

    def llc_touch(b: int, dirty: bool, persistent: bool) -> None:
        ent = llc.get(b)
        if ent is not None:
            ent[0] = ent[0] or dirty
            ent[1] = ent[1] or persistent
            return
        evicted = llc.insert(b, [dirty, persistent])
        if evicted is not None:
            _, (ed, ep) = evicted
            shared["llc_evictions"] += 1
            if ed:
                shared["llc_writebacks"] += 1
                if ep:
                    shared["evict_dirty_persistent"] += 1
                else:
                    shared["dram_writes"] += 1

    heap = [(0, t, 0) for t in range(n_threads) if runs_t[t]]
    heapify(heap)
    while heap:
        now, t, ridx = heappop(heap)
        baddr, leader_load, _nld, nst, npst, cost = runs_t[t][ridx]
        penalty = 0
        l1t = l1[t]
        ent = l1t.get(baddr)
        if ent is None:
            if leader_load:
                l1_miss[t] += 1
            owner = dirty_owner.get(baddr)
            oent = (l1[owner].set_for(baddr).get(baddr)
                    if owner is not None and owner != t else None)
            if oent is not None and oent[0]:
                # Dirty copy in a remote L1: cache-to-cache intervention.
                oent[0] = False
                llc_touch(baddr, dirty=True, persistent=oent[1])
                dirty_owner.pop(baddr, None)
                shared["llc_hits"] += 1
                if leader_load:
                    penalty += llc_pen + C2C_EXTRA_CYCLES
            elif llc.get(baddr) is not None:
                shared["llc_hits"] += 1
                if leader_load:
                    penalty += llc_pen
            else:
                shared["llc_misses"] += 1
                if is_p(baddr):
                    shared["nvmm_reads"] += 1
                    if leader_load:
                        penalty += llc_pen + nvmm_pen
                else:
                    shared["dram_reads"] += 1
                    if leader_load:
                        penalty += llc_pen + dram_pen
                llc_touch(baddr, dirty=False, persistent=False)
            ent = [False, False]
            evicted = l1t.insert(baddr, ent)
            if evicted is not None:
                eb, (ed, ep) = evicted
                if ed:
                    llc_touch(eb, dirty=True, persistent=ep)
                    if dirty_owner.get(eb) == t:
                        dirty_owner.pop(eb, None)
                cset = copies.get(eb)
                if cset is not None:
                    cset.discard(t)
                    if not cset:
                        copies.pop(eb, None)
        if nst:
            cset = copies.get(baddr)
            if cset:
                for u in tuple(cset):
                    if u == t:
                        continue
                    rent = l1[u].pop(baddr)
                    if rent is not None and rent[0]:
                        llc_touch(baddr, dirty=True, persistent=rent[1])
                    if track_bbpb and bbpb[u].pop(baddr, None) is not None:
                        # Table II: remote store removes the holder's
                        # resident entry without draining it.
                        shared["bbpb_removes"] += 1
            copies[baddr] = {t}
            ent[0] = True
            if npst:
                ent[1] = True
                if track_bbpb:
                    buf = bbpb[t]
                    if baddr in buf:
                        shared["bbpb_coalesces"] += 1
                    else:
                        shared["bbpb_allocations"] += 1
                        buf[baddr] = True
                        if len(buf) > resident_cap:
                            buf.popitem(last=False)  # FCFS threshold drain
                            shared["bbpb_drains"] += 1
            dirty_owner[baddr] = t
        else:
            copies.setdefault(baddr, set()).add(t)
        now += cost + penalty
        clock[t] = now
        if ridx + 1 < len(runs_t[t]):
            heappush(heap, (now, t, ridx + 1))

    # Blocks still resident and dirty at end of run (for finalize).
    resident_dp = sum(1 for d, p in llc.entries() if d and p)
    for l1t in l1:
        for d, p in l1t.entries():
            if d and p:
                resident_dp += 1
    shared["resident_dirty_persistent"] = resident_dp
    shared["bbpb_resident"] = sum(len(b) for b in bbpb)
    return clock, l1_miss, shared


# ----------------------------------------------------------------------
# Closed-form persistence composition (capability-dispatched)
# ----------------------------------------------------------------------

def _persist_model(info, config: SystemConfig, totals_t, runs_t, shared,
                   num_cores: int, finalize: bool, entries: Optional[int]):
    """Derive persist-buffer occupancy / drains / stalls / NVMM writes from
    the scheme's registry capabilities.  Returns
    ``(occupancy, allocations, coalesces, drains, dropped, stalls,
    nvmm_writes, per_core_stall)``."""
    pstores = sum(t["pstores"] for t in totals_t)

    if info.has_persist_buffer:
        cap = entries if entries is not None else BBBConfig.entries
        threshold = max(1, int(cap * BBBConfig.drain_threshold))
        # The interleave pass tracked FCFS threshold-drain buffers; read
        # its counts (they include cross-thread removes and re-allocation
        # after drains, which the pure closed form misses).
        allocations = shared["bbpb_allocations"]
        coalesces = max(0, pstores - allocations)
        steady_drains = shared["bbpb_drains"]
        drains = (steady_drains + shared["bbpb_resident"] if finalize
                  else steady_drains)
        occupancy = (shared["bbpb_resident"] / num_cores
                     if num_cores else 0.0)
        # Stall pressure: a core stalls only when allocations outpace the
        # drain round trip (mc transfer + WPQ accept) with the headroom
        # between threshold and capacity already in flight.
        drain_rt = (config.mem.mc_transfer_cycles
                    + config.mem.wpq_accept_cycles)
        headroom = max(1, cap - threshold + 1)
        per_core_alloc = allocations / num_cores if num_cores else 0.0
        est_span = max(1, max(
            (sum(r[5] for r in runs) for runs in runs_t), default=1))
        alloc_interval = (est_span / per_core_alloc
                          if per_core_alloc else float("inf"))
        pressure = drain_rt / (alloc_interval * headroom)
        stalls = 0
        if pressure > 1.0:
            stalls = int((pressure - 1.0) * alloc_interval * per_core_alloc
                         * num_cores)
        dropped = shared["evict_dirty_persistent"]
        return (occupancy, allocations, coalesces, drains, dropped,
                stalls, drains, [stalls // max(1, num_cores)] * num_cores)

    if info.pop == POP_FLUSH:
        # Write-through discipline: every persisting store is flushed and
        # fenced, stalling the core for roughly the WPQ round trip.
        writes = pstores
        per_core_stall = []
        stall_each = (config.llc.hit_latency
                      + config.mem.mc_transfer_cycles
                      + config.mem.wpq_accept_cycles)
        for tot in totals_t:
            per_core_stall.append(tot["pstores"] * stall_each)
        return (0.0, 0, 0, 0, 0, sum(per_core_stall), writes,
                per_core_stall)

    # eADR-class (or no persistency): durability rides on natural
    # eviction.  NVMM writes = dirty persistent blocks leaving the LLC,
    # plus (on finalize) everything still resident.
    writes = shared["evict_dirty_persistent"]
    if finalize:
        writes += shared["resident_dirty_persistent"]
    return 0.0, 0, 0, 0, 0, 0, writes, [0] * num_cores


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------

def analytical_estimate(
    trace: ProgramTrace,
    scheme: str,
    config: Optional[SystemConfig] = None,
    *,
    entries: Optional[int] = None,
    finalize: bool = False,
) -> AnalyticalEstimate:
    """Estimate a run of ``trace`` under scheme ``scheme`` in closed form.

    ``entries`` overrides the persist-buffer capacity (as
    ``build_system(..., entries=...)`` would); ``finalize`` mirrors
    ``System.run(finalize=...)`` — when True, buffered/resident persistent
    data is counted as written out at the end of the run.
    """
    config = config or SystemConfig()
    info = scheme_info(scheme)
    num_cores = config.num_cores

    runs_t, totals_t = _thread_runs(trace, config)
    persist_threshold = None
    if info.has_persist_buffer:
        cap = entries if entries is not None else BBBConfig.entries
        persist_threshold = max(1, int(cap * BBBConfig.drain_threshold))
    clock, l1_miss, shared = _interleave_pass(
        runs_t, config, persist_threshold=persist_threshold)

    (occupancy, allocations, coalesces, drains, dropped, stalls,
     nvmm_writes, per_core_stall) = _persist_model(
        info, config, totals_t, runs_t, shared, num_cores, finalize, entries)

    stats = SimStats(num_cores=num_cores)
    for t in range(num_cores):
        cs: CoreStats = stats.core[t]
        if t < len(totals_t):
            tot = totals_t[t]
            cs.loads = tot["loads"]
            cs.stores = tot["stores"]
            cs.persisting_stores = tot["pstores"]
            cs.compute_cycles = tot["compute"]
            cs.l1_misses = l1_miss[t]
            cs.l1_hits = tot["loads"] - l1_miss[t]
            stall = per_core_stall[t] if t < len(per_core_stall) else 0
            cs.stall_cycles_bbpb_full = stall
            cs.cycles = (clock[t] if t < len(clock) else 0) + stall
            stats.flushes += tot["flushes"]
            stats.fences += tot["fences"]
            stats.epoch_barriers += tot["epochs"]
    stats.nvmm_writes = nvmm_writes
    stats.nvmm_reads = shared["nvmm_reads"]
    stats.dram_reads = shared["dram_reads"]
    stats.dram_writes = shared["dram_writes"]
    stats.llc_hits = shared["llc_hits"]
    stats.llc_misses = shared["llc_misses"]
    stats.llc_evictions = shared["llc_evictions"]
    stats.llc_writebacks = shared["llc_writebacks"]
    stats.bbpb_allocations = allocations
    stats.bbpb_coalesces = coalesces
    stats.bbpb_drains = drains
    if info.has_persist_buffer:
        stats.llc_writebacks_dropped = dropped

    return AnalyticalEstimate(
        scheme=info.name,
        num_cores=num_cores,
        stats=stats,
        occupancy=occupancy,
        drains=drains,
        stall_cycles=stalls,
        calibrated=info.pop != POP_FLUSH,
        detail={
            "persist_runs": float(allocations),
            "evict_dirty_persistent": float(
                shared["evict_dirty_persistent"]),
            "resident_dirty_persistent": float(
                shared["resident_dirty_persistent"]),
            "runs": float(sum(len(r) for r in runs_t)),
        },
    )


def validate_against_sim(
    estimate: AnalyticalEstimate,
    sim_stats: SimStats,
    tolerance: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """Compare an estimate against discrete-sim stats.

    Returns ``{"ok": bool, "errors": {metric: rel_err}, "exact_ok": bool}``
    where ``rel_err = |analytical − sim| / max(|sim|, 1)``.  ``ok`` only
    applies the bands for calibrated schemes; exact fields must always
    match.
    """
    tol = dict(TOLERANCE)
    if tolerance:
        tol.update(tolerance)
    errors: Dict[str, float] = {}
    for metric, band in tol.items():
        sim_val = getattr(sim_stats, metric)
        est_val = getattr(estimate.stats, metric)
        errors[metric] = abs(est_val - sim_val) / max(abs(sim_val), 1)
    exact_ok = all(
        getattr(estimate.stats, f) == getattr(sim_stats, f)
        for f in EXACT_FIELDS
    )
    within = all(errors[m] <= tol[m] for m in tol)
    ok = exact_ok and (within or not estimate.calibrated)
    return {"ok": ok, "errors": errors, "exact_ok": exact_ok,
            "calibrated": estimate.calibrated}
