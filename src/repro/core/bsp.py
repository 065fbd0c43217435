"""Bulk Strict Persistency (BSP) baseline — Joshi et al., MICRO 2015 [43].

BSP is the prior-art approach the paper contrasts BBB against in Table I:
instead of *closing* the PoV/PoP gap, BSP *hides* it.  Stores buffer in
volatile, program-ordered per-core persist buffers and drain lazily; but
"if a store value has not persisted but is requested by another
thread/core, it (and older stores) are persisted first before responding
to the request."  The illusion of strict persistency is preserved at the
cost of protocol complexity and delayed coherence responses — the
"Medium" strict-persistency penalty of Table I — and the PoP stays at the
memory controller, so programs still crash-recover only to a per-core
*prefix* of their committed persists (nothing buffered survives).

Implementation notes:

* the volatile buffer reuses :class:`~repro.core.bbpb.ProcessorSideBBPB`
  (ordered records, in-order drain) without battery semantics: the
  scheme declares no battery residue, so on a crash the contents simply
  vanish;
* remote invalidation/intervention of a buffered block synchronously
  drains the holder's buffer through that block and *charges the delay to
  the requesting core* (the paper: BSP "delays responses to external
  requests");
* an LLC eviction of a block with unpersisted buffered stores must also
  drain first — otherwise the eviction writeback would persist a younger
  value ahead of older unpersisted stores, breaking strict ordering;
* the persist latency (PoV -> PoP) of every store is recorded, giving the
  quantitative PoV/PoP-gap comparison of ``benchmarks/test_povpop_gap.py``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.bbpb import ProcessorSideBBPB
from repro.core.drain import wpq_drain_sink
from repro.core.persistency import PersistencyScheme
from repro.mem.block import BlockData, CacheBlock
from repro.obs.events import STALL_BBPB_FULL, StallBegin, StallEnd
from repro.sim.config import BBBConfig


class BSP(PersistencyScheme):
    """Bulk Strict Persistency with volatile, program-ordered buffers."""

    def __init__(self, entries: int = 32) -> None:
        super().__init__()
        self.entries = entries
        self.buffers: List[ProcessorSideBBPB] = []
        #: per-core map of buffered block -> visibility time, for PoV/PoP
        #: gap accounting.
        self._visible_at: dict = {}

    def attach(self, hierarchy) -> None:
        super().attach(hierarchy)
        cfg = BBBConfig(
            entries=self.entries,
            memory_side=False,
            proc_coalesce_consecutive=True,
        )
        self.buffers = [
            ProcessorSideBBPB(cfg, core, wpq_drain_sink(hierarchy, core),
                              hierarchy.stats, bus=hierarchy.bus)
            for core in range(hierarchy.config.num_cores)
        ]

    # ------------------------------------------------------------------
    # Introspection (shared with the bbPB-based schemes)
    # ------------------------------------------------------------------
    def bbpb_for(self, core: int):
        return self.buffers[core]

    def bbpb_owner_of(self, block_addr: int) -> Optional[int]:
        for buf in self.buffers:
            if buf.contains(block_addr):
                return buf.core_id
        return None

    # ------------------------------------------------------------------
    # Store path
    # ------------------------------------------------------------------
    def on_persisting_store(
        self, core: int, block_addr: int, block_data: BlockData, now: int
    ) -> int:
        assert self.hierarchy is not None
        h = self.hierarchy
        stall, _ = self.buffers[core].put(block_addr, block_data, now)
        if stall:
            h.stats.core[core].stall_cycles_bbpb_full += stall
            if h.bus.enabled:
                h.bus.emit(StallBegin(now, core, STALL_BBPB_FULL))
                h.bus.emit(StallEnd(now + stall, core, STALL_BBPB_FULL))
        # PoV/PoP gap: the store is visible now but durable only when its
        # record drains.  Latencies are recorded when drains are observed
        # (here, on conflicts, and at finalize).
        self._record_latencies(core, now)
        self._visible_at.setdefault(core, {})[block_addr] = now
        return stall

    # ------------------------------------------------------------------
    # Coherence path: persist-before-respond
    # ------------------------------------------------------------------
    def _drain_through(self, holder: int, block_addr: int, now: int) -> int:
        """Persist the holder's buffered stores up to and including
        ``block_addr`` (BSP's bulk persist), counted in
        ``bsp_conflict_drains`` whether a remote request, an LLC eviction
        or an explicit flush asked; returns the delay imposed on the
        asking request (an eviction ignores it)."""
        buf = self.buffers[holder]
        if not buf.contains(block_addr):
            return 0
        assert self.hierarchy is not None
        done = buf.drain_through(block_addr, now)
        self.hierarchy.stats.bsp_conflict_drains += 1
        self._record_latencies(holder, now)
        return max(0, done - now)

    def on_remote_invalidation(
        self, holder: int, block_addr: int, requester: int, now: int
    ) -> int:
        return self._drain_through(holder, block_addr, now)

    def on_remote_intervention(
        self, holder: int, block_addr: int, requester: int, now: int
    ) -> int:
        return self._drain_through(holder, block_addr, now)

    def on_explicit_flush(self, core: int, block_addr: int, now: int) -> int:
        """An explicit flush bypasses the ordered buffer, so any older
        buffered stores must reach media first — drain through the flushed
        block to keep the strict-persistency illusion intact."""
        owner = self.bbpb_owner_of(block_addr)
        if owner is None:
            return 0
        return self._drain_through(owner, block_addr, now)

    def on_llc_eviction(self, block: CacheBlock, now: int) -> bool:
        """Eviction of a block with unpersisted older stores must not let
        the writeback persist out of order: drain first, then drop the
        (now redundant) writeback."""
        owner = self.bbpb_owner_of(block.addr)
        if owner is not None:
            self._drain_through(owner, block.addr, now)
            return True
        return False

    # ------------------------------------------------------------------
    # PoV/PoP gap accounting
    # ------------------------------------------------------------------
    def _record_latencies(self, core: int, now: int) -> None:
        """Record persist latency for entries that just left the buffer."""
        assert self.hierarchy is not None
        pending = self._visible_at.get(core, {})
        resident = set(self.buffers[core].resident_blocks())
        drained = [a for a in pending if a not in resident]
        for block_addr in drained:
            self.hierarchy.stats.record_persist_latency(
                now - pending.pop(block_addr)
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finalize(self, now: int) -> int:
        assert self.hierarchy is not None
        t = now
        for buf in self.buffers:
            t = max(t, buf.drain_all(now))
            self._record_latencies(buf.core_id, t)
        return t

    def clear_buffers(self) -> None:
        """Volatile buffers: no battery residue, everything still buffered
        is LOST.  Durable state is the per-core program-order prefix that
        already drained."""
        for buf in self.buffers:
            buf.clear()
