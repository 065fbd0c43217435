"""Persistency schemes: how persisting stores become durable.

Each scheme is a strategy object plugged into the memory hierarchy.  The
hierarchy executes loads/stores/coherence and calls the hooks below at the
interesting points; the scheme decides what enters the persistence domain
when, what stalls the core, and what survives a crash.

Schemes provided (the comparison space of Table I plus the buffered-epoch
related work):

===============  ====================================================
``EADR``         Whole SRAM hierarchy battery-backed; a store is durable
                 the moment it is visible.  The performance/writes
                 baseline ("Optimal" in Fig. 7).
``BBBScheme``    The paper's contribution: per-core battery-backed
                 persist buffers next to the L1D (memory-side by
                 default, processor-side optional).
``StrictPMEM``   Intel PMEM-style strict persistency: the hardware
                 inserts clwb+sfence semantics after every persisting
                 store; the core stalls until the line is accepted by
                 the ADR WPQ.
``BEP``          Buffered epoch persistency with *volatile* persist
                 buffers (DPO/HOPS-style): ordering only across epochs;
                 buffer contents are lost on crash.
``NoPersistency``Volatile caches, no ordering control: persist order
                 follows cache replacement — the failure mode the paper
                 opens with.
===============  ====================================================
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.core.bbpb import MemorySideBBPB, ProcessorSideBBPB
from repro.core.drain import crash_scheduled_drain, wpq_drain_sink
from repro.mem.block import BlockData, CacheBlock
from repro.obs.events import (
    STALL_BBPB_FULL,
    DrainEnd,
    DrainStart,
    StallBegin,
    StallEnd,
)
from repro.sim.config import BBBConfig, SystemConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mem.hierarchy import MemoryHierarchy


@dataclass(frozen=True)
class SchemeTraits:
    """Qualitative properties compared in Table I of the paper."""

    name: str
    sw_complexity: str          # programmer burden
    persist_instructions: str   # what the programmer must insert
    hw_complexity: str
    strict_persistency_penalty: str
    battery: str
    pop_location: str


@dataclass
class DrainReport:
    """What the battery moved to NVMM at crash time (per scheme)."""

    scheme: str
    bbpb_blocks: int = 0
    store_buffer_entries: int = 0
    cache_blocks: int = 0
    bytes_drained: int = 0

    @property
    def total_units(self) -> int:
        return self.bbpb_blocks + self.store_buffer_entries + self.cache_blocks


class ResidueBlock(NamedTuple):
    """One block the battery moves to NVMM when power fails."""

    #: True for a persist-buffer entry (or a coherence move between two
    #: buffers): it counts as a ``bbpb_blocks`` drain unit and passes the
    #: ``bbpb.entry`` fault site.  False for a cache line (or an eviction
    #: writeback in flight), counted as ``cache_blocks``.
    bbpb: bool
    #: Owning buffer's core; -1 when no buffer holds the block.
    core: int
    block_addr: int
    data: BlockData


class PersistencyScheme:
    """Base class: a scheme that provides no durability beyond the ADR WPQ.

    Subclasses override the hooks they care about.  ``attach`` is called by
    the :class:`~repro.sim.system.System` after the hierarchy is built.

    The scheme refers back to its hierarchy *weakly*: the hierarchy owns
    the scheme, so a strong back-reference would make every system a
    reference cycle that outlives its last user until the cyclic garbage
    collector runs.  Held weakly, a finished system is freed by reference
    counting the moment it is dropped.
    """

    #: Stamped by the scheme registry at registration
    #: (:func:`repro.core.registry.register_scheme`); the base value only
    #: covers schemes constructed without ever being registered.
    name = "base"
    #: Whether the battery covers the store buffers under this scheme.
    #: The hierarchy reads this when building :class:`StoreBuffer`s.
    battery_backed_sb = False
    _hierarchy: Optional["weakref.ref[MemoryHierarchy]"] = None

    def attach(self, hierarchy: "MemoryHierarchy") -> None:
        self._hierarchy = weakref.ref(hierarchy)

    @property
    def hierarchy(self) -> Optional["MemoryHierarchy"]:
        """The attached hierarchy (``None`` before :meth:`attach`)."""
        ref = self._hierarchy
        return ref() if ref is not None else None

    @property
    def config(self) -> SystemConfig:
        assert self.hierarchy is not None
        return self.hierarchy.config

    # -- store path ----------------------------------------------------
    def on_persisting_store(
        self, core: int, block_addr: int, block_data: BlockData, now: int
    ) -> int:
        """Called after a persisting store wrote the L1D (PoV reached).
        Returns extra stall cycles imposed on the core."""
        return 0

    # -- coherence path (Table II hooks) --------------------------------
    def on_remote_invalidation(
        self, holder: int, block_addr: int, requester: int, now: int
    ) -> None:
        """Holder's L1 copy is being invalidated by ``requester``'s write."""

    def on_remote_intervention(
        self, holder: int, block_addr: int, requester: int, now: int
    ) -> None:
        """Holder's M copy is being downgraded by ``requester``'s read."""

    def on_llc_eviction(self, block: CacheBlock, now: int) -> bool:
        """LLC evicts ``block``.  Return True to *drop* the writeback of a
        dirty block (the scheme guarantees the data is durable already)."""
        return False

    # -- explicit persistency instructions -------------------------------
    def on_explicit_flush(self, core: int, block_addr: int, now: int) -> int:
        """An explicit FLUSH op is about to push ``block_addr`` to the WPQ.

        A scheme holding *older* unpersisted stores for the same core must
        not let the flushed line overtake them (that would persist out of
        visibility order); it can drain through here first.  Returns extra
        stall cycles imposed on the flushing core."""
        return 0

    def on_epoch_boundary(self, core: int, now: int) -> int:
        """Epoch boundary reached; return stall cycles."""
        return 0

    # -- lifecycle -------------------------------------------------------
    def finalize(self, now: int) -> int:
        """End of run (not a crash): settle outstanding persistence-domain
        state so the media image is complete.  Returns the settling time."""
        return now

    def battery_residue(self) -> List[ResidueBlock]:
        """What the battery would move to NVMM if power failed now, in
        drain order, store buffers aside (the base class appends their
        battery-backed words).  Must be pure — no copies needed, no state
        touched: the crash-exploration kernel
        (:func:`repro.check.explore.sweep`) reads it at every micro-step
        crash point of a running system.  Schemes declare what survives a
        crash here and never override :meth:`crash_drain`; the registry
        rejects classes that do.  The base scheme covers nothing beyond
        the (already folded) WPQ."""
        return []

    def clear_buffers(self) -> None:
        """Power loss: empty the scheme's own buffers.  Whatever the
        battery covers in them was already read through
        :meth:`battery_residue`."""

    def crash_drain(self, now: int) -> DrainReport:
        """Power failure: move the battery residue, then the battery-backed
        store-buffer words, to NVMM media (each drawing on the fault
        injector's battery, when one is installed), then lose every
        volatile structure."""
        h = self.hierarchy
        assert h is not None
        injector = h.fault_injector
        report = DrainReport(scheme=self.name)
        residue = self.battery_residue()
        # A scheme with nothing battery-backed never consults the battery.
        battery = injector.enabled and (self.battery_backed_sb or bool(residue))
        if battery:
            injector.begin_crash_drain(
                len(residue) + h.crash_sb_persistent_entries(), now
            )
        block_size = h.config.block_size
        for block in residue:
            data = block.data
            if battery:
                if not injector.battery_allows(now):
                    continue  # battery died mid-drain: the block is lost
                if block.bbpb:
                    data, _ = injector.on_bbpb_crash_entry(
                        block.core, block.block_addr, data, now
                    )
                    if data is None:  # parity caught a corrupt entry
                        continue
            h.nvmm.media.write_block(block.block_addr, data)
            h.stats.nvmm_writes += 1
            if block.bbpb:
                report.bbpb_blocks += 1
            else:
                report.cache_blocks += 1
            report.bytes_drained += block_size
        # Section III-C: store buffers drain after the bbPB, preserving
        # per-core program order of persists.
        report.store_buffer_entries += h.crash_drain_store_buffers()
        self.clear_buffers()
        h.lose_volatile_state()
        return report

    # -- introspection (used by invariant checks and tests) --------------
    def bbpb_for(self, core: int):
        return None

    def bbpb_owner_of(self, block_addr: int) -> Optional[int]:
        return None


class NoPersistency(PersistencyScheme):
    """Volatile caches, no persist ordering: durability happens only through
    natural writebacks, i.e. in cache-replacement order.  Exists to
    demonstrate the inconsistency BBB prevents (Section II-A)."""


class EADR(PersistencyScheme):
    """Enhanced ADR: the entire cache hierarchy plus store buffers are
    battery-backed (Section II-B).  No stalls, no extra writes; the crash
    drain moves every dirty NVMM block from every cache level to media."""

    battery_backed_sb = True

    def on_persisting_store(
        self, core: int, block_addr: int, block_data: BlockData, now: int
    ) -> int:
        # The whole hierarchy is in the persistence domain: visible ==
        # durable, the PoV/PoP gap is zero.
        self.hierarchy.stats.record_persist_latency(0)
        return 0

    def on_llc_eviction(self, block: CacheBlock, now: int) -> bool:
        return False  # normal writebacks; nothing special

    def battery_residue(self) -> List[ResidueBlock]:
        """Every dirty NVMM line of every cache level, plus eviction
        writebacks in flight."""
        h = self.hierarchy
        assert h is not None
        return self._dirty_nvmm_lines(h.l1s)

    def _dirty_nvmm_lines(self, l1s) -> List[ResidueBlock]:
        """The residue with the private caches ``l1s`` covered."""
        h = self.hierarchy
        mem = h.config.mem
        lo, hi = mem.nvmm_base, mem.nvmm_limit
        # L1 dirty copies take precedence over (possibly stale) LLC copies.
        drained: Dict[int, BlockData] = {}
        for l1 in l1s:
            for blk in l1.dirty_blocks():
                if lo <= blk.addr < hi:
                    drained[blk.addr] = blk.data
        for blk in h.llc.dirty_blocks():
            if lo <= blk.addr < hi and blk.addr not in drained:
                drained[blk.addr] = blk.data
        # Eviction writebacks in flight to the controller: the whole
        # cache-to-controller path is inside eADR's battery domain, so the
        # packet completes.  Cache copies (if any) are newer.
        for addr, data in h.inflight_writebacks:
            if lo <= addr < hi and addr not in drained:
                drained[addr] = data
        return [ResidueBlock(False, -1, addr, data)
                for addr, data in drained.items()]


class StrictPMEM(PersistencyScheme):
    """Intel PMEM-style strict persistency: every persisting store is
    followed by clwb+sfence, so the core stalls until the line reaches the
    WPQ (the PoP stays at the memory controller)."""

    def on_persisting_store(
        self, core: int, block_addr: int, block_data: BlockData, now: int
    ) -> int:
        h = self.hierarchy
        h.stats.flushes += 1
        h.stats.fences += 1
        done = h.flush_block_to_wpq(core, block_addr, now)
        # PoV/PoP gap: durable at WPQ acceptance, visible at the L1D write.
        h.stats.record_persist_latency(max(0, done - now))
        # sfence: wait for acceptance plus the ack returning to the core.
        done += h.config.mem.mc_transfer_cycles
        return max(0, done - now)


class BBBScheme(PersistencyScheme):
    """Battery-Backed Buffers — the paper's proposal (Section III).

    One bbPB per core next to the L1D.  A persisting store allocates (or
    coalesces into) a bbPB entry as it writes the L1D, so PoV == PoP and no
    flushes or fences are ever needed.  The scheme implements:

    * FCFS/threshold draining (Section III-F) via the bbPB classes;
    * the Table II coherence actions (remove-without-drain on remote
      invalidation; stay-resident on intervention);
    * LLC dirty-inclusion forced drains, and the silent drop of persistent
      dirty LLC writebacks (Section III-E, example (c));
    * crash draining of all bbPB entries plus (if battery-backed) store
      buffers, in the order Section III-C requires.
    """

    battery_backed_sb = True

    def __init__(self, bbb_config: Optional[BBBConfig] = None) -> None:
        super().__init__()
        self.bbb_config = bbb_config or BBBConfig()
        self.buffers: List = []

    def attach(self, hierarchy: "MemoryHierarchy") -> None:
        super().attach(hierarchy)
        cfg = self.bbb_config
        buffer_cls = MemorySideBBPB if cfg.memory_side else ProcessorSideBBPB
        schedule = hierarchy.crash_schedule
        self.buffers = [
            buffer_cls(
                cfg, core,
                crash_scheduled_drain(wpq_drain_sink(hierarchy, core),
                                      schedule),
                hierarchy.stats,
                bus=hierarchy.bus,
            )
            for core in range(hierarchy.config.num_cores)
        ]

    # -- introspection ---------------------------------------------------
    def bbpb_for(self, core: int):
        return self.buffers[core]

    def bbpb_owner_of(self, block_addr: int) -> Optional[int]:
        for buf in self.buffers:
            if buf.contains(block_addr):
                return buf.core_id
        return None

    # -- store path -------------------------------------------------------
    def on_persisting_store(
        self, core: int, block_addr: int, block_data: BlockData, now: int
    ) -> int:
        h = self.hierarchy
        buf = self.buffers[core]
        stall, allocated = buf.put(block_addr, block_data, now)
        if allocated and h.directory.entry(block_addr) is None:
            raise RuntimeError(
                f"bbPB allocates 0x{block_addr:x} but the block is not "
                f"LLC-resident — dirty-inclusion (Invariant 4) violated"
            )
        if buf.contains(block_addr):
            # The requester now owns the block's durability (Fig. 6a/b
            # hand-off complete); any in-flight coherence move is consumed.
            h.inflight_bbpb_moves.pop(block_addr, None)
        if stall:
            h.stats.core[core].stall_cycles_bbpb_full += stall
            if h.bus.enabled:
                h.bus.emit(StallBegin(now, core, STALL_BBPB_FULL))
                h.bus.emit(StallEnd(now + stall, core, STALL_BBPB_FULL))
        # PoV == PoP: the store is durable the instant it is visible.
        h.stats.record_persist_latency(0)
        return stall

    # -- coherence path (Table II) -----------------------------------------
    def on_remote_invalidation(
        self, holder: int, block_addr: int, requester: int, now: int
    ) -> None:
        """Fig. 6(a)/(b): the block is removed from the holder's bbPB without
        draining; the requester becomes responsible for its durability when
        its own store allocates the block (which the in-flight data or its
        shared copy guarantees it can, battery covering in-flight packets).

        A processor-side bbPB cannot take a record out of the middle of its
        queue: it drains through the block instead.  That is a plain drain,
        not a move, and the requester is charged no delay for it."""
        buf = self.buffers[holder]
        if not self.bbb_config.memory_side:
            buf.drain_through(block_addr, now)
            return
        removed = buf.remove(block_addr, now)
        if removed is not None:
            h = self.hierarchy
            h.stats.bbpb_moves += 1
            # Battery covers the in-flight packet: until the requester's
            # own store allocates the block, the removed data remains
            # durable (drained by crash_drain if the machine dies now).
            h.inflight_bbpb_moves[block_addr] = removed.copy()

    def on_remote_intervention(
        self, holder: int, block_addr: int, requester: int, now: int
    ) -> None:
        """Fig. 6(c): a read downgrade leaves the block in the holder's bbPB;
        nothing moves and nothing drains."""

    def on_llc_eviction(self, block: CacheBlock, now: int) -> bool:
        h = self.hierarchy
        owner = self.bbpb_owner_of(block.addr)
        if owner is not None:
            # Dirty-inclusion: drain before the LLC may drop the block.
            # The request travels through the drain-message channel, which
            # fault injection may delay or drop; a dropped message leaves
            # the entry resident (still battery-backed, still durable).
            h.drain_channel.deliver(self.buffers[owner], block.addr, now)
        if (
            block.dirty
            and block.persistent
            and h.config.silent_drop_persistent_writebacks
        ):
            # The bbPB "has or had" this block: its latest value is durable
            # (just drained above, or drained earlier). Skip the writeback.
            return True
        return False

    # -- lifecycle ----------------------------------------------------------
    def finalize(self, now: int) -> int:
        t = now
        for buf in self.buffers:
            t = max(t, buf.drain_all(now))
        return t

    def battery_residue(self) -> List[ResidueBlock]:
        """Every bbPB entry, plus coherence moves in flight."""
        h = self.hierarchy
        assert h is not None
        # Most buffers (every idle core's) hold nothing the battery covers.
        residue = [
            ResidueBlock(True, buf.core_id, block_addr, data)
            for buf in self.buffers if buf.resident
            for block_addr, data in buf.battery_entries()
        ]
        # In-flight coherence moves (Fig. 6a/b) whose new owner never
        # allocated: the battery covers the packet, so they drain too —
        # unless some bbPB still holds a (necessarily fresher) copy.
        if h.inflight_bbpb_moves:
            resident = {block.block_addr for block in residue}
            residue.extend(
                ResidueBlock(True, -1, block_addr, data)
                for block_addr, data in h.inflight_bbpb_moves.items()
                if block_addr not in resident
            )
        return residue

    def clear_buffers(self) -> None:
        for buf in self.buffers:
            buf.clear()


class BEP(PersistencyScheme):
    """Buffered epoch persistency with *volatile* persist buffers (in the
    style of DPO [50] / HOPS [62]).

    Stores within an epoch may coalesce and drain lazily; an epoch boundary
    may not let epoch N+1 persist before all of epoch N.  Because the
    buffers are volatile, their contents are *lost* on crash — only what
    already drained is durable, so recovery is consistent only at epoch
    granularity.  Epoch boundaries stall when earlier epochs are still
    draining (the paper: "stalls may still occur at epoch boundaries in
    BEP").
    """

    def __init__(self, entries: int = 32) -> None:
        super().__init__()
        self.entries = entries
        # Per core: list of (epoch, block_addr, BlockData, born).
        self._buffers: List[List[Tuple[int, int, BlockData, int]]] = []
        self._epoch: List[int] = []
        self._drain_busy_until: List[int] = []

    def attach(self, hierarchy: "MemoryHierarchy") -> None:
        super().attach(hierarchy)
        n = hierarchy.config.num_cores
        self._buffers = [[] for _ in range(n)]
        self._epoch = [0] * n
        self._drain_busy_until = [0] * n

    def on_persisting_store(
        self, core: int, block_addr: int, block_data: BlockData, now: int
    ) -> int:
        assert self.hierarchy is not None
        buf = self._buffers[core]
        epoch = self._epoch[core]
        for i, (ep, addr, _, born) in enumerate(buf):
            if addr == block_addr and ep == epoch:
                buf[i] = (ep, addr, block_data.copy(), born)
                return 0
        stall = 0
        if len(buf) >= self.entries:
            stall = max(0, self._drain_one(core, now) - now)
        buf.append((epoch, block_addr, block_data.copy(), now))
        return stall

    def _drain_one(self, core: int, now: int) -> int:
        assert self.hierarchy is not None
        h = self.hierarchy
        buf = self._buffers[core]
        if not buf:
            return now
        # The entry leaves the buffer only at WPQ acceptance: a scheduled
        # crash inside nvmm.write leaves it buffered (and then lost with
        # the volatile buffer — exactly BEP's contract, no gap created).
        _, block_addr, data, born = buf[0]
        start = max(now, self._drain_busy_until[core])
        done = h.nvmm.write(block_addr, data, start + h.config.mem.mc_transfer_cycles)
        buf.pop(0)
        self._drain_busy_until[core] = done
        h.stats.bbpb_drains += 1
        if h.bus.enabled:
            h.bus.emit(DrainStart(start, core, block_addr, done, len(buf)))
            h.bus.emit(DrainEnd(done, core, block_addr, start))
        # PoV/PoP gap: visible at ``born``, durable at WPQ acceptance.
        h.stats.record_persist_latency(max(0, done - born))
        return done

    def on_epoch_boundary(self, core: int, now: int) -> int:
        """Persist barrier: epoch N+1 may not start persisting before epoch
        N is durable.  We conservatively drain the core's buffered entries
        of the closing epoch and charge the wait."""
        assert self.hierarchy is not None
        self.hierarchy.stats.epoch_barriers += 1
        t = now
        while self._buffers[core] and self._buffers[core][0][0] <= self._epoch[core]:
            t = self._drain_one(core, t)
        stall = max(0, t - now)
        if stall:
            self.hierarchy.stats.core[core].stall_cycles_epoch += stall
        self._epoch[core] += 1
        return stall

    def finalize(self, now: int) -> int:
        t = now
        for core in range(len(self._buffers)):
            while self._buffers[core]:
                t = max(t, self._drain_one(core, t))
        return t

    def clear_buffers(self) -> None:
        # Volatile buffers: no battery residue, the contents are LOST.
        for buf in self._buffers:
            buf.clear()


def table1_rows() -> List[SchemeTraits]:
    """The paper's Table I: PMEM, BSP, eADR and memory-side BBB compared
    on programmer burden, hardware cost and point of persistence."""
    return [
        SchemeTraits(
            name="PMEM",
            sw_complexity="High",
            persist_instructions="clwb & fence",
            hw_complexity="Low",
            strict_persistency_penalty="High",
            battery="None",
            pop_location="WPQ/mem",
        ),
        SchemeTraits(
            name="BSP",
            sw_complexity="Low",
            persist_instructions="None",
            hw_complexity="High",
            strict_persistency_penalty="Medium",
            battery="None",
            pop_location="Mem",
        ),
        SchemeTraits(
            name="eADR",
            sw_complexity="Low",
            persist_instructions="None",
            hw_complexity="Low",
            strict_persistency_penalty="None",
            battery="Large",
            pop_location="L1D",
        ),
        SchemeTraits(
            name="BBB (memory-side)",
            sw_complexity="Low",
            persist_instructions="None",
            hw_complexity="Low",
            strict_persistency_penalty="Low",
            battery="Small",
            pop_location="bbPB/L1D",
        ),
    ]
