"""The multicore memory hierarchy: private L1Ds, a shared LLC with a MESI
directory, and DRAM/NVMM memory controllers — with persistency-scheme hooks
at every point the paper's design touches (Figure 4).

Timing model
------------

Loads are blocking and pay the full hierarchy latency (L1 hit, +LLC,
+memory, +cache-to-cache intervention).  Stores commit into the store
buffer and cost one cycle plus whatever the active persistency scheme
stalls them for (bbPB full, clwb+sfence round trip, epoch waits): an
out-of-order core hides the plain store miss latency, and since every
scheme sees identical cache behaviour, the scheme-induced stalls are
exactly the differential the paper measures (Fig. 7a, Fig. 8b).
Coherence and memory transactions triggered by stores still happen
functionally and advance the memory-port clocks, so drain backpressure is
modelled.

Functional model
----------------

Data is tracked byte-granularly end to end, so crash simulations produce a
real durable memory image that the recovery checker can audit.  The LLC is
inclusive of all L1Ds (back-invalidation on LLC eviction) and — under BBB —
dirty-inclusive of all bbPBs (forced drain before eviction, Section III-B).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.mem.block import (
    BlockData,
    CacheBlock,
    MESIState,
    E,
    I,
    M,
    S,
    block_offset,
)
from repro.check.schedule import NULL_SCHEDULE, SITE_POV
from repro.fault.injector import NULL_INJECTOR
from repro.mem.cache import CacheArray
from repro.mem.coherence import Directory, DrainMessageChannel
from repro.mem.memctrl import DRAMController, NVMMController
from repro.mem.storebuffer import StoreBuffer
from repro.obs.bus import NULL_BUS, EventBus
from repro.sim.config import SystemConfig
from repro.sim.stats import SimStats

#: Cycles a store spends committing into the store buffer.
STORE_COMMIT_CYCLES = 1
#: Extra latency of a cache-to-cache transfer (intervention/forwarding).
C2C_EXTRA_CYCLES = 11


class MemoryHierarchy:
    """Cores' private L1Ds + shared LLC + directory + memory controllers."""

    def __init__(
        self,
        config: SystemConfig,
        scheme,
        stats: Optional[SimStats] = None,
        bus: EventBus = NULL_BUS,
        fault_injector=NULL_INJECTOR,
        crash_schedule=NULL_SCHEDULE,
    ) -> None:
        self.config = config
        self.scheme = scheme
        self.stats = stats or SimStats(num_cores=config.num_cores)
        self.bus = bus
        self.fault_injector = fault_injector
        self.crash_schedule = crash_schedule
        # block_size is a validated power of two: block address / offset
        # arithmetic in the hot paths reduces to a mask.
        self._block_mask = config.block_size - 1
        self._is_persistent = config.mem.is_persistent
        self.l1s = [
            CacheArray(config.l1d, name=f"L1D{c}") for c in range(config.num_cores)
        ]
        self.llc = CacheArray(config.llc, name="LLC")
        self.directory = Directory()
        self.drain_channel = DrainMessageChannel(fault_injector,
                                                 schedule=crash_schedule)
        self.dram = DRAMController(config.mem, self.stats)
        self.nvmm = NVMMController(config.mem, self.stats, bus,
                                   injector=fault_injector,
                                   schedule=crash_schedule)
        #: Functional contents of DRAM (volatile: lost on crash).
        self.volatile_image: Dict[int, BlockData] = {}
        #: Writeback packets in flight (LLC eviction -> NVMM), tracked
        #: while a crash schedule can observe them.  Schemes whose battery
        #: covers the cache-to-controller path (eADR) drain them; all
        #: others lose them.
        self.inflight_writebacks: List[Tuple[int, BlockData]] = []
        #: Fig. 6(a)/(b) coherence moves caught in flight: a remote
        #: invalidation removed the block from the holder's bbPB and the
        #: requester has not allocated it yet.  The paper's battery covers
        #: the in-flight packet, so BBB's crash drain flushes these (the
        #: requester's allocation pops its block back out).
        self.inflight_bbpb_moves: Dict[int, BlockData] = {}
        battery_sb = getattr(scheme, "battery_backed_sb", False) and (
            not config.force_volatile_store_buffer
        )
        self.store_buffers = [
            StoreBuffer(config.store_buffer_entries, battery_backed=battery_sb,
                        core_id=c, bus=bus)
            for c in range(config.num_cores)
        ]
        scheme.attach(self)

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    @property
    def block_size(self) -> int:
        return self.config.block_size

    def _baddr(self, addr: int) -> int:
        return addr & ~self._block_mask

    # ------------------------------------------------------------------
    # Load path
    # ------------------------------------------------------------------
    def load(self, core: int, addr: int, size: int, now: int) -> Tuple[int, int]:
        """Blocking load.  Returns ``(value, completion_cycle)``."""
        mask = self._block_mask
        baddr = addr & ~mask
        off = addr & mask
        cs = self.stats.core[core]
        cs.loads += 1
        l1 = self.l1s[core]
        blk = l1.lookup(baddr)
        if blk is not None:
            cs.l1_hits += 1
            return blk.data.read_word(off, size), now + self.config.l1d.hit_latency

        cs.l1_misses += 1
        t = now + self.config.l1d.hit_latency
        data, t, exclusive_ok = self._llc_read(core, baddr, t)
        new_blk = CacheBlock(baddr, state=E if exclusive_ok else S, data=data.copy())
        self._install_l1(core, new_blk)
        if exclusive_ok:
            self.directory.record_exclusive(baddr, core)
        else:
            self.directory.record_shared(baddr, core)
        return new_blk.data.read_word(off, size), t

    def _llc_read(self, core: int, baddr: int, t: int) -> Tuple[BlockData, int, bool]:
        """Fetch a block for reading on behalf of ``core``.

        Returns ``(data, completion, may_install_exclusive)``.
        """
        llc_blk = self.llc.lookup(baddr)
        if llc_blk is not None:
            self.stats.llc_hits += 1
            t += self.config.llc.hit_latency
            ent = self.directory.ensure(baddr)
            if ent.owner is not None and ent.owner != core:
                t = self._intervene(ent.owner, baddr, core, llc_blk, t)
            exclusive_ok = not ent.is_cached_anywhere()
            return llc_blk.data, t, exclusive_ok

        self.stats.llc_misses += 1
        t += self.config.llc.hit_latency
        data, t = self._mem_read(baddr, t)
        self._install_llc(CacheBlock(baddr, state=E, data=data.copy()), t)
        self.directory.ensure(baddr)
        return data, t, True

    def _intervene(
        self, owner: int, baddr: int, requester: int, llc_blk: CacheBlock, t: int
    ) -> int:
        """Read intervention: downgrade the owner's M/E copy to S (Fig. 6c).

        The owner's dirty data is merged into the LLC copy (which becomes
        dirty); under BBB the block *stays* in the owner's bbPB and no
        NVMM writeback happens.
        """
        oblk = self.l1s[owner].lookup(baddr, touch=False)
        if oblk is not None:
            if oblk.state is M and oblk.dirty:
                llc_blk.data.merge_from(oblk.data)
                llc_blk.dirty = True
                llc_blk.persistent = llc_blk.persistent or oblk.persistent
                # The LLC now holds the dirty data; the downgraded S copy
                # is clean (MESI: S implies not-dirty).
                oblk.dirty = False
                t += C2C_EXTRA_CYCLES
            oblk.state = S
        self.directory.record_downgrade(baddr)
        delay = self.scheme.on_remote_intervention(owner, baddr, requester, t) or 0
        return t + delay

    # ------------------------------------------------------------------
    # Store path
    # ------------------------------------------------------------------
    def store(
        self, core: int, addr: int, size: int, value: int, now: int
    ) -> Tuple[int, bool]:
        """Perform a store (already released from the store buffer).

        Returns ``(completion_cycle, was_persisting)``.  Completion is
        ``now + 1`` plus any scheme-imposed stall; the coherence work runs
        off the critical path (see module docstring).
        """
        mask = self._block_mask
        baddr = addr & ~mask
        off = addr & mask
        persistent = self._is_persistent(addr)
        cs = self.stats.core[core]
        cs.stores += 1
        if persistent:
            cs.persisting_stores += 1

        # Fast path: the core already holds the block in M state (the
        # overwhelmingly common case for thread-private data); otherwise run
        # the full coherence state machine.  ``_obtain_writable`` re-touches
        # the block, which is LRU-neutral (it is already most recent).
        blk = self.l1s[core].lookup(baddr)
        if blk is not None and blk.state is M:
            coherence_delay = 0
        else:
            blk, coherence_delay = self._obtain_writable(core, baddr, now)
        blk.data.write_word(off, value, size)
        blk.dirty = True
        if persistent:
            blk.persistent = True
            llc_blk = self.llc.lookup(baddr, touch=False)
            if llc_blk is not None:
                llc_blk.persistent = True

        stall = coherence_delay
        if persistent:
            if self.crash_schedule.enabled:
                # The PoV/PoP gap: the L1D write is visible, but the
                # scheme's persist hook (bbPB allocate / auto-flush) has
                # not run yet — the window BBB's battery must cover.
                self.crash_schedule.reached(SITE_POV, now, baddr)
            # Invariant 4: evict the block from any *other* core's bbPB
            # (covers the case where the previous writer's L1 copy is gone
            # but its bbPB entry remains).
            other = self.scheme.bbpb_owner_of(baddr)
            if other is not None and other != core:
                stall += (
                    self.scheme.on_remote_invalidation(other, baddr, core, now) or 0
                )
            stall += self.scheme.on_persisting_store(core, baddr, blk.data, now)
        return now + STORE_COMMIT_CYCLES + stall, persistent

    def _obtain_writable(self, core: int, baddr: int, now: int) -> Tuple[CacheBlock, int]:
        """Coherence: give ``core`` an M-state copy of ``baddr`` (Invariant 3
        requires M before the store writes L1D and allocates in bbPB).

        Returns ``(block, visibility_delay)`` — the delay is non-zero only
        for schemes that must persist remote state before granting
        visibility (BSP)."""
        l1 = self.l1s[core]
        blk = l1.lookup(baddr)
        if blk is not None:
            if blk.state is M:
                return blk, 0
            if blk.state is E:
                blk.state = M
                self.directory.record_exclusive(baddr, core)
                return blk, 0
            # S -> Upgrade (Fig. 6b for remote bbPB holders).
            delay = self._invalidate_other_sharers(core, baddr, now)
            blk.state = M
            self.directory.record_exclusive(baddr, core)
            return blk, delay

        # L1 miss -> Read-Exclusive (Fig. 6a when a remote M copy exists).
        data, delay = self._fetch_exclusive(core, baddr, now)
        blk = CacheBlock(baddr, state=M, data=data.copy())
        self._install_l1(core, blk)
        self.directory.record_exclusive(baddr, core)
        return blk, delay

    def _invalidate_other_sharers(self, core: int, baddr: int, now: int) -> int:
        ent = self.directory.ensure(baddr)
        delay = 0
        for sharer in sorted(ent.sharers - {core}):
            sblk = self.l1s[sharer].remove(baddr)
            if sblk is not None:
                if sblk.dirty:
                    self._merge_into_llc(sblk)
                # Dead blocks are marked invalid so a stale reference can
                # never be mistaken for a resident one.
                sblk.state = I
            self.directory.record_l1_eviction(baddr, sharer)
            delay = max(
                delay,
                self.scheme.on_remote_invalidation(sharer, baddr, core, now) or 0,
            )
        return delay

    def _fetch_exclusive(self, core: int, baddr: int, now: int) -> Tuple[BlockData, int]:
        delay = 0
        llc_blk = self.llc.lookup(baddr)
        if llc_blk is None:
            self.stats.llc_misses += 1
            data, _ = self._mem_read(baddr, now)
            llc_blk = CacheBlock(baddr, state=E, data=data.copy())
            self._install_llc(llc_blk, now)
            self.directory.ensure(baddr)
        else:
            self.stats.llc_hits += 1
            ent = self.directory.ensure(baddr)
            if ent.owner is not None and ent.owner != core:
                owner = ent.owner
                oblk = self.l1s[owner].remove(baddr)
                if oblk is not None:
                    if oblk.dirty:
                        llc_blk.data.merge_from(oblk.data)
                        llc_blk.dirty = True
                        llc_blk.persistent = llc_blk.persistent or oblk.persistent
                    oblk.state = I  # dead: see _invalidate_other_sharers
                self.directory.record_l1_eviction(baddr, owner)
                delay = (
                    self.scheme.on_remote_invalidation(owner, baddr, core, now) or 0
                )
            else:
                delay = self._invalidate_other_sharers(core, baddr, now)
        return llc_blk.data, delay

    # ------------------------------------------------------------------
    # Cache installs / evictions
    # ------------------------------------------------------------------
    def _install_l1(self, core: int, blk: CacheBlock) -> None:
        victim = self.l1s[core].insert(blk)
        if victim is not None:
            if victim.dirty:
                self._merge_into_llc(victim)
            self.directory.record_l1_eviction(victim.addr, core)
            victim.state = I  # dead: see _invalidate_other_sharers

    def _merge_into_llc(self, victim: CacheBlock) -> None:
        """L1 writeback: fold a dirty L1 block into its LLC copy.

        LLC inclusion of L1s guarantees the copy exists.
        """
        llc_blk = self.llc.lookup(victim.addr, touch=False)
        if llc_blk is None:
            raise RuntimeError(
                f"LLC inclusion violated: dirty L1 block 0x{victim.addr:x} "
                f"has no LLC copy"
            )
        llc_blk.data.merge_from(victim.data)
        llc_blk.dirty = True
        llc_blk.persistent = llc_blk.persistent or victim.persistent

    def _install_llc(self, blk: CacheBlock, now: int) -> None:
        victim = self.llc.insert(blk)
        if victim is not None:
            self._handle_llc_eviction(victim, now)

    def _handle_llc_eviction(self, victim: CacheBlock, now: int) -> None:
        """LLC eviction: back-invalidate L1 copies, let the scheme force-drain
        any bbPB copy (dirty inclusion), then write back or silently drop."""
        self.stats.llc_evictions += 1
        ent = self.directory.drop(victim.addr)
        if ent is not None:
            for sharer in sorted(ent.sharers):
                sblk = self.l1s[sharer].remove(victim.addr)
                if sblk is not None:
                    if sblk.dirty:
                        victim.data.merge_from(sblk.data)
                        victim.dirty = True
                        victim.persistent = victim.persistent or sblk.persistent
                    sblk.state = I  # dead: see _invalidate_other_sharers
        drop = self.scheme.on_llc_eviction(victim, now)
        if victim.dirty:
            if drop:
                self.stats.llc_writebacks_dropped += 1
            else:
                self.stats.llc_writebacks += 1
                if self.crash_schedule.enabled:
                    # Until the controller accepts it, the writeback packet
                    # is on the wire and the victim in no cache: a crash
                    # point inside the write finds it here, for schemes
                    # whose battery covers this path (eADR).
                    self.inflight_writebacks.append((victim.addr, victim.data))
                    self._mem_write(victim.addr, victim.data, now)
                    self.inflight_writebacks.pop()
                else:
                    self._mem_write(victim.addr, victim.data, now)

    # ------------------------------------------------------------------
    # Memory access (functional + timing)
    # ------------------------------------------------------------------
    def _mem_read(self, baddr: int, now: int) -> Tuple[BlockData, int]:
        if self.config.mem.is_nvmm(baddr):
            return self.nvmm.read(baddr, now)
        done = self.dram.read(now)
        data = self.volatile_image.get(baddr)
        return (data.copy() if data is not None else BlockData()), done

    def _mem_write(self, baddr: int, data: BlockData, now: int) -> int:
        if self.config.mem.is_nvmm(baddr):
            return self.nvmm.write(baddr, data, now)
        dest = self.volatile_image.setdefault(baddr, BlockData())
        dest.merge_from(data)
        return self.dram.write(now)

    # ------------------------------------------------------------------
    # Flush (clwb/DCCVAP semantics)
    # ------------------------------------------------------------------
    def flush_block_to_wpq(self, core: int, block_addr: int, now: int) -> int:
        """Write back the current value of ``block_addr`` to the NVMM WPQ
        and mark cached copies clean (clwb retains the line).  Returns the
        WPQ-acceptance cycle.  Flushing a clean/absent or non-NVMM block is
        a no-op."""
        baddr = self._baddr(block_addr)
        if not self.config.mem.is_nvmm(baddr):
            return now
        # Let the scheme persist older buffered stores first: a flushed
        # line must not overtake them into the WPQ (ordered-buffer schemes
        # like BSP would otherwise persist out of visibility order).
        now += self.scheme.on_explicit_flush(core, baddr, now)
        data: Optional[BlockData] = None
        # The newest copy lives in the owner's L1 (if M), else the LLC.
        # Lines are marked clean only *after* the WPQ accepts the data: a
        # crash mid-flush must leave them dirty so that schemes covering
        # the caches (eADR) still recover the data.
        ent = self.directory.entry(baddr)
        oblk = None
        if ent is not None and ent.owner is not None:
            oblk = self.l1s[ent.owner].lookup(baddr, touch=False)
            if oblk is not None and oblk.dirty:
                data = oblk.data.copy()
            else:
                oblk = None
        llc_blk = self.llc.lookup(baddr, touch=False)
        llc_dirty = llc_blk is not None and llc_blk.dirty
        if llc_dirty:
            if data is None:
                data = llc_blk.data.copy()
            else:
                merged = llc_blk.data.copy()
                merged.merge_from(data)
                data = merged
        if data is None:
            return now
        done = self.nvmm.write(
            baddr, data, now + self.config.mem.mc_transfer_cycles
        )
        if oblk is not None:
            oblk.dirty = False
        if llc_dirty:
            llc_blk.dirty = False
        if llc_blk is not None:
            llc_blk.data.merge_from(data)
        return done

    # ------------------------------------------------------------------
    # Crash support
    # ------------------------------------------------------------------
    def store_buffer_residue(self) -> List[Tuple[int, BlockData]]:
        """The ``(block address, word)`` writes battery-backed store
        buffers make on a crash: every persistent entry, per core in
        program order (Section III-C).  Pure."""
        writes = []
        for sb in self.store_buffers:
            if sb.releasing is None and not sb.fifo:
                continue  # nothing to drain, battery-backed or not
            for entry in sb.drain_order_on_crash():
                if entry.persistent:
                    data = BlockData()
                    data.write_word(block_offset(entry.addr, self.block_size),
                                    entry.value, entry.size)
                    writes.append((self._baddr(entry.addr), data))
        return writes

    def crash_sb_persistent_entries(self) -> int:
        """Persistent store-buffer entries the crash drain would move —
        the SB contribution to the battery's drain-unit budget."""
        return len(self.store_buffer_residue())

    def crash_drain_store_buffers(self) -> int:
        """Battery-backed store buffers drain to the WPQ in program order
        (Section III-C).  Returns the number of entries drained.  Under
        fault injection each entry draws on the same battery budget as the
        bbPB/cache drain that preceded it; a dead battery loses the tail."""
        count = 0
        injector = self.fault_injector
        for baddr, data in self.store_buffer_residue():
            if injector.enabled and not injector.battery_allows(0):
                continue
            self.nvmm.media.write_block(baddr, data)
            self.stats.nvmm_writes += 1
            count += 1
        for sb in self.store_buffers:
            sb.clear()
        return count

    def lose_volatile_state(self) -> None:
        """Power loss: everything outside the persistence domain vanishes."""
        for l1 in self.l1s:
            l1.clear()
        self.llc.clear()
        self.volatile_image.clear()
        self.directory = Directory()
        self.inflight_writebacks = []
        self.inflight_bbpb_moves = {}
        for sb in self.store_buffers:
            sb.clear()

    # ------------------------------------------------------------------
    # Test/introspection helpers
    # ------------------------------------------------------------------
    def l1_state(self, core: int, addr: int) -> MESIState:
        blk = self.l1s[core].lookup(self._baddr(addr), touch=False)
        return blk.state if blk is not None else I

    def llc_block(self, addr: int) -> Optional[CacheBlock]:
        return self.llc.lookup(self._baddr(addr), touch=False)
