"""Battery-backed persist buffers (bbPB) — the paper's core structure.

Two organisations from Section III-B:

* :class:`MemorySideBBPB` — the design the paper chooses.  Each entry is a
  *block* (full 64 B value) that is already inside the persistence domain,
  so stores to the same block coalesce freely, entries may drain out of
  order, and no ordering metadata is needed.  Draining follows the FCFS +
  occupancy-threshold policy of Section III-F.

* :class:`ProcessorSideBBPB` — the rejected alternative, kept as a baseline
  for the Section V-C comparison.  Each entry is an ordered (address, size,
  value) store record; the buffer must drain strictly in order, and
  coalescing is only permitted between *consecutive* entries to the same
  block.  The result is ~2.8x the NVMM writes of eADR.

Both buffers model drain latency: a draining entry stays resident (occupying
capacity) until its block is accepted by the NVMM WPQ, which is what makes a
too-small bbPB stall the core (Fig. 8).  The ``drain`` callback injected by
the scheme performs the actual WPQ write and returns the acceptance-complete
cycle.

Each buffer counts its own work straight into the run's
:class:`~repro.sim.stats.SimStats`, in the statement that emits the matching
event: allocations, coalesces, rejections, removes and forced drains.  Drains
are counted by the drain sink (:func:`repro.core.drain.wpq_drain_sink`).
The live buffer contents are the only record of which bbPB holds a block.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.mem.block import BlockData
from repro.obs.bus import NULL_BUS, EventBus
from repro.obs.events import (
    BbpbAlloc,
    BbpbCoalesce,
    BbpbReject,
    BbpbRemove,
    DrainEnd,
    DrainStart,
    ForcedDrain,
)
from repro.sim.config import BBBConfig, DrainPolicy
from repro.sim.stats import SimStats

#: Signature of the drain sink: ``(block_addr, data, now) -> completion``.
DrainFn = Callable[[int, BlockData, int], int]


@dataclass
class BBPBEntry:
    """One bbPB entry (memory-side: a block; processor-side: a store)."""

    block_addr: int
    data: BlockData
    in_flight: bool = False
    complete_at: int = 0
    #: Cycle of the most recent write (allocation or coalesce) — used by
    #: the LEAST_RECENTLY_WRITTEN drain policy's reuse prediction.
    last_write: int = 0


class MemorySideBBPB:
    """Memory-side battery-backed persist buffer for one core.

    The buffer is logically a persistence-domain extension of the WPQ
    (Figure 5(b)): an allocated entry *is* durable.  Consequences modelled
    here:

    * ``put`` coalesces onto an existing (not-in-flight) entry for the same
      block — the entry simply takes the new full block value.
    * draining is out-of-order-capable; the default policy picks the oldest
      entry (FCFS) once occupancy reaches the threshold.
    * coherence may ``remove`` a block (move to another core's bbPB) or
      ``force_drain`` it (LLC dirty-inclusion) at any time.
    """

    def __init__(self, config: BBBConfig, core_id: int, drain: DrainFn,
                 stats: SimStats, bus: EventBus = NULL_BUS) -> None:
        self.config = config
        self.core_id = core_id
        self._drain = drain
        #: The run's counters; this buffer's work is counted nowhere else.
        self.stats = stats
        self._bus = bus
        #: Resident (coalescible) entries, in allocation (FCFS) order: the
        #: battery-covered ones.  Read-only outside this class.
        self.resident: "OrderedDict[int, BBPBEntry]" = OrderedDict()
        #: Entries whose drain is in flight; they still occupy capacity
        #: until the WPQ accepts them, but are no longer coalescible and a
        #: new entry for the same block may coexist.
        self._inflight: List[BBPBEntry] = []

    # ------------------------------------------------------------------
    # Capacity / occupancy
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.resident) + len(self._inflight)

    @property
    def full(self) -> bool:
        return len(self) >= self.config.entries

    def occupancy(self) -> int:
        return len(self)

    def reap(self, now: int) -> None:
        """Free entries whose drain (WPQ acceptance) has completed."""
        self._inflight = [e for e in self._inflight if e.complete_at > now]

    def resident_blocks(self) -> List[int]:
        return list(self.resident.keys())

    def pending_drain_obligations(self) -> int:
        """Blocks that still owe exactly one NVMM write each (resident
        entries; in-flight drains already reached the WPQ).  Used by the
        steady-state write accounting of the benchmarks."""
        return len(self.resident)

    def contains(self, block_addr: int) -> bool:
        return block_addr in self.resident

    def entry(self, block_addr: int) -> Optional[BBPBEntry]:
        return self.resident.get(block_addr)

    # ------------------------------------------------------------------
    # Allocation path (persisting store)
    # ------------------------------------------------------------------
    def put(self, block_addr: int, data: BlockData, now: int) -> Tuple[int, bool]:
        """Allocate or coalesce ``block_addr`` with full block value ``data``.

        Returns ``(stall_cycles, newly_allocated)``.  The caller must have
        established M-state visibility first (Invariant 3); this method only
        manages persistence-domain capacity.  If the buffer is full and the
        store cannot coalesce, the core stalls until a drain completes —
        counted as a rejection (Fig. 8a).
        """
        self.reap(now)
        existing = self.resident.get(block_addr)
        if existing is not None:
            # Free coalescing: the entry is already durable; replace value.
            existing.data = data.copy()
            existing.last_write = now
            self.stats.bbpb_coalesces += 1
            if self._bus.enabled:
                self._bus.emit(
                    BbpbCoalesce(now, self.core_id, block_addr, len(self))
                )
            return 0, False

        stall = 0
        while self.full:
            self.stats.bbpb_rejections += 1
            if self._bus.enabled:
                self._bus.emit(
                    BbpbReject(now + stall, self.core_id, block_addr, len(self))
                )
            freed_at = self._wait_for_space(now + stall)
            stall = max(stall, freed_at - now)
            self.reap(now + stall)
        self.resident[block_addr] = BBPBEntry(
            block_addr, data.copy(), last_write=now + stall
        )
        self.stats.bbpb_allocations += 1
        if self._bus.enabled:
            self._bus.emit(
                BbpbAlloc(now + stall, self.core_id, block_addr, len(self))
            )
        self._maybe_start_drains(now + stall)
        return stall, True

    def _wait_for_space(self, now: int) -> int:
        """Block until at least one entry frees; returns that cycle."""
        if not self._inflight:
            # Nothing draining: start one now (oldest first).
            assert self.resident, "full buffer with no entries"
            entry = self._start_oldest_drain(now)
            return entry.complete_at
        return min(e.complete_at for e in self._inflight)

    # ------------------------------------------------------------------
    # Draining (Section III-F)
    # ------------------------------------------------------------------
    def _start_drain(self, entry: BBPBEntry, now: int) -> None:
        """Drain resident ``entry``.  It leaves the resident set only once
        the sink returns: until the WPQ accepts the block the battery still
        owns it, so a crash point inside the sink finds it resident."""
        entry.complete_at = self._drain(entry.block_addr, entry.data, now)
        entry.in_flight = True
        del self.resident[entry.block_addr]
        self._inflight.append(entry)
        if self._bus.enabled:
            self._bus.emit(DrainStart(now, self.core_id, entry.block_addr,
                                      entry.complete_at, len(self)))
            self._bus.emit(DrainEnd(entry.complete_at, self.core_id,
                                    entry.block_addr, now))

    def _start_oldest_drain(self, now: int) -> BBPBEntry:
        """Start draining the victim the active policy selects: FCFS picks
        the oldest allocation; LEAST_RECENTLY_WRITTEN predicts reuse and
        picks the entry idle the longest."""
        if self.config.drain_policy is DrainPolicy.LEAST_RECENTLY_WRITTEN:
            entry = min(self.resident.values(), key=lambda e: e.last_write)
        else:
            entry = next(iter(self.resident.values()))
        self._start_drain(entry, now)
        return entry

    def _maybe_start_drains(self, now: int) -> None:
        policy = self.config.drain_policy
        if policy is DrainPolicy.EAGER:
            target = 0
        elif policy is DrainPolicy.DRAIN_ALL:
            if len(self) < self.config.threshold_entries:
                return
            target = 0
        else:  # FCFS_THRESHOLD and LEAST_RECENTLY_WRITTEN
            target = self.config.threshold_entries - 1
            if len(self) < self.config.threshold_entries:
                return
        # Start drains oldest-first until the occupancy *projected after
        # the in-flight drains complete* falls below the threshold.
        while len(self.resident) > target:
            self._start_oldest_drain(now)

    # ------------------------------------------------------------------
    # Coherence interactions (Table II)
    # ------------------------------------------------------------------
    def remove(self, block_addr: int, now: int = 0) -> Optional[BlockData]:
        """Remove a block *without draining* — remote invalidation moved
        responsibility to the requesting core's bbPB (Fig. 6a/b).

        An in-flight drain of the block cannot be recalled from the WPQ
        path; it simply completes (the value it carries is older than what
        the new owner will write, and NVMM overwrites are value-safe).
        """
        entry = self.resident.pop(block_addr, None)
        if entry is None:
            return None
        self.stats.bbpb_removes += 1
        if self._bus.enabled:
            self._bus.emit(BbpbRemove(now, self.core_id, block_addr))
        return entry.data

    def force_drain(self, block_addr: int, now: int) -> int:
        """LLC dirty-inclusion forced drain (Section III-B): synchronously
        push the block to the WPQ so the LLC may evict it.  Returns the
        completion cycle (0-cost if the block is absent; an in-flight drain
        just completes)."""
        entry = self.resident.get(block_addr)
        if entry is None:
            pending = [e for e in self._inflight if e.block_addr == block_addr]
            return max((e.complete_at for e in pending), default=now)
        self._start_drain(entry, now)
        self.stats.bbpb_forced_drains += 1
        if self._bus.enabled:
            self._bus.emit(ForcedDrain(now, self.core_id, block_addr))
        return entry.complete_at

    # ------------------------------------------------------------------
    # Crash draining
    # ------------------------------------------------------------------
    def battery_entries(self) -> List[Tuple[int, BlockData]]:
        """Every resident entry, oldest first: what the battery must move
        to NVMM on a crash.  In-flight entries already reached the WPQ
        (durable) and need no extra action.  Pure: the data is not copied
        and the buffer is left as is."""
        return [(e.block_addr, e.data) for e in self.resident.values()]

    def clear(self) -> None:
        """Power loss after the crash drain: the buffer is empty."""
        self.resident.clear()
        self._inflight.clear()

    def drain_all(self, now: int) -> int:
        """Synchronously drain everything (end-of-run settling)."""
        t = now
        while self.resident:
            entry = self._start_oldest_drain(t)
            t = max(t, entry.complete_at)
        t = max([t] + [e.complete_at for e in self._inflight])
        self._inflight.clear()
        return t


class ProcessorSideBBPB:
    """Processor-side persist buffer: ordered per-store records.

    Stores have *not* conceptually reached the persistence domain's
    memory-side, so they must drain in program order and cannot coalesce
    except when two **consecutive** entries touch the same block (the
    special case the paper allows).  Battery-backing still makes the
    records durable on crash; the organisational difference shows up as
    ~2.8x NVMM writes (Section V-C).
    """

    def __init__(self, config: BBBConfig, core_id: int, drain: DrainFn,
                 stats: SimStats, bus: EventBus = NULL_BUS) -> None:
        self.config = config
        self.core_id = core_id
        self._drain = drain
        #: The run's counters; this buffer's work is counted nowhere else.
        self.stats = stats
        self._bus = bus
        #: Resident records in program order, in-flight ones included
        #: until they retire: the battery-covered ones.  Read-only outside
        #: this class.
        self.resident: List[BBPBEntry] = []
        #: Records per block in ``resident``, kept beside it so that
        #: ``contains`` (asked for every core on every persisting store)
        #: is one probe, not a scan.
        self._records: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.resident)

    @property
    def full(self) -> bool:
        return len(self.resident) >= self.config.entries

    def occupancy(self) -> int:
        return len(self.resident)

    def contains(self, block_addr: int) -> bool:
        return block_addr in self._records

    def resident_blocks(self) -> List[int]:
        return [e.block_addr for e in self.resident]

    def reap(self, now: int) -> None:
        """In-order retirement: only a completed *head* run can free."""
        fifo = self.resident
        while fifo and fifo[0].in_flight and fifo[0].complete_at <= now:
            self._pop_head()

    def _pop_head(self) -> None:
        block_addr = self.resident.pop(0).block_addr
        left = self._records[block_addr] - 1
        if left:
            self._records[block_addr] = left
        else:
            del self._records[block_addr]

    def pending_drain_obligations(self) -> int:
        """Records that still owe an NVMM write (not yet in flight)."""
        return sum(1 for e in self.resident if not e.in_flight)

    # ------------------------------------------------------------------
    # Allocation path
    # ------------------------------------------------------------------
    def put(self, block_addr: int, data: BlockData, now: int) -> Tuple[int, bool]:
        """Append a store record; returns ``(stall_cycles, allocated)``."""
        self.reap(now)
        tail = self.resident[-1] if self.resident else None
        if (
            self.config.proc_coalesce_consecutive
            and tail is not None
            and tail.block_addr == block_addr
            and not tail.in_flight
        ):
            tail.data = data.copy()
            self.stats.bbpb_coalesces += 1
            if self._bus.enabled:
                self._bus.emit(
                    BbpbCoalesce(now, self.core_id, block_addr, len(self))
                )
            return 0, False
        stall = 0
        while self.full:
            self.stats.bbpb_rejections += 1
            if self._bus.enabled:
                self._bus.emit(
                    BbpbReject(now + stall, self.core_id, block_addr, len(self))
                )
            head = self.resident[0]
            if not head.in_flight:
                self._start_drain(head, now + stall)
            stall = max(stall, head.complete_at - now)
            self.reap(now + stall)
        self.resident.append(BBPBEntry(block_addr, data.copy()))
        self._records[block_addr] = self._records.get(block_addr, 0) + 1
        self.stats.bbpb_allocations += 1
        if self._bus.enabled:
            self._bus.emit(
                BbpbAlloc(now + stall, self.core_id, block_addr, len(self))
            )
        self._maybe_start_drains(now + stall)
        return stall, True

    def _start_drain(self, entry: BBPBEntry, now: int) -> None:
        # Callers pop the entry only after the drain starts, so a crash
        # point inside the sink finds it in the FIFO, battery-covered.
        entry.in_flight = True
        entry.complete_at = self._drain(entry.block_addr, entry.data, now)
        if self._bus.enabled:
            self._bus.emit(DrainStart(now, self.core_id, entry.block_addr,
                                      entry.complete_at, len(self)))
            self._bus.emit(DrainEnd(entry.complete_at, self.core_id,
                                    entry.block_addr, now))

    def _maybe_start_drains(self, now: int) -> None:
        if len(self.resident) < self.config.threshold_entries:
            return
        # Ordered drain: only the oldest not-yet-draining prefix may go.
        t = now
        excess = len(self.resident) - (self.config.threshold_entries - 1)
        for entry in self.resident[:excess]:
            if not entry.in_flight:
                self._start_drain(entry, t)
            t = entry.complete_at

    # ------------------------------------------------------------------
    # Coherence / crash
    # ------------------------------------------------------------------
    def drain_through(self, block_addr: int, now: int,
                      forced: bool = False) -> int:
        """Drain the records up to and including the oldest one for
        ``block_addr``, in order, starting no earlier than ``now``; returns
        the cycle the last of them reached the WPQ (``now`` when the block
        is absent).  Ordering forbids plucking a middle record, so this is
        how the processor-side design gives a block up (part of why the
        paper rejects it).  ``forced`` counts and logs each drain it
        starts as an LLC forced drain."""
        if not self.contains(block_addr):
            return now
        t = now
        while self.resident:
            entry = self.resident[0]
            if not entry.in_flight:
                self._start_drain(entry, t)
                if forced:
                    self.stats.bbpb_forced_drains += 1
                    if self._bus.enabled:
                        self._bus.emit(ForcedDrain(t, self.core_id, block_addr))
            t = max(t, entry.complete_at)
            self._pop_head()
            if entry.block_addr == block_addr:
                break
        return t

    def force_drain(self, block_addr: int, now: int) -> int:
        """LLC dirty-inclusion forced drain: :meth:`drain_through`, with
        every drain it starts counted and logged as forced."""
        return self.drain_through(block_addr, now, forced=True)

    def battery_entries(self) -> List[Tuple[int, BlockData]]:
        """Every record, in program order — in-flight ones included — as
        the battery drains them on a crash.  Pure, like
        :meth:`MemorySideBBPB.battery_entries`."""
        return [(e.block_addr, e.data) for e in self.resident]

    def clear(self) -> None:
        self.resident.clear()
        self._records.clear()

    def drain_all(self, now: int) -> int:
        t = now
        for entry in self.resident:
            if not entry.in_flight:
                self._start_drain(entry, t)
            t = max(t, entry.complete_at)
        self.resident.clear()
        self._records.clear()
        return t
