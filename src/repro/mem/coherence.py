"""Directory-based MESI coherence bookkeeping with bbPB tracking.

The shared LLC keeps a directory entry per resident block: which private
L1Ds hold the block (sharers), which one holds it exclusively (owner of an
M/E copy), and — the BBB addition — which core's bbPB currently holds the
block (Invariant 4: a block resides in at most one bbPB).

In the paper (Section III-E) the bbPB pointer is not a new directory field:
bbPB⊆L2 inclusion lets the existing L2 directory deliver invalidations,
and each private L2 forwards them to its own bbPB.  The evaluated system
(Table III) has no private L2 — its shared L2 *is* the LLC — so this model
keeps the functionally-equivalent information as a single ``bbpb_owner``
field per directory entry.  Every protocol case of Fig. 6 / Table II is
driven off this entry.

The protocol *actions* (data movement, state changes, drains) are executed
by :class:`repro.mem.hierarchy.MemoryHierarchy`; this module only tracks
who-has-what and exposes the coherence event vocabulary used by tests and
stats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.check.schedule import NULL_SCHEDULE, SITE_FORCED_DRAIN
from repro.fault.injector import NULL_INJECTOR
from repro.obs.bus import NULL_BUS, EventBus
from repro.obs.events import CoherenceMove


class CoherenceEvent(enum.Enum):
    """Protocol transaction types (terminology follows [83] and Fig. 6)."""

    READ = "Rd"               # GetS
    READ_EXCLUSIVE = "RdX"    # GetM with data
    UPGRADE = "Upgr"          # GetM without data (S -> M)
    INVALIDATE = "Inv"        # back-/remote invalidation
    INTERVENTION = "Int"      # downgrade request to an M owner
    WRITEBACK = "WB"
    FORCED_DRAIN = "ForcedDrain"  # LLC dirty-inclusion drain of a bbPB block


@dataclass
class DirectoryEntry:
    """Directory state for one block resident in the LLC."""

    block_addr: int
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None        # core holding M/E, if any
    bbpb_owner: Optional[int] = None   # core whose bbPB holds the block

    def is_cached_anywhere(self) -> bool:
        return bool(self.sharers) or self.owner is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dir(0x{self.block_addr:x}, sharers={sorted(self.sharers)}, "
            f"owner={self.owner}, bbpb={self.bbpb_owner})"
        )


class DrainMessageChannel:
    """Delivery model for LLC -> bbPB forced-drain requests (Table II's
    ``ForcedDrain``; Section III-B dirty inclusion).

    In the fault-free system delivery is instantaneous and reliable, and
    :meth:`deliver` collapses to ``buf.force_drain``.  Under fault
    injection the message can be *delayed* (the drain simply starts
    ``cycles`` later — the entry is battery-backed throughout, so the
    window is harmless) or *dropped* (the bbPB keeps the entry; the block
    leaves the LLC un-drained).  A dropped message costs nothing
    durability-wise — the entry is still inside the persistence domain and
    drains at the threshold, at finalize, or on the crash battery — which
    is exactly the robustness property the fault campaign demonstrates.
    """

    def __init__(self, injector=NULL_INJECTOR, schedule=NULL_SCHEDULE) -> None:
        self.injector = injector
        self.schedule = schedule
        self.dropped = 0
        self.delayed = 0

    def deliver(self, buf, block_addr: int, now: int) -> Tuple[bool, int]:
        """Deliver a forced-drain request for ``block_addr`` to bbPB
        ``buf``.  Returns ``(delivered, completion_cycle)``; on a dropped
        message the entry stays resident and nothing drains."""
        if self.schedule.enabled:
            # Between the forced-drain request and its ack: the entry is
            # still resident in the bbPB (battery-backed), so a crash here
            # must lose nothing.
            self.schedule.reached(SITE_FORCED_DRAIN, now, block_addr)
        if self.injector.enabled:
            spec = self.injector.on_forced_drain(buf.core_id, block_addr, now)
            if spec is not None:
                if spec.fault == "drop":
                    self.dropped += 1
                    return False, now
                self.delayed += 1
                now += int(spec.param("cycles", 100))
        return True, buf.force_drain(block_addr, now)


class Directory:
    """Sparse directory keyed by block address.

    Entries exist exactly for LLC-resident blocks; the hierarchy creates one
    at LLC fill and destroys it at LLC eviction (after back-invalidation and
    any forced bbPB drain, per Invariant 4).
    """

    def __init__(self, bus: EventBus = NULL_BUS) -> None:
        self._entries: Dict[int, DirectoryEntry] = {}
        self._bus = bus

    def entry(self, block_addr: int) -> Optional[DirectoryEntry]:
        return self._entries.get(block_addr)

    def ensure(self, block_addr: int) -> DirectoryEntry:
        return self._entries.setdefault(block_addr, DirectoryEntry(block_addr))

    def drop(self, block_addr: int) -> Optional[DirectoryEntry]:
        return self._entries.pop(block_addr, None)

    # ------------------------------------------------------------------
    # L1 presence transitions
    # ------------------------------------------------------------------
    def record_exclusive(self, block_addr: int, core: int) -> None:
        ent = self.ensure(block_addr)
        ent.owner = core
        ent.sharers = {core}

    def record_shared(self, block_addr: int, core: int) -> None:
        ent = self.ensure(block_addr)
        if ent.owner is not None and ent.owner != core:
            raise RuntimeError(
                f"block 0x{block_addr:x} gains sharer {core} while core "
                f"{ent.owner} owns it exclusively"
            )
        ent.sharers.add(core)

    def record_downgrade(self, block_addr: int) -> None:
        """Owner lost exclusivity (intervention M/E -> S) but keeps a copy."""
        ent = self.ensure(block_addr)
        ent.owner = None

    def record_l1_eviction(self, block_addr: int, core: int) -> None:
        ent = self._entries.get(block_addr)
        if ent is None:
            return
        ent.sharers.discard(core)
        if ent.owner == core:
            ent.owner = None

    # ------------------------------------------------------------------
    # bbPB tracking (Invariant 4)
    # ------------------------------------------------------------------
    def set_bbpb_owner(self, block_addr: int, core: Optional[int],
                       now: int = 0) -> None:
        ent = self._entries.get(block_addr)
        if ent is None:
            if core is None:
                return
            raise RuntimeError(
                f"bbPB allocates 0x{block_addr:x} but the block is not "
                f"LLC-resident — dirty-inclusion (Invariant 4) violated"
            )
        if self._bus.enabled and ent.bbpb_owner != core:
            self._bus.emit(
                CoherenceMove(now, block_addr, src=ent.bbpb_owner, dst=core)
            )
        ent.bbpb_owner = core

    def bbpb_drained(self, block_addr: int, core: int) -> None:
        """``core``'s bbPB drained ``block_addr`` to the WPQ: if the
        directory names that bbPB as the block's holder, it holds it no
        longer.  Emits nothing — ``DrainStart``/``DrainEnd`` record the
        drain — so the next allocation's move starts from ``None``."""
        ent = self._entries.get(block_addr)
        if ent is not None and ent.bbpb_owner == core:
            ent.bbpb_owner = None

    def bbpb_owner(self, block_addr: int) -> Optional[int]:
        ent = self._entries.get(block_addr)
        return ent.bbpb_owner if ent else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entries(self) -> Iterable[DirectoryEntry]:
        return self._entries.values()

    def blocks_in_bbpb(self) -> Dict[int, int]:
        """Map block -> bbPB-owning core, for invariant audits."""
        return {
            ent.block_addr: ent.bbpb_owner
            for ent in self._entries.values()
            if ent.bbpb_owner is not None
        }

    def __len__(self) -> int:
        return len(self._entries)
