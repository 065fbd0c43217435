"""Directory-based MESI coherence bookkeeping.

The shared LLC keeps a directory entry per resident block: which private
L1Ds hold the block (sharers) and which one holds it exclusively (owner of
an M/E copy).

The directory records nothing about bbPBs.  In the paper (Section III-E)
"no new directory information is needed": bbPB⊆L2 inclusion lets the
existing directory deliver invalidations, and each bbPB acts on its own
contents.  Here the live bbPB contents are the residency record (the
scheme's ``bbpb_owner_of`` asks the buffers), and the directory entry's
existence is what Invariant 4's dirty-inclusion check reads when a bbPB
allocates a block.

The protocol *actions* (data movement, state changes, drains) are executed
by :class:`repro.mem.hierarchy.MemoryHierarchy`; this module only tracks
who-has-what.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.check.schedule import NULL_SCHEDULE, SITE_FORCED_DRAIN
from repro.fault.injector import NULL_INJECTOR


@dataclass
class DirectoryEntry:
    """Directory state for one block resident in the LLC."""

    block_addr: int
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None        # core holding M/E, if any

    def is_cached_anywhere(self) -> bool:
        return bool(self.sharers) or self.owner is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dir(0x{self.block_addr:x}, sharers={sorted(self.sharers)}, "
            f"owner={self.owner})"
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
                    return False, now
                now += int(spec.param("cycles", 100))
        return True, buf.force_drain(block_addr, now)


class Directory:
    """Sparse directory keyed by block address.

    Entries exist exactly for LLC-resident blocks; the hierarchy creates one
    at LLC fill and destroys it at LLC eviction (after back-invalidation and
    any forced bbPB drain, per Invariant 4).
    """

    def __init__(self) -> None:
        self._entries: Dict[int, DirectoryEntry] = {}

    def entry(self, block_addr: int) -> Optional[DirectoryEntry]:
        return self._entries.get(block_addr)

    def ensure(self, block_addr: int) -> DirectoryEntry:
        ent = self._entries.get(block_addr)
        if ent is None:
            # Built only on a miss: most calls find the entry.
            ent = self._entries[block_addr] = DirectoryEntry(block_addr)
        return ent

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
    # Introspection
    # ------------------------------------------------------------------
    def entries(self) -> Iterable[DirectoryEntry]:
        return self._entries.values()

    def __len__(self) -> int:
        return len(self._entries)
