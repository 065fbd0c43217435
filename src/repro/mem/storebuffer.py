"""Per-core store buffer.

Two roles:

1. Ordinary microarchitecture: committed stores sit in the store buffer (SB)
   until they are written to the L1D; loads forward from it.

2. Under relaxed consistency (Section III-C of the paper), stores may leave
   the SB and write the L1D *out of program order*.  Battery-backing the SB
   moves the PoP up to SB allocation, which restores program-order
   persistency.  On a crash, a battery-backed SB drains directly to the WPQ
   (after the owning bbPB drains) so the per-core program order of persists
   is maintained.

The buffer holds byte-granular store records in program order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional
from collections import deque

from repro.obs.bus import NULL_BUS, EventBus
from repro.obs.events import SbPush, SbRelease


@dataclass
class SBEntry:
    """One committed-but-not-yet-cached store."""

    addr: int
    size: int
    value: int
    seq: int            # per-core program-order sequence number
    persistent: bool


class StoreBuffer:
    """FIFO of committed stores with load forwarding.

    ``battery_backed`` marks the SB as part of the persistence domain
    (required for relaxed consistency; harmless under TSO).
    """

    def __init__(self, entries: int, battery_backed: bool = False,
                 core_id: int = 0, bus: EventBus = NULL_BUS) -> None:
        if entries < 1:
            raise ValueError("store buffer needs at least one entry")
        self.capacity = entries
        self.battery_backed = battery_backed
        self.core_id = core_id
        self._bus = bus
        #: Committed stores not yet released, oldest first.  Read-only
        #: outside this class.
        self.fifo: Deque[SBEntry] = deque()
        self._seq = 0
        #: The store whose L1D write (and persist hook) is in progress.  It
        #: has left the FIFO, but until the write completes the hardware
        #: still holds it here, so the crash drain counts it first.  The
        #: engine sets it for the duration of each release.
        self.releasing: Optional[SBEntry] = None

    def __len__(self) -> int:
        return len(self.fifo)

    @property
    def full(self) -> bool:
        return len(self.fifo) >= self.capacity

    def push(self, addr: int, value: int, size: int, persistent: bool,
             now: int = 0) -> SBEntry:
        """Append a committed store; caller must drain first if full."""
        if self.full:
            raise RuntimeError("store buffer full; drain before pushing")
        self._seq += 1
        entry = SBEntry(addr, size, value, self._seq, persistent)
        self.fifo.append(entry)
        if self._bus.enabled:
            self._bus.emit(SbPush(now, self.core_id, addr, len(self.fifo)))
        return entry

    def pop_oldest(self, now: int = 0) -> Optional[SBEntry]:
        if not self.fifo:
            return None
        entry = self.fifo.popleft()
        if self._bus.enabled:
            self._bus.emit(
                SbRelease(now, self.core_id, entry.addr, len(self.fifo))
            )
        return entry

    def forward(self, addr: int, size: int) -> Optional[int]:
        """Store-to-load forwarding: youngest fully-covering store wins.

        Returns the forwarded value or ``None``.  Partial overlaps fall back
        to the cache (the engine merges bytes at the data level anyway, so
        declining to forward is always safe).
        """
        for entry in reversed(self.fifo):
            if entry.addr <= addr and addr + size <= entry.addr + entry.size:
                shift = (addr - entry.addr) * 8
                mask = (1 << (size * 8)) - 1
                return (entry.value >> shift) & mask
        return None

    def entries(self) -> List[SBEntry]:
        return list(self.fifo)

    def requeue(self, entries: Iterable[SBEntry]) -> None:
        """Replace the buffer contents with ``entries`` (in the given order).

        Used by relaxed-consistency release: the engine drains some entries
        out of order and reinstates the unreleased remainder, preserving
        their original relative (program) order.
        """
        kept = list(entries)
        if len(kept) > self.capacity:
            raise RuntimeError("cannot requeue more entries than capacity")
        self.fifo.clear()
        self.fifo.extend(kept)

    def drain_order_on_crash(self) -> List[SBEntry]:
        """Entries in the order they must reach the WPQ on power failure
        (program order — the battery guarantees completion)."""
        if not self.battery_backed:
            return []
        if self.releasing is not None:
            return [self.releasing, *self.fifo]
        return list(self.fifo)

    def clear(self) -> None:
        self.fifo.clear()
        self.releasing = None
