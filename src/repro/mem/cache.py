"""Set-associative cache array with LRU replacement.

This is a *storage* model: it tracks which blocks are resident, their MESI
state, dirtiness, and data.  The coherence *protocol* (who may transition
what, when invalidations flow) lives in :mod:`repro.mem.coherence`; the
hierarchy wiring lives in :mod:`repro.mem.hierarchy`.

Each set is a dict (``block_addr -> CacheBlock``), and one more dict
indexes every frame of every set by tag, so a lookup is one probe with no
set arithmetic; insertion and victim selection walk the (small,
``assoc``-bounded) set.  The LRU use-clock is per-array, which keeps
replacement decisions deterministic per run regardless of what other arrays
exist in the process and lets cache state pickle cleanly for batch-runner
worker processes.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.mem.block import CacheBlock, I
from repro.sim.config import CacheConfig


class CacheArray:
    """One level of cache: ``num_sets`` sets of ``assoc`` frames each.

    Sets are materialised lazily.  LRU is tracked with an array-local
    monotonic use-clock stamped on every touch.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self._sets: Dict[int, Dict[int, CacheBlock]] = {}
        #: Every frame of every set, by tag: exactly the union of ``_sets``
        #: (invalidated-in-place frames included, as in their sets).
        self._frames: Dict[int, CacheBlock] = {}
        self._use = 0
        # block_size is validated to be a power of two; num_sets usually is
        # too, in which case set indexing reduces to a shift and a mask.
        self._block_shift = config.block_size.bit_length() - 1
        num_sets = config.num_sets
        self._set_mask = num_sets - 1 if num_sets & (num_sets - 1) == 0 else None

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def set_index(self, block_addr: int) -> int:
        if self._set_mask is not None:
            return (block_addr >> self._block_shift) & self._set_mask
        return (block_addr >> self._block_shift) % self.config.num_sets

    def _set_for(self, block_addr: int) -> Dict[int, CacheBlock]:
        return self._sets.setdefault(self.set_index(block_addr), {})

    # ------------------------------------------------------------------
    # Lookup / touch
    # ------------------------------------------------------------------
    def lookup(self, block_addr: int, touch: bool = True) -> Optional[CacheBlock]:
        """Return the resident valid block for ``block_addr`` or ``None``."""
        blk = self._frames.get(block_addr)
        if blk is None or blk.state is I:
            return None
        if touch:
            self._use += 1
            blk.last_use = self._use
        return blk

    def contains(self, block_addr: int) -> bool:
        return self.lookup(block_addr, touch=False) is not None

    # ------------------------------------------------------------------
    # Insertion / eviction
    # ------------------------------------------------------------------
    def victim_for(self, block_addr: int) -> Optional[CacheBlock]:
        """Return the block that must be evicted to make room for
        ``block_addr``, or ``None`` if a free frame exists."""
        frames = self._set_for(block_addr)
        if len(frames) < self.config.assoc:
            return None
        victim = None
        for blk in frames.values():
            if not blk.valid:
                return None
            if victim is None or blk.last_use < victim.last_use:
                victim = blk
        return victim

    def insert(self, block: CacheBlock) -> Optional[CacheBlock]:
        """Install ``block``; return the evicted victim block, if any.

        The caller (the hierarchy) is responsible for handling the victim:
        writeback, silent drop, back-invalidation, forced bbPB drain.
        """
        if not block.valid:
            raise ValueError("cannot insert an invalid block")
        frames = self._set_for(block.addr)
        existing = frames.get(block.addr)
        if existing is not None and existing.valid:
            raise ValueError(
                f"{self.name}: block 0x{block.addr:x} already resident"
            )
        self._use += 1
        block.last_use = self._use
        index = self._frames
        index[block.addr] = block
        # Reuse an invalidated-in-place frame if one exists.
        if existing is not None:
            del frames[existing.addr]
            frames[block.addr] = block
            return None
        for blk in frames.values():
            if not blk.valid:
                del frames[blk.addr]
                del index[blk.addr]
                frames[block.addr] = block
                return None
        if len(frames) < self.config.assoc:
            frames[block.addr] = block
            return None
        victim = None
        for blk in frames.values():
            if victim is None or blk.last_use < victim.last_use:
                victim = blk
        del frames[victim.addr]
        del index[victim.addr]
        frames[block.addr] = block
        return victim

    def remove(self, block_addr: int) -> Optional[CacheBlock]:
        """Invalidate and return the block (e.g. on coherence invalidation)."""
        blk = self.lookup(block_addr, touch=False)
        if blk is None:
            return None
        del self._frames[block_addr]
        del self._sets[self.set_index(block_addr)][block_addr]
        return blk

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def blocks(self) -> Iterator[CacheBlock]:
        for frames in self._sets.values():
            for blk in frames.values():
                if blk.valid:
                    yield blk

    def dirty_blocks(self) -> Iterator[CacheBlock]:
        return (b for b in self.blocks() if b.dirty)

    def occupancy(self) -> int:
        return sum(1 for _ in self.blocks())

    def clear(self) -> None:
        """Drop all contents (models power loss of a volatile cache)."""
        self._sets.clear()
        self._frames.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheArray({self.name}, {self.config.size_bytes}B, "
            f"{self.occupancy()} blocks resident)"
        )
