"""Set-associative cache array with LRU replacement.

This is a *storage* model: it tracks which blocks are resident, their MESI
state, dirtiness, and data.  The coherence *protocol* (who may transition
what, when invalidations flow) lives in :mod:`repro.mem.coherence`; the
hierarchy wiring lives in :mod:`repro.mem.hierarchy`.

Each set is a dict (``block_addr -> CacheBlock``), and one more dict
indexes every frame of every set by tag, so a lookup is one probe with no
set arithmetic.  Every frame is resident: a block leaves only through
:meth:`CacheArray.remove` or as :meth:`CacheArray.insert`'s victim, never
by an in-place invalidation, so a probe tests no state and insertion into
a full set is one LRU pass over its (``assoc``-bounded) frames.  The LRU
use-clock is per-array, which keeps replacement decisions deterministic
per run regardless of what other arrays exist in the process and lets
cache state pickle cleanly for batch-runner worker processes.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterator, List, Optional

from repro.mem.block import CacheBlock, I
from repro.sim.config import CacheConfig

_LAST_USE = attrgetter("last_use")


class CacheArray:
    """One level of cache: ``num_sets`` sets of ``assoc`` frames each.

    Sets are materialised lazily.  LRU is tracked with an array-local
    monotonic use-clock stamped on every touch.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self._sets: Dict[int, Dict[int, CacheBlock]] = {}
        #: Every frame of every set, by tag: exactly the union of ``_sets``.
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
        """Return the resident block for ``block_addr`` or ``None``."""
        blk = self._frames.get(block_addr)
        if blk is None:
            return None
        if touch:
            self._use += 1
            blk.last_use = self._use
        return blk

    def contains(self, block_addr: int) -> bool:
        return block_addr in self._frames

    # ------------------------------------------------------------------
    # Insertion / eviction
    # ------------------------------------------------------------------
    def insert(self, block: CacheBlock) -> Optional[CacheBlock]:
        """Install ``block``; return the evicted victim block, if any.

        The caller (the hierarchy) is responsible for handling the victim:
        writeback, silent drop, back-invalidation, forced bbPB drain.
        """
        if block.state is I:
            raise ValueError("cannot insert an invalid block")
        index = self._frames
        if block.addr in index:
            raise ValueError(
                f"{self.name}: block 0x{block.addr:x} already resident"
            )
        frames = self._set_for(block.addr)
        self._use += 1
        block.last_use = self._use
        index[block.addr] = block
        if len(frames) < self.config.assoc:
            frames[block.addr] = block
            return None
        victim = min(frames.values(), key=_LAST_USE)
        del frames[victim.addr]
        del index[victim.addr]
        frames[block.addr] = block
        return victim

    def remove(self, block_addr: int) -> Optional[CacheBlock]:
        """Take the block out of the array and return it (e.g. on a
        coherence invalidation), or ``None`` if it is not resident."""
        blk = self._frames.pop(block_addr, None)
        if blk is not None:
            del self._sets[self.set_index(block_addr)][block_addr]
        return blk

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def blocks(self) -> Iterator[CacheBlock]:
        for frames in self._sets.values():
            yield from frames.values()

    def dirty_blocks(self) -> List[CacheBlock]:
        """The dirty blocks, in :meth:`blocks` order: one pass over the
        frames, none for an empty array (a crash sweep asks every array
        at every visit)."""
        if not self._frames:
            return []
        return [b for frames in self._sets.values()
                for b in frames.values() if b.dirty]

    def occupancy(self) -> int:
        return len(self._frames)

    def clear(self) -> None:
        """Drop all contents (models power loss of a volatile cache)."""
        self._sets.clear()
        self._frames.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheArray({self.name}, {self.config.size_bytes}B, "
            f"{self.occupancy()} blocks resident)"
        )
