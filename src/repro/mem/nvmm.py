"""Non-volatile main memory media model.

Tracks the *durable* byte image (what survives a crash once the WPQ has
drained), per-block write counts for endurance accounting, and access
counters.  DRAM gets a much simpler model in :mod:`repro.mem.memctrl` since
its contents never matter after a crash.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Set

from repro.mem.block import BlockData

#: Block size of the NVMM media.  Every cache level must use it
#: (:class:`~repro.sim.config.SystemConfig` enforces that): the media, the
#: WPQ channel interleave and the crash oracles all work in 64 B blocks.
MEDIA_BLOCK_SIZE = 64


class NVMMedia:
    """Byte image of the NVMM plus write-endurance accounting.

    The image is sparse: only blocks ever written are materialised, each
    as a :class:`~repro.mem.block.BlockData` (the block's bytes and its
    written-byte mask, packed in two ints).  The recovery checker
    (:mod:`repro.core.recovery`) compares images produced by crash
    simulation against golden program-order prefixes.
    """

    def __init__(self, base: int, size: int,
                 block_size: int = MEDIA_BLOCK_SIZE) -> None:
        self.base = base
        self.size = size
        self.block_size = block_size
        #: The stored image: block address -> its bytes, for written
        #: blocks only.  Read-only outside this class; crash images read
        #: it in place (:class:`~repro.check.explore.DurableImage`).
        self.blocks: Dict[int, BlockData] = {}
        self.write_counts: Counter = Counter()
        self.total_writes = 0
        self.total_reads = 0
        #: Blocks whose last write was torn (fault injection): their stored
        #: row no longer matches its ECC, so a recovery-time scan flags
        #: them.  A subsequent complete write re-encodes the row and clears
        #: the mark.
        self.torn_blocks: Set[int] = set()

    def _check(self, block_addr: int) -> None:
        if not (self.base <= block_addr < self.base + self.size):
            raise ValueError(
                f"block 0x{block_addr:x} outside NVMM range "
                f"[0x{self.base:x}, 0x{self.base + self.size:x})"
            )
        if block_addr % self.block_size:
            raise ValueError(f"0x{block_addr:x} is not block aligned")

    # ------------------------------------------------------------------
    # Media access
    # ------------------------------------------------------------------
    def write_block(self, block_addr: int, data: BlockData) -> None:
        """Persist one block: overlay written bytes onto the image."""
        self._check(block_addr)
        dest = self.blocks.setdefault(block_addr, BlockData())
        dest.merge_from(data)
        self.write_counts[block_addr] += 1
        self.total_writes += 1
        if self.torn_blocks:
            # A complete write re-encodes the row: the ECC is whole again.
            self.torn_blocks.discard(block_addr)

    def write_block_torn(self, block_addr: int, data: BlockData,
                         keep_bytes: int) -> None:
        """Persist a *torn* block write: only the bytes of ``data`` at
        offsets below ``keep_bytes`` land; the row is marked torn so the
        ECC model can report it.  Counts as a media write (the row was
        programmed, just not completely)."""
        self._check(block_addr)
        partial = data.copy()
        kept = (1 << (8 * max(keep_bytes, 0))) - 1
        partial.value &= kept
        partial.mask &= kept
        dest = self.blocks.setdefault(block_addr, BlockData())
        dest.merge_from(partial)
        self.write_counts[block_addr] += 1
        self.total_writes += 1
        self.torn_blocks.add(block_addr)

    def read_block(self, block_addr: int) -> BlockData:
        self._check(block_addr)
        self.total_reads += 1
        blk = self.blocks.get(block_addr)
        return blk.copy() if blk is not None else BlockData()

    def peek_block(self, block_addr: int) -> BlockData:
        """Read without counting (used by checkers, not the simulation)."""
        blk = self.blocks.get(block_addr)
        return blk.copy() if blk is not None else BlockData()

    def read_word(self, addr: int, size: int = 8) -> int:
        """Checker helper: read ``size`` bytes at byte address ``addr``
        (uncounted, and without copying the block)."""
        blk = self.blocks.get(addr & ~(self.block_size - 1))
        if blk is None:
            return 0
        return blk.read_word(addr & (self.block_size - 1), size)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def image(self) -> Dict[int, BlockData]:
        """Snapshot of the durable image (block addr -> copy of data)."""
        return {addr: data.copy() for addr, data in self.blocks.items()}

    def written_blocks(self) -> Iterable[int]:
        return self.blocks.keys()

    def max_block_writes(self) -> int:
        """Hottest block's write count — the endurance-limiting figure."""
        return max(self.write_counts.values(), default=0)
