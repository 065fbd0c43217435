"""Cache-line primitives: addresses, MESI states, and cache blocks.

The whole simulator works at cache-block granularity for coherence and
persistence, while stores carry byte-level (offset, value) payloads so that
crash-recovery checks can compare actual memory images.

Addresses are plain integers in a flat physical address space.  The address
space is split by :class:`repro.sim.config.MemConfig` into a DRAM range and an
NVMM range; a sub-range of NVMM is the *persistent* region managed by
``repro.workloads.alloc.PersistentHeap``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain, compress
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Tuple


class MESIState(enum.Enum):
    """Coherence states of the MESI protocol (terminology follows [83])."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Short aliases used pervasively by the protocol code.
M = MESIState.MODIFIED
E = MESIState.EXCLUSIVE
S = MESIState.SHARED
I = MESIState.INVALID  # noqa: E741  - standard MESI letter


def block_address(addr: int, block_size: int) -> int:
    """Return the block-aligned address containing byte address ``addr``."""
    return addr & ~(block_size - 1)


def block_offset(addr: int, block_size: int) -> int:
    """Return the byte offset of ``addr`` within its cache block."""
    return addr & (block_size - 1)


#: ``WORD_MASKS[n]`` covers the low ``n`` bytes of a word.
WORD_MASKS = tuple((1 << (8 * n)) - 1 for n in range(65))


class BlockData:
    """Byte-granular contents of one cache block, packed into two ints.

    ``value`` holds byte ``i`` at bits ``8i..8i+7``; ``mask`` holds ``0xFF``
    at every byte ever written, and ``value`` is 0 outside it.  Unwritten
    bytes read as 0, so two blocks are equal when their values are (a
    written 0 equals an unwritten byte), while ``mask`` still tells the
    written bytes apart for torn writes, overlays and the fingerprint
    stream.  The constructor takes an ``{offset: byte}`` mapping.
    """

    __slots__ = ("value", "mask")

    def __init__(self, data: Optional[Mapping[int, int]] = None) -> None:
        self.value = 0
        self.mask = 0
        if data:
            for offset, byte in data.items():
                self.write_word(offset, byte, 1)

    @property
    def bytes(self) -> Mapping[int, int]:
        """The written bytes as a read-only ``{offset: byte}`` mapping in
        offset order (a snapshot: a write through it raises)."""
        return MappingProxyType(dict(self._written()))

    def _written(self) -> Iterator[Tuple[int, int]]:
        """``(offset, byte)`` per written byte, in offset order."""
        n = self.mask.bit_length() >> 3
        written = self.mask.to_bytes(n, "little")
        return zip(compress(range(n), written),
                   compress(self.value.to_bytes(n, "little"), written))

    def pairs(self) -> bytes:
        """The written bytes as ``(offset, byte)`` byte pairs in offset
        order: the block's share of the durable-image fingerprints."""
        return bytes(chain.from_iterable(self._written()))

    def write_word(self, offset: int, value: int, size: int = 8) -> None:
        """Write ``size`` bytes of ``value`` little-endian at ``offset``."""
        shift = offset << 3
        m = WORD_MASKS[size] << shift
        self.value = (self.value & ~m) | ((value << shift) & m)
        self.mask |= m

    def read(self, offset: int) -> int:
        return (self.value >> (offset << 3)) & 0xFF

    def read_word(self, offset: int, size: int = 8) -> int:
        return (self.value >> (offset << 3)) & WORD_MASKS[size]

    def merge_from(self, other: "BlockData") -> None:
        """Overlay ``other``'s written bytes onto this block (other wins)."""
        m = other.mask
        self.value = (self.value & ~m) | other.value
        self.mask |= m

    def copy(self) -> "BlockData":
        clone = BlockData.__new__(BlockData)
        clone.value = self.value
        clone.mask = self.mask
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockData):
            return NotImplemented
        return self.value == other.value

    def __bool__(self) -> bool:
        return self.mask != 0

    def __repr__(self) -> str:
        return f"BlockData({dict(self._written())})"


@dataclass
class CacheBlock:
    """One cache frame: tag + MESI state + data + persistence annotations.

    ``persistent`` implements the per-block bit from Section III-B of the
    paper: a dirty block holding persistent data is *not* written back to
    NVMM on eviction because its durable copy lives (or lived) in a bbPB.

    A block in a :class:`~repro.mem.cache.CacheArray` is never in state
    ``I``: the array refuses to insert one, and the hierarchy marks a block
    ``I`` only once it has left its array (removed, or evicted as a
    victim).
    """

    addr: int
    state: MESIState = I
    data: BlockData = field(default_factory=BlockData)
    dirty: bool = False
    persistent: bool = False
    last_use: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = ("D" if self.dirty else "") + ("P" if self.persistent else "")
        return f"CacheBlock(0x{self.addr:x}, {self.state}{',' + flags if flags else ''})"
