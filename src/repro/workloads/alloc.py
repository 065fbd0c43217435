"""Persistent heap allocator (``palloc``).

Section III-A of the paper: persisting stores are distinguished by the
*pages* they access, not by special instructions — persistent data is
allocated in the heap with a persistent memory allocator whose pages map
into the persistent portion of the NVMM physical range.

:class:`PersistentHeap` is that allocator for the simulator: a bump
allocator over the persistent address range of a
:class:`~repro.sim.config.MemConfig`.  Nothing the simulator runs frees
memory, so there is no free list.  A companion
:class:`VolatileHeap` hands out DRAM addresses for non-persistent data so
workloads can mix both (Table IV's %P-Stores ratios depend on it).
"""

from __future__ import annotations

from repro.sim.config import MemConfig


class OutOfMemoryError(MemoryError):
    """The heap's address range is exhausted."""


class _BumpHeap:
    """Bump allocation over [base, limit)."""

    def __init__(self, base: int, limit: int, align: int = 8) -> None:
        if base >= limit:
            raise ValueError("empty heap range")
        self.base = base
        self.limit = limit
        self.align = align
        self._next = base

    def _round(self, size: int) -> int:
        return (size + self.align - 1) & ~(self.align - 1)

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the starting address."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        size = self._round(size)
        if self._next + size > self.limit:
            raise OutOfMemoryError(
                f"heap exhausted: need {size} bytes, "
                f"{self.limit - self._next} remain"
            )
        addr = self._next
        self._next += size
        return addr


class PersistentHeap(_BumpHeap):
    """``palloc``: allocations land in the persistent NVMM range, so every
    store to them is a persisting store."""

    def __init__(self, mem: MemConfig, align: int = 8) -> None:
        super().__init__(mem.persistent_base, mem.nvmm_limit, align)
        self.mem = mem

    def alloc(self, size: int) -> int:
        addr = super().alloc(size)
        assert self.mem.is_persistent(addr)
        return addr


class VolatileHeap(_BumpHeap):
    """``malloc``: allocations land in DRAM (non-persistent)."""

    def __init__(self, mem: MemConfig, align: int = 8) -> None:
        # Leave page zero unused so "null pointer" (0) is never a valid
        # persistent address in recovery checks.
        super().__init__(4096, mem.dram_bytes, align)
        self.mem = mem

    def alloc(self, size: int) -> int:
        addr = super().alloc(size)
        assert not self.mem.is_persistent(addr)
        return addr
