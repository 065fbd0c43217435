"""Unit tests for the heap allocators (repro.workloads.alloc)."""

import pytest

from repro.sim.config import MemConfig
from repro.workloads.alloc import OutOfMemoryError, PersistentHeap, VolatileHeap


@pytest.fixture
def mem():
    return MemConfig(dram_bytes=1 << 20, nvmm_bytes=1 << 20, persistent_bytes=1 << 18)


class TestPersistentHeap:
    def test_allocations_land_in_persistent_range(self, mem):
        heap = PersistentHeap(mem)
        for _ in range(10):
            assert mem.is_persistent(heap.alloc(24))

    def test_allocations_do_not_overlap(self, mem):
        heap = PersistentHeap(mem)
        regions = [(heap.alloc(24), 24) for _ in range(100)]
        seen = set()
        for addr, size in regions:
            span = set(range(addr, addr + size))
            assert not (span & seen)
            seen |= span

    def test_alignment(self, mem):
        heap = PersistentHeap(mem)
        heap.alloc(3)
        assert heap.alloc(8) % 8 == 0

    def test_out_of_memory(self, mem):
        heap = PersistentHeap(mem)
        with pytest.raises(OutOfMemoryError):
            heap.alloc(mem.persistent_bytes + 8)

    def test_invalid_sizes_rejected(self, mem):
        heap = PersistentHeap(mem)
        with pytest.raises(ValueError):
            heap.alloc(0)
        with pytest.raises(ValueError):
            heap.alloc(-8)


class TestVolatileHeap:
    def test_allocations_land_in_dram(self, mem):
        heap = VolatileHeap(mem)
        addr = heap.alloc(64)
        assert not mem.is_persistent(addr)
        assert not mem.is_nvmm(addr)

    def test_null_page_never_allocated(self, mem):
        heap = VolatileHeap(mem)
        assert heap.alloc(8) >= 4096
