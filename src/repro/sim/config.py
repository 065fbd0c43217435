"""System configuration dataclasses.

Defaults follow Table III of the paper (the gem5 configuration used for the
performance evaluation):

* 8 cores at 2 GHz
* private L1D: 128 kB, 8-way, 64 B blocks, 2-cycle hit
* shared L2 (the LLC in the evaluated system): 1 MB, 8-way, 64 B, 11 cycles
* DRAM: 8 GB, 55 ns read/write
* NVMM: 8 GB, 150 ns read, 500 ns write, ADR (battery-backed WPQ)
* bbPB: 32 entries per core, drain threshold 75%

All latencies are expressed in core cycles; nanosecond figures from the paper
are converted at the 2 GHz clock (1 ns = 2 cycles).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.mem.nvmm import MEDIA_BLOCK_SIZE


class ConsistencyModel(enum.Enum):
    """Memory consistency model of the simulated cores (Section III-C).

    Under ``TSO`` (and sequential consistency) stores reach the L1D in
    program order, so the bbPB alone gives program-order PoP.  Under
    ``RELAXED`` the L1D may be written out of program order and the store
    buffer must be battery-backed to keep PoP in program order.
    """

    TSO = "tso"
    RELAXED = "relaxed"


class DrainPolicy(enum.Enum):
    """When/how the bbPB drains entries to the NVMM (Section III-F)."""

    #: Default: drain oldest-first once occupancy reaches the threshold,
    #: until it falls back below the threshold.
    FCFS_THRESHOLD = "fcfs-threshold"
    #: Once the threshold is reached, drain the entire buffer.
    DRAIN_ALL = "drain-all"
    #: Drain every entry as soon as it is allocated (no coalescing window).
    EAGER = "eager"
    #: Future-work policy from Section III-F ("draining blocks based on the
    #: prediction for future writes"): drain the entry written least
    #: recently — the one least likely to coalesce again.
    LEAST_RECENTLY_WRITTEN = "least-recently-written"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    assoc: int
    block_size: int = 64
    hit_latency: int = 2

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.block_size):
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by "
                f"assoc*block ({self.assoc}*{self.block_size})"
            )
        if self.block_size & (self.block_size - 1):
            raise ValueError("block_size must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.block_size)

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_size


@dataclass(frozen=True)
class MemConfig:
    """Main-memory geometry, latency, and address-space layout.

    The physical address space is flat: DRAM occupies
    ``[0, dram_bytes)`` and NVMM occupies ``[dram_bytes, dram_bytes +
    nvmm_bytes)``.  The tail of the NVMM range (``persistent_bytes``) is the
    persistent region handed to the persistent heap allocator.
    """

    dram_bytes: int = 8 << 30
    nvmm_bytes: int = 8 << 30
    persistent_bytes: int = 4 << 30
    dram_read_cycles: int = 110   # 55 ns @ 2 GHz
    dram_write_cycles: int = 110
    nvmm_read_cycles: int = 300   # 150 ns
    nvmm_write_cycles: int = 1000  # 500 ns (media write, used off critical path)
    #: One-way on-chip transfer from a core/bbPB to the memory controller.
    mc_transfer_cycles: int = 40
    #: Port occupancy per 64 B block accepted into the (ADR) WPQ.  Under ADR
    #: a write is durable at acceptance; the slow media write happens behind
    #: the WPQ and never blocks acceptance in this model.
    wpq_accept_cycles: int = 20
    #: Independent NVMM channels (Table V: 2 mobile / 12 server).  Blocks
    #: interleave across channels; each channel has its own WPQ accept
    #: port, so drain bandwidth scales with the channel count.
    nvmm_channels: int = 1

    def __post_init__(self) -> None:
        if self.persistent_bytes > self.nvmm_bytes:
            raise ValueError("persistent region cannot exceed NVMM size")
        if self.nvmm_channels < 1:
            raise ValueError("need at least one NVMM channel")
        # Region bounds are consulted on every simulated memory access;
        # cache them as plain ints so ``is_nvmm``/``is_persistent`` are two
        # integer compares instead of chained property evaluations.
        object.__setattr__(self, "_nvmm_base", self.dram_bytes)
        object.__setattr__(self, "_nvmm_limit", self.dram_bytes + self.nvmm_bytes)
        object.__setattr__(
            self, "_persistent_base",
            self.dram_bytes + self.nvmm_bytes - self.persistent_bytes,
        )

    @property
    def nvmm_base(self) -> int:
        return self._nvmm_base

    @property
    def nvmm_limit(self) -> int:
        return self._nvmm_limit

    @property
    def persistent_base(self) -> int:
        """First byte of the persistent region (top of NVMM)."""
        return self._persistent_base

    def is_nvmm(self, addr: int) -> bool:
        return self._nvmm_base <= addr < self._nvmm_limit

    def is_persistent(self, addr: int) -> bool:
        """Persisting stores are identified by page/region, not by special
        instructions (Section III-A): anything allocated by ``palloc`` lands
        here."""
        return self._persistent_base <= addr < self._nvmm_limit


@dataclass(frozen=True)
class BBBConfig:
    """Battery-backed persist buffer parameters (Sections III-A, III-F)."""

    entries: int = 32
    drain_threshold: float = 0.75
    drain_policy: DrainPolicy = DrainPolicy.FCFS_THRESHOLD
    #: Memory-side (default, coalescing blocks) vs processor-side
    #: (ordered per-store records) organisation — Section III-B.
    memory_side: bool = True
    #: Processor-side only: permit the "two stores are subsequent and
    #: involve the same block" coalescing special case of Section III-B.
    #: The paper's measured processor-side variant behaves as if almost
    #: every persisting store drains individually (Section V-C), which
    #: corresponds to False.
    proc_coalesce_consecutive: bool = True

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise ValueError("bbPB needs at least one entry")
        if not 0.0 < self.drain_threshold <= 1.0:
            raise ValueError("drain threshold must be in (0, 1]")

    @property
    def threshold_entries(self) -> int:
        """Occupancy (entry count) at which draining starts."""
        return max(1, int(self.entries * self.drain_threshold))


@dataclass(frozen=True)
class SystemConfig:
    """Top-level simulated-system configuration (defaults = Table III)."""

    num_cores: int = 8
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(128 << 10, 8, 64, hit_latency=2)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(1 << 20, 8, 64, hit_latency=11)
    )
    mem: MemConfig = field(default_factory=MemConfig)
    consistency: ConsistencyModel = ConsistencyModel.TSO
    store_buffer_entries: int = 32
    #: Drop LLC writebacks of dirty *persistent* blocks (Section III-E,
    #: example (c)): the bbPB copy is (or was) the durable one, so writing
    #: the block back to NVMM again would be redundant.
    silent_drop_persistent_writebacks: bool = True
    #: Ablation knob: keep the store buffer volatile even under BBB/eADR.
    #: Under relaxed consistency this breaks program-order persistency
    #: (Section III-C) — the tests demonstrate it.
    force_volatile_store_buffer: bool = False

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("need at least one core")
        if self.l1d.block_size != self.llc.block_size:
            raise ValueError("L1D and LLC must share a block size")
        if self.l1d.block_size != MEDIA_BLOCK_SIZE:
            raise ValueError(
                f"cache block size {self.l1d.block_size} B differs from the "
                f"NVMM media's {MEDIA_BLOCK_SIZE} B blocks"
            )

    @property
    def block_size(self) -> int:
        return self.l1d.block_size

    def scaled_for_testing(self) -> "SystemConfig":
        """Small caches/memory so unit tests exercise evictions quickly."""
        return replace(
            self,
            l1d=CacheConfig(2 << 10, 2, 64, hit_latency=2),
            llc=CacheConfig(8 << 10, 4, 64, hit_latency=11),
            mem=replace(
                self.mem,
                dram_bytes=1 << 20,
                nvmm_bytes=1 << 20,
                persistent_bytes=1 << 19,
            ),
        )


#: The configuration used throughout the paper's evaluation (Table III).
TABLE_III_CONFIG = SystemConfig()
