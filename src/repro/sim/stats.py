"""Simulation statistics.

:class:`SimStats` is filled in by the engine, hierarchy, persistency scheme,
and memory controllers during a run.  The counters mirror the metrics the
paper reports: execution time (Fig. 7a, Fig. 8b), number of writes to NVMM
(Fig. 7b), bbPB rejections due to full buffer (Fig. 8a), and bbPB drains
(Fig. 8c), plus supporting detail (coalesces, forced drains, coherence
moves, stall cycles).

Serialisation
-------------

:meth:`SimStats.to_dict` emits the versioned ``repro.simstats/v1`` schema —
the one JSON shape shared by ``repro run --json``, ``repro bench``, and the
batch runner.  Nothing in the program reads it back (``json.loads`` does)::

    {
      "schema": "repro.simstats/v1",
      "num_cores": <int>,
      "totals":   {<scalar counter>: <int>, ...},   # SCALAR_FIELDS
      "bbpb_per_core": {"<core>": <drains>, ...},
      "cores":    [{<per-core counter>: <int>, ...}, ...],  # CORE_FIELDS
      "derived":  {...}   # computed from the counters, informational only
    }

The authoritative field lists are :data:`SCALAR_FIELDS` and
:data:`CORE_FIELDS`; adding a counter means extending those tuples (and
bumping the schema tag if the meaning of existing fields changes).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

#: Schema tag emitted by to_dict.
STATS_SCHEMA = "repro.simstats/v1"

#: Whole-run scalar counters, in emission order.
SCALAR_FIELDS = (
    "nvmm_writes", "nvmm_reads", "dram_reads", "dram_writes",
    "llc_hits", "llc_misses", "llc_evictions", "llc_writebacks",
    "llc_writebacks_dropped",
    "bbpb_allocations", "bbpb_coalesces", "bbpb_drains", "bbpb_rejections",
    "bbpb_forced_drains", "bbpb_moves", "bbpb_removes",
    "flushes", "fences", "epoch_barriers", "bsp_conflict_drains",
    "persist_latency_sum", "persist_latency_count", "persist_latency_max",
)

#: Per-core counters, in emission order.
CORE_FIELDS = (
    "loads", "stores", "persisting_stores", "compute_cycles",
    "stall_cycles_bbpb_full", "stall_cycles_flush_fence",
    "stall_cycles_epoch", "l1_hits", "l1_misses", "sb_forwards", "cycles",
)


@dataclass
class CoreStats:
    """Per-core counters."""

    loads: int = 0
    stores: int = 0
    persisting_stores: int = 0
    compute_cycles: int = 0
    stall_cycles_bbpb_full: int = 0
    stall_cycles_flush_fence: int = 0
    stall_cycles_epoch: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    sb_forwards: int = 0
    cycles: int = 0


@dataclass
class SimStats:
    """Whole-run statistics; the engine owns exactly one per run."""

    num_cores: int = 1
    core: List[CoreStats] = field(default_factory=list)

    # Memory-side counters.
    nvmm_writes: int = 0          # blocks accepted into the NVMM WPQ
    nvmm_reads: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    llc_evictions: int = 0
    llc_writebacks: int = 0
    llc_writebacks_dropped: int = 0  # silent drops of persistent dirty blocks

    # bbPB counters (summed over cores; per-core breakdown in bbpb_per_core).
    bbpb_allocations: int = 0
    bbpb_coalesces: int = 0
    bbpb_drains: int = 0
    bbpb_rejections: int = 0      # persist requests rejected: buffer full
    bbpb_forced_drains: int = 0   # forced by LLC dirty-inclusion evictions
    bbpb_moves: int = 0           # block moved between bbPBs (coherence)
    bbpb_removes: int = 0         # block removed from a bbPB w/o draining
    bbpb_per_core: Counter = field(default_factory=Counter)

    # Baseline-scheme counters.
    flushes: int = 0
    fences: int = 0
    epoch_barriers: int = 0
    # BSP drain-throughs of a buffered block, whichever asked: a remote
    # request, an LLC eviction or an explicit flush.
    bsp_conflict_drains: int = 0

    # PoV/PoP gap instrumentation: cycles between a persisting store
    # becoming visible (L1D write) and becoming durable.  BBB closes the
    # gap (0 by construction); other schemes accumulate real latencies.
    persist_latency_sum: int = 0
    persist_latency_count: int = 0
    persist_latency_max: int = 0

    def record_persist_latency(self, cycles: int) -> None:
        cycles = max(0, cycles)
        self.persist_latency_sum += cycles
        self.persist_latency_count += 1
        if cycles > self.persist_latency_max:
            self.persist_latency_max = cycles

    @property
    def persist_latency_avg(self) -> float:
        if not self.persist_latency_count:
            return 0.0
        return self.persist_latency_sum / self.persist_latency_count

    def __post_init__(self) -> None:
        if not self.core:
            self.core = [CoreStats() for _ in range(self.num_cores)]

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def execution_cycles(self) -> int:
        """Execution time of the parallel region = slowest core's clock."""
        return max((c.cycles for c in self.core), default=0)

    @property
    def total_stores(self) -> int:
        return sum(c.stores for c in self.core)

    @property
    def total_persisting_stores(self) -> int:
        return sum(c.persisting_stores for c in self.core)

    @property
    def total_loads(self) -> int:
        return sum(c.loads for c in self.core)

    @property
    def persist_store_fraction(self) -> float:
        return (
            self.total_persisting_stores / self.total_stores
            if self.total_stores
            else 0.0
        )

    @property
    def total_bbpb_stalls(self) -> int:
        return sum(c.stall_cycles_bbpb_full for c in self.core)

    def summary(self) -> Dict[str, float]:
        """Flat dict of headline metrics, convenient for table rendering."""
        return {
            "execution_cycles": self.execution_cycles,
            "nvmm_writes": self.nvmm_writes,
            "nvmm_reads": self.nvmm_reads,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
            "stores": self.total_stores,
            "persisting_stores": self.total_persisting_stores,
            "p_store_fraction": round(self.persist_store_fraction, 4),
            "bbpb_allocations": self.bbpb_allocations,
            "bbpb_coalesces": self.bbpb_coalesces,
            "bbpb_drains": self.bbpb_drains,
            "bbpb_rejections": self.bbpb_rejections,
            "bbpb_forced_drains": self.bbpb_forced_drains,
            "bbpb_moves": self.bbpb_moves,
            "llc_writebacks_dropped": self.llc_writebacks_dropped,
            "flushes": self.flushes,
            "fences": self.fences,
        }

    def to_dict(self) -> Dict[str, object]:
        """Serialise to the versioned ``repro.simstats/v1`` schema (see the
        module docstring)."""
        return {
            "schema": STATS_SCHEMA,
            "num_cores": self.num_cores,
            "totals": {f: getattr(self, f) for f in SCALAR_FIELDS},
            "bbpb_per_core": {
                str(k): v for k, v in sorted(self.bbpb_per_core.items())
            },
            "cores": [
                {f: getattr(c, f) for f in CORE_FIELDS} for c in self.core
            ],
            "derived": {
                "execution_cycles": self.execution_cycles,
                "total_loads": self.total_loads,
                "total_stores": self.total_stores,
                "total_persisting_stores": self.total_persisting_stores,
                "persist_store_fraction": round(self.persist_store_fraction, 6),
                "persist_latency_avg": round(self.persist_latency_avg, 4),
                "total_bbpb_stalls": self.total_bbpb_stalls,
            },
        }

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"SimStats(cores={self.num_cores})"]
        for key, val in self.summary().items():
            lines.append(f"  {key:>24}: {val}")
        return "\n".join(lines)
