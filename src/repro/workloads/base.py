"""Workload framework.

A :class:`Workload` builds a multi-threaded :class:`ProgramTrace` mirroring
the persist-traffic shape of the paper's Table IV benchmarks: each thread
performs random operations on a (persistent) data structure, generating
back-to-back persisting stores with little other computation — the paper
designed them "to exert maximum pressure on the bbPB".

Node counts are scaled down from the paper's 1 million (configurable via
``ops`` and ``elements``) so a pure-Python simulation completes in seconds;
the *ratios* that matter (%P-Stores, stores-per-operation, conflict
structure) are preserved by construction.

Every workload can also report expected recovery invariants via
``make_checker`` for crash-sweep testing.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.sim.config import MemConfig
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from repro.workloads.alloc import PersistentHeap, VolatileHeap

#: Width of one machine word in the traces (bytes).
WORD = 8


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters shared by all workloads.  Frozen, so equal specs hash
    alike (trace and exhibit-cell caches key on them); derive variants
    with ``dataclasses.replace``."""

    threads: int = 8
    ops: int = 200          # operations per thread
    elements: int = 4096    # structure size (paper: 1 million)
    seed: int = 42
    #: Cycles of non-memory compute inserted per operation, modelling the
    #: (small) work between persists.
    compute_per_op: int = 4

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.ops < 0:
            raise ValueError(f"ops must be >= 0, got {self.ops}")


class Workload:
    """Base class: generate a trace + optional recovery checker."""

    name = "workload"
    description = ""
    #: %P-Stores reported by the paper (Table IV) for shape comparison.
    paper_p_store_pct: Optional[float] = None

    def __init__(self, mem: MemConfig, spec: Optional[WorkloadSpec] = None) -> None:
        self.mem = mem
        self.spec = spec or WorkloadSpec()
        self.pheap = PersistentHeap(mem)
        self.vheap = VolatileHeap(mem)
        self.rng = random.Random(self.spec.seed)
        #: Pre-populated persistent state (word addr -> 8-byte value): the
        #: paper's workloads insert into structures that *already hold* 1M
        #: nodes, so workloads that pre-populate serialise that state here
        #: and :meth:`seed_media` installs it as already-durable NVMM
        #: content before the measured run starts.
        self.initial_words: Dict[int, int] = {}

    def seed_media(self, media) -> int:
        """Install the pre-populated structure into the NVMM media image
        (it is durable before the run begins).  Returns words written."""
        return seed_media_words(media, self.initial_words)

    # ------------------------------------------------------------------
    # To implement
    # ------------------------------------------------------------------
    def iter_ops(self, thread_id: int) -> Iterator[TraceOp]:
        """Yield thread ``thread_id``'s operations lazily — the canonical
        generation path.  :meth:`build_thread`/:meth:`build` materialize
        it into the trace :meth:`repro.sim.system.System.run` executes.

        Contract: workloads keep *one* RNG and mutable model state shared
        across threads, so generators must be consumed one thread at a
        time in ascending thread order, each to exhaustion — exactly what
        :meth:`build` does.  Interleaving two threads' generators yields
        a different (still valid, but not trace-cache-equal) program.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Common entry points
    # ------------------------------------------------------------------
    def build_thread(self, thread_id: int) -> ThreadTrace:
        """Materialize one thread's ops (built on :meth:`iter_ops`)."""
        return ThreadTrace(self.iter_ops(thread_id))

    def build(self) -> ProgramTrace:
        threads = [self.build_thread(t) for t in range(self.spec.threads)]
        return ProgramTrace(threads)

    def build_program(self):
        """The IR form of :meth:`build`: the same trace lifted into a
        :class:`~repro.opt.ir.Program`, every op stamped with this
        workload's name as provenance and with durable-location metadata
        resolved from the memory config — the shape the optimizer
        (:mod:`repro.opt`) rewrites and its verifier audits."""
        from repro.opt.ir import Program

        return Program.from_trace(
            self.build(), name=self.name, origin=self.name,
            is_persistent=self.mem.is_persistent,
        )

    def p_store_fraction(self, trace: ProgramTrace) -> float:
        return trace.persistent_store_fraction(self.mem.is_persistent)

    def make_checker(self) -> Optional[Callable]:
        """Optional: a ``(system, result) -> (bool, [violations])`` checker
        validating structure-specific recovery invariants on the durable
        image.  None means only the generic checkers apply."""
        return None


def seed_media_words(media, initial_words: Dict[int, int]) -> int:
    """Install pre-populated persistent words into an NVMM media image
    (they are durable before the measured run begins).  Returns the number
    of words written."""
    from repro.mem.block import BlockData, block_address, block_offset

    by_block: Dict[int, "BlockData"] = {}
    for addr, value in initial_words.items():
        baddr = block_address(addr, 64)
        by_block.setdefault(baddr, BlockData()).write_word(
            block_offset(addr, 64), value, WORD
        )
    for baddr, data in by_block.items():
        media.write_block(baddr, data)
    # Seeding models state persisted before the measured window; do not
    # let it pollute the window's write counters.
    media.total_writes -= len(by_block)
    for baddr in by_block:
        media.write_counts[baddr] -= 1
    return len(initial_words)


def make_workload(
    name: str, mem: MemConfig, spec: Optional[WorkloadSpec] = None
) -> Workload:
    """Construct exactly one Table IV workload (cheaper than ``registry``
    when only one is needed — the registry instantiates all seven)."""
    from repro.workloads.arrays import ArrayMutate, ArraySwap
    from repro.workloads.ctree import CTreeInsert
    from repro.workloads.hashmap import HashmapInsert
    from repro.workloads.rtree import RTreeInsert

    builders: Dict[str, Callable[[], Workload]] = {
        "rtree": lambda: RTreeInsert(mem, spec),
        "ctree": lambda: CTreeInsert(mem, spec),
        "hashmap": lambda: HashmapInsert(mem, spec),
        "mutateNC": lambda: ArrayMutate(mem, spec, conflicting=False),
        "mutateC": lambda: ArrayMutate(mem, spec, conflicting=True),
        "swapNC": lambda: ArraySwap(mem, spec, conflicting=False),
        "swapC": lambda: ArraySwap(mem, spec, conflicting=True),
    }
    try:
        return builders[name]()
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; pick from {WORKLOAD_NAMES}")


def registry(mem: MemConfig, spec: Optional[WorkloadSpec] = None) -> Dict[str, Workload]:
    """All Table IV workloads, keyed by the paper's names."""
    return {name: make_workload(name, mem, spec) for name in WORKLOAD_NAMES}


# ----------------------------------------------------------------------
# Memoized trace building
# ----------------------------------------------------------------------

#: Bound on the number of cached (trace, initial_words) pairs.  Sweeps reuse
#: a handful of (workload, spec) combinations dozens of times; the bound
#: just keeps pathological many-spec callers from accumulating traces.
_TRACE_CACHE_MAX = 32
_trace_cache: "OrderedDict[Tuple, Tuple[ProgramTrace, Dict[int, int]]]" = OrderedDict()
_trace_cache_lock = threading.Lock()


def _trace_key(name: str, mem: MemConfig, spec: WorkloadSpec) -> Tuple:
    # MemConfig and WorkloadSpec are frozen and hash by value, so
    # logically-equal specs share a cache entry.  The seed is in the spec.
    return (name, mem, spec)


def build_cached(
    name: str, mem: MemConfig, spec: Optional[WorkloadSpec] = None
) -> Tuple[ProgramTrace, Dict[int, int]]:
    """Build (or fetch) the trace and pre-population words for a workload.

    Trace generation is deterministic in ``(workload name, MemConfig,
    WorkloadSpec)`` — the workload seeds its own RNG from ``spec.seed`` —
    so repeated experiment runs (sweeps, normalization baselines, batch
    workers) can share one build.  Returned objects are cached: callers
    must treat both the trace and the words dict as read-only.
    """
    wspec = spec or WorkloadSpec()
    key = _trace_key(name, mem, wspec)
    with _trace_cache_lock:
        hit = _trace_cache.get(key)
        if hit is not None:
            _trace_cache.move_to_end(key)
            return hit
    workload = make_workload(name, mem, wspec)
    trace = workload.build()
    entry = (trace, workload.initial_words)
    with _trace_cache_lock:
        _trace_cache[key] = entry
        while len(_trace_cache) > _TRACE_CACHE_MAX:
            _trace_cache.popitem(last=False)
    return entry


def clear_trace_cache() -> None:
    """Drop all memoized traces (mainly for tests and memory pressure)."""
    with _trace_cache_lock:
        _trace_cache.clear()


WORKLOAD_NAMES: Tuple[str, ...] = (
    "rtree",
    "ctree",
    "hashmap",
    "mutateNC",
    "mutateC",
    "swapNC",
    "swapC",
)
