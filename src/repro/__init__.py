"""repro — a reproduction of *BBB: Simplifying Persistent Programming using
Battery-Backed Buffers* (Alshboul et al., HPCA 2021).

The package provides:

* a trace-driven multicore simulator with a MESI directory hierarchy and a
  DRAM/NVMM memory system (:mod:`repro.mem`, :mod:`repro.sim`),
* the paper's battery-backed persist buffers and the full persistency-scheme
  comparison space (:mod:`repro.core`),
* the Table IV workload suite over a persistent heap (:mod:`repro.workloads`),
* the Section IV-C draining-cost and battery-sizing models
  (:mod:`repro.energy`),
* per-table/figure experiment drivers (:mod:`repro.analysis`), and
* an opt-in observability layer — event tracing and profiling
  (:mod:`repro.obs`).

Quickstart::

    from repro import SystemConfig, WorkloadSpec, build_system, registry

    cfg = SystemConfig().scaled_for_testing()
    workload = registry(cfg.mem, WorkloadSpec(threads=4, ops=100))["hashmap"]
    trace = workload.build()
    result = build_system("bbb", entries=32, config=cfg).run(trace)
    print(result.stats.nvmm_writes, result.execution_cycles)
"""

from repro.api import Scheme, SCHEMES, RunOptions, build_system
from repro.core.bbpb import MemorySideBBPB, ProcessorSideBBPB
from repro.obs.bus import EventBus, EventRecorder, NULL_BUS
from repro.core.bsp import BSP
from repro.core.persistency import (
    BBBScheme,
    BEP,
    EADR,
    NoPersistency,
    PersistencyScheme,
    SchemeTraits,
    StrictPMEM,
    table1_rows,
)
from repro.core.txn import RecoveryResult, TransactionContext, recover
from repro.core.recovery import (
    ConsistencyResult,
    check_epoch_consistency,
    check_exact_durability,
    check_prefix_consistency,
    replay_image,
)
from repro.sim.config import (
    BBBConfig,
    CacheConfig,
    ConsistencyModel,
    DrainPolicy,
    MemConfig,
    SystemConfig,
    TABLE_III_CONFIG,
)
from repro.sim.engine import Engine, PersistRecord, RunResult
from repro.sim.stats import SimStats
from repro.sim.system import System
from repro.sim.reference import FlatMemory, LogRecord, check_against_reference
from repro.sim.trace import OpKind, ProgramTrace, ThreadTrace, TraceOp, with_epochs
from repro.sim.tracefile import load_trace, save_trace
from repro.workloads.base import WORKLOAD_NAMES, Workload, WorkloadSpec, registry
from repro.workloads.linkedlist import LinkedListAppend

__version__ = "1.0.0"

__all__ = [
    # public construction API
    "build_system",
    "RunOptions",
    "Scheme",
    "SCHEMES",
    # observability
    "EventBus",
    "EventRecorder",
    "NULL_BUS",
    # core
    "MemorySideBBPB",
    "ProcessorSideBBPB",
    "PersistencyScheme",
    "BBBScheme",
    "EADR",
    "StrictPMEM",
    "BEP",
    "BSP",
    "NoPersistency",
    "SchemeTraits",
    "table1_rows",
    # recovery
    "TransactionContext",
    "RecoveryResult",
    "recover",
    "ConsistencyResult",
    "check_exact_durability",
    "check_prefix_consistency",
    "check_epoch_consistency",
    "replay_image",
    # configuration
    "SystemConfig",
    "CacheConfig",
    "MemConfig",
    "BBBConfig",
    "DrainPolicy",
    "ConsistencyModel",
    "TABLE_III_CONFIG",
    # simulation
    "System",
    "Engine",
    "RunResult",
    "PersistRecord",
    "SimStats",
    # traces & workloads
    "FlatMemory",
    "LogRecord",
    "check_against_reference",
    "save_trace",
    "load_trace",
    "TraceOp",
    "OpKind",
    "ThreadTrace",
    "ProgramTrace",
    "with_epochs",
    "Workload",
    "WorkloadSpec",
    "registry",
    "WORKLOAD_NAMES",
    "LinkedListAppend",
    "__version__",
]
