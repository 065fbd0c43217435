"""Trace record types consumed by the simulation engine.

Workloads emit per-thread sequences of :class:`TraceOp`.  Stores carry a
byte-level payload so that the recovery checker can compare memory images.
``Flush``/``Fence`` records exist for the strict-PMEM baseline (the scheme
that *requires* them); under BBB/eADR they are unnecessary and the engine
treats them as no-ops unless the active scheme consumes them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence


class OpKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    FLUSH = "flush"        # clwb/clflushopt-style writeback of one block
    FENCE = "fence"        # sfence-style persist barrier
    COMPUTE = "compute"    # fixed-latency non-memory work
    EPOCH = "epoch"        # epoch boundary (buffered epoch persistency)


@dataclass(frozen=True)
class TraceOp:
    """One dynamic operation of one thread.

    ``addr`` is a byte address; ``size`` the access width in bytes;
    ``value`` the little-endian integer written by a store.  ``cycles`` is
    only meaningful for COMPUTE ops (busy time between memory accesses).
    """

    kind: OpKind
    addr: int = 0
    size: int = 8
    value: int = 0
    cycles: int = 0
    #: Optional label used by recovery checkers to identify logical updates.
    tag: Optional[str] = None

    @staticmethod
    def load(addr: int, size: int = 8, tag: Optional[str] = None) -> "TraceOp":
        return TraceOp(OpKind.LOAD, addr=addr, size=size, tag=tag)

    @staticmethod
    def store(
        addr: int, value: int, size: int = 8, tag: Optional[str] = None
    ) -> "TraceOp":
        return TraceOp(OpKind.STORE, addr=addr, size=size, value=value, tag=tag)

    @staticmethod
    def flush(addr: int) -> "TraceOp":
        return TraceOp(OpKind.FLUSH, addr=addr)

    @staticmethod
    def fence() -> "TraceOp":
        return TraceOp(OpKind.FENCE)

    @staticmethod
    def compute(cycles: int) -> "TraceOp":
        return TraceOp(OpKind.COMPUTE, cycles=cycles)

    @staticmethod
    def epoch() -> "TraceOp":
        return TraceOp(OpKind.EPOCH)


class ThreadTrace:
    """A per-thread operation list."""

    def __init__(self, ops: Optional[Iterable[TraceOp]] = None) -> None:
        self.ops: List[TraceOp] = list(ops or [])

    def append(self, op: TraceOp) -> None:
        self.ops.append(op)

    def extend(self, ops: Iterable[TraceOp]) -> None:
        self.ops.extend(ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[TraceOp]:
        return iter(self.ops)

    def __getitem__(self, idx):
        return self.ops[idx]

    def count(self, kind: OpKind) -> int:
        return sum(1 for op in self.ops if op.kind is kind)


class ProgramTrace:
    """A multi-threaded program: one :class:`ThreadTrace` per core."""

    def __init__(self, threads: Sequence[ThreadTrace]) -> None:
        if not threads:
            raise ValueError("a program needs at least one thread")
        self.threads: List[ThreadTrace] = list(threads)

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    def total_ops(self) -> int:
        return sum(len(t) for t in self.threads)

    def persistent_store_fraction(self, is_persistent) -> float:
        """Fraction of stores that target the persistent region (Table IV's
        %P-Stores column).  ``is_persistent`` is an ``addr -> bool``
        predicate, normally ``MemConfig.is_persistent``."""
        total = 0
        persisting = 0
        for thread in self.threads:
            for op in thread:
                if op.kind is OpKind.STORE:
                    total += 1
                    if is_persistent(op.addr):
                        persisting += 1
        return persisting / total if total else 0.0

    @staticmethod
    def single(ops: Iterable[TraceOp]) -> "ProgramTrace":
        return ProgramTrace([ThreadTrace(ops)])


def with_epochs(trace: "ProgramTrace", every_n_stores: int) -> "ProgramTrace":
    """Annotate a plain trace with epoch boundaries for buffered epoch
    persistency: insert an EPOCH op after every ``every_n_stores``
    persisting-or-not stores on each thread.

    This is the programmer burden BEP imposes (and BBB removes): the same
    program needs these annotations to be recoverable at epoch granularity
    under BEP, while running unmodified under BBB.
    """
    if every_n_stores < 1:
        raise ValueError("epoch length must be >= 1 store")
    threads: List[ThreadTrace] = []
    for thread in trace.threads:
        annotated = ThreadTrace()
        stores = 0
        for op in thread:
            annotated.append(op)
            if op.kind is OpKind.STORE:
                stores += 1
                if stores % every_n_stores == 0:
                    annotated.append(TraceOp.epoch())
        threads.append(annotated)
    return ProgramTrace(threads)
