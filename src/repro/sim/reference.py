"""Reference memory model for differential testing.

:class:`FlatMemory` is an instantly-coherent, byte-granular flat memory
with none of the machinery the real hierarchy has (no caches, no
coherence, no buffers).  Replaying an engine execution log against it must
produce exactly the same load values as the full simulator did — a strong
oracle for the cache/coherence/store-buffer implementation: any lost
update, stale copy, forwarding bug, or merge error shows up as a value
divergence.

The engine keeps no log of its own: a test records one by wrapping the
hierarchy's ``load``/``store`` and each store buffer's ``forward`` (see
``tests/properties/test_prop_reference_model.py``).  The log lists
operations in the exact order they took architectural effect, so replay
is deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List


class LogKind(enum.Enum):
    LOAD = "load"
    STORE = "store"


@dataclass(frozen=True)
class LogRecord:
    """One architecturally-performed operation."""

    kind: LogKind
    core: int
    addr: int
    size: int
    value: int  # value observed (load) or written (store)


class FlatMemory:
    """The oracle: a plain byte map with sequential semantics."""

    def __init__(self) -> None:
        self._bytes: Dict[int, int] = {}

    def store(self, addr: int, value: int, size: int) -> None:
        for i in range(size):
            self._bytes[addr + i] = (value >> (8 * i)) & 0xFF

    def load(self, addr: int, size: int) -> int:
        return sum(self._bytes.get(addr + i, 0) << (8 * i) for i in range(size))


@dataclass
class Divergence:
    """A point where the simulator disagreed with the flat-memory oracle."""

    index: int
    record: LogRecord
    expected: int

    def __str__(self) -> str:  # pragma: no cover - diagnostics
        return (
            f"op #{self.index}: core {self.record.core} load "
            f"0x{self.record.addr:x} -> 0x{self.record.value:x}, "
            f"oracle says 0x{self.expected:x}"
        )


def check_against_reference(log: Iterable[LogRecord]) -> List[Divergence]:
    """Replay ``log`` against :class:`FlatMemory`; return all divergences.

    Under TSO the engine performs operations in a global total order (the
    log order), so every load must observe exactly what the flat memory
    holds at that point.  An empty result means the hierarchy is
    value-faithful for this execution.
    """
    oracle = FlatMemory()
    divergences: List[Divergence] = []
    for index, record in enumerate(log):
        if record.kind is LogKind.STORE:
            oracle.store(record.addr, record.value, record.size)
        else:
            expected = oracle.load(record.addr, record.size)
            if expected != record.value:
                divergences.append(Divergence(index, record, expected))
    return divergences
