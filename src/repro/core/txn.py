"""Failure-atomic transactions on top of persist ordering (Section VI).

The paper positions BBB as the substrate for higher-level primitives:
"BBB addresses persist ordering ... which provides a property that can be
relied on by higher level primitives such as failure atomic regions."
This module is that layer: a classic undo-log transaction protocol whose
*only* correctness requirement is that persists happen in program order.

Protocol (per transaction):

1. for every write, append an undo record ``(addr, old_value)`` to the
   log and bump the log count — *then* perform the data store;
2. commit by resetting the log count to zero (the single atomic commit
   point).

Under a scheme with a closed PoV/PoP gap (BBB, eADR) the program-order
stores persist in order automatically, so the plain code is failure
atomic with **zero flushes or fences**.  Under ADR-only hardware the same
code is torn by crashes unless every step is fenced
(``barriers=True`` emits the Fig. 3-style flush+fence pairs).

Recovery (:func:`recover`) reads the durable log: a non-zero count means
a transaction was in flight — its undo records are applied in reverse,
rolling the data back to the pre-transaction state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.mem.nvmm import NVMMedia
from repro.sim.trace import TraceOp

WORD = 8


@dataclass
class TxnLayout:
    """Durable addresses of the transaction machinery."""

    log_count_addr: int
    log_base: int
    max_entries: int

    def entry_addr(self, index: int) -> Tuple[int, int]:
        """(addr_slot, value_slot) of undo record ``index``."""
        base = self.log_base + index * 2 * WORD
        return base, base + WORD


class TransactionContext:
    """Builds failure-atomic transaction traces over a persistent heap.

    The context tracks a software shadow of every managed address so undo
    records capture correct old values, and emits the trace operations a
    real undo-log library would execute.
    """

    def __init__(self, pheap, max_entries: int = 64, barriers: bool = False) -> None:
        self.pheap = pheap
        self.barriers = barriers
        self.layout = TxnLayout(
            log_count_addr=pheap.alloc(WORD),
            log_base=pheap.alloc(2 * WORD * max_entries),
            max_entries=max_entries,
        )
        self.shadow: Dict[int, int] = {}
        #: Values at allocation time — the durable state before the trace
        #: runs (the shadow evolves as transactions are built).
        self._initial: Dict[int, int] = {}
        self._in_txn = False
        self._entries = 0
        #: Committed shadow snapshots, for checkers.
        self.committed_states: List[Dict[int, int]] = []
        self._txn_start_shadow: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Managed data
    # ------------------------------------------------------------------
    def alloc_word(self, initial: int = 0) -> int:
        """Allocate one managed persistent word (initial value tracked in
        the shadow; write it durably via an initialising transaction or
        ``seed`` on the media)."""
        addr = self.pheap.alloc(WORD)
        self.shadow[addr] = initial
        self._initial[addr] = initial
        return addr

    def initial_words(self) -> Dict[int, int]:
        """Words to seed into NVMM media before the run: the allocation-
        time values, not the evolving shadow."""
        seeds = dict(self._initial)
        seeds[self.layout.log_count_addr] = 0
        return seeds

    # ------------------------------------------------------------------
    # Transaction building
    # ------------------------------------------------------------------
    def _flush_fence(self, ops: List[TraceOp], addr: int) -> None:
        if self.barriers:
            ops.append(TraceOp.flush(addr))
            ops.append(TraceOp.fence())

    def begin(self) -> List[TraceOp]:
        if self._in_txn:
            raise RuntimeError("transaction already open")
        self._in_txn = True
        self._entries = 0
        self._txn_start_shadow = dict(self.shadow)
        return []

    def txn_store(self, addr: int, value: int) -> List[TraceOp]:
        """One transactional write: undo record, count bump, data store."""
        if not self._in_txn:
            raise RuntimeError("txn_store outside a transaction")
        if addr not in self.shadow:
            raise KeyError(f"0x{addr:x} is not a managed word")
        if self._entries >= self.layout.max_entries:
            raise RuntimeError("undo log full")
        ops: List[TraceOp] = []
        addr_slot, value_slot = self.layout.entry_addr(self._entries)
        old = self.shadow[addr]
        # (1) undo record...
        ops.append(TraceOp.store(addr_slot, addr, tag="undo-addr"))
        ops.append(TraceOp.store(value_slot, old, tag="undo-val"))
        self._flush_fence(ops, addr_slot)
        # (2) ...validated by the count...
        self._entries += 1
        ops.append(
            TraceOp.store(self.layout.log_count_addr, self._entries, tag="log-count")
        )
        self._flush_fence(ops, self.layout.log_count_addr)
        # (3) ...then the data write.
        ops.append(TraceOp.store(addr, value, tag="txn-data"))
        self._flush_fence(ops, addr)
        self.shadow[addr] = value
        return ops

    def commit(self) -> List[TraceOp]:
        """The atomic commit point: truncate the log."""
        if not self._in_txn:
            raise RuntimeError("commit outside a transaction")
        ops = [TraceOp.store(self.layout.log_count_addr, 0, tag="commit")]
        self._flush_fence(ops, self.layout.log_count_addr)
        self._in_txn = False
        self.committed_states.append(dict(self.shadow))
        return ops


@dataclass
class RecoveryResult:
    """Outcome of post-crash transaction recovery."""

    rolled_back: int  # undo records applied
    state: Dict[int, int] = field(default_factory=dict)


def recover(
    media: NVMMedia, layout: TxnLayout, managed_addrs: List[int]
) -> RecoveryResult:
    """Post-crash recovery: roll back any in-flight transaction.

    Reads the durable log count; a non-zero value means the crash caught a
    transaction mid-flight, and its undo records are applied newest-first.
    Returns the recovered values of every managed address.
    """
    state = {addr: media.read_word(addr) for addr in managed_addrs}
    count = media.read_word(layout.log_count_addr)
    rolled_back = 0
    if 0 < count <= layout.max_entries:
        for index in reversed(range(count)):
            addr_slot, value_slot = layout.entry_addr(index)
            target = media.read_word(addr_slot)
            old_value = media.read_word(value_slot)
            if target in state:
                state[target] = old_value
                rolled_back += 1
    return RecoveryResult(rolled_back=rolled_back, state=state)
