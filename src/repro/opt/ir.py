"""The unified program IR: one analyzable representation for every input.

Workloads, the litmus DSL, hand-written traces, and the checker each used
to speak a slightly different op dialect; the optimizer (:mod:`repro.opt`)
needs one canonical form to rewrite.  A :class:`Program` is that form:
per-thread tuples of :class:`Op` — the exact :class:`~repro.sim.trace.
TraceOp` vocabulary (load / store / flush / fence / epoch / compute)
enriched with two pieces of metadata the executable trace never carried:

``origin``
    per-op provenance — which workload, litmus location, or
    instrumentation step produced the op.  Written into saved trace
    files (:func:`repro.sim.tracefile.save_program`), and lets the
    verifier name exactly which op an unsound pass removed.

``durable``
    durable-location metadata — whether the op's address falls in the
    persistent region, resolved once at construction from the memory
    config's ``is_persistent`` predicate, so passes never need a config
    to tell a persisting store from a volatile one.

Conversions are lossless in both directions: ``to_trace``/``from_trace``
map to the trace the engine executes; only the metadata (which the engine
ignores) is shed on the way out and must be re-derived on the way in.

:func:`instrument_naive` is the optimizer's front step: it inserts the
paper's Fig. 3 "naive persistent programming" instrumentation — a clwb of
the stored line plus an sfence after every persisting store — producing
the program a pmem/ADR-era library would emit.  The pass pipeline then
removes whatever each scheme's hardware contract makes redundant; on BBB
that is all of it, which is the paper's point, quantified.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, Optional, Tuple

from repro.sim.trace import OpKind, ProgramTrace, ThreadTrace, TraceOp

__all__ = [
    "INSTRUMENT_FENCE",
    "INSTRUMENT_FLUSH",
    "Op",
    "Program",
    "instrument_naive",
]

#: Provenance origins stamped by :func:`instrument_naive`.
INSTRUMENT_FLUSH = "naive-instrument/clwb"
INSTRUMENT_FENCE = "naive-instrument/sfence"


@dataclass(frozen=True)
class Op:
    """One IR operation: the executable fields of a
    :class:`~repro.sim.trace.TraceOp` plus provenance and durable-location
    metadata (see module docstring)."""

    kind: OpKind
    addr: int = 0
    size: int = 8
    value: int = 0
    cycles: int = 0
    tag: Optional[str] = None
    #: Provenance: who emitted this op (workload name, litmus location,
    #: instrumentation step).  Informational — never affects execution.
    origin: str = ""
    #: True when ``addr`` falls in the persistent region.
    durable: bool = False

    def to_trace_op(self) -> TraceOp:
        """The executable form (metadata shed)."""
        return TraceOp(self.kind, addr=self.addr, size=self.size,
                       value=self.value, cycles=self.cycles, tag=self.tag)

    @staticmethod
    def from_trace_op(
        op: TraceOp, origin: str = "", durable: bool = False
    ) -> "Op":
        return Op(op.kind, addr=op.addr, size=op.size, value=op.value,
                  cycles=op.cycles, tag=op.tag, origin=origin,
                  durable=durable)

    def describe(self) -> str:
        """Short human form used in verifier diagnostics."""
        parts = [self.kind.value]
        if self.kind in (OpKind.LOAD, OpKind.STORE, OpKind.FLUSH):
            parts.append(f"0x{self.addr:x}")
        if self.kind is OpKind.STORE:
            parts.append(f"={self.value}")
        if self.origin:
            parts.append(f"[{self.origin}]")
        return " ".join(parts)


@dataclass(frozen=True)
class Program:
    """A whole multi-threaded program in IR form: per-thread op tuples
    plus a name for reports.  Immutable — passes build new programs."""

    threads: Tuple[Tuple[Op, ...], ...]
    name: str = ""

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    @property
    def total_ops(self) -> int:
        return sum(len(t) for t in self.threads)

    def iter_ops(self) -> Iterator[Tuple[int, int, Op]]:
        """``(thread, index, op)`` in per-thread program order."""
        for tid, ops in enumerate(self.threads):
            for i, op in enumerate(ops):
                yield tid, i, op

    def count(self, kind: OpKind) -> int:
        return sum(
            1 for ops in self.threads for op in ops if op.kind is kind
        )

    def with_threads(
        self, threads: Tuple[Tuple[Op, ...], ...]
    ) -> "Program":
        return replace(self, threads=threads)

    # -- conversions ---------------------------------------------------
    def to_trace(self) -> ProgramTrace:
        """The executable object-trace form (lossless on executable
        fields; provenance/durability metadata shed)."""
        return ProgramTrace([
            ThreadTrace(op.to_trace_op() for op in ops)
            for ops in self.threads
        ])

    @staticmethod
    def from_trace(
        trace: ProgramTrace,
        *,
        name: str = "",
        origin: str = "",
        is_persistent: Optional[Callable[[int], bool]] = None,
    ) -> "Program":
        """Lift an executable trace into the IR.  ``origin`` stamps every
        op's provenance; ``is_persistent`` resolves durable-location
        metadata (omitted: every op reads as volatile, and
        :func:`instrument_naive` will instrument nothing)."""
        pred = is_persistent or (lambda addr: False)
        threads = tuple(
            tuple(
                Op.from_trace_op(
                    op, origin=origin,
                    durable=bool(op.addr) and pred(op.addr),
                )
                for op in thread.ops
            )
            for thread in trace.threads
        )
        return Program(threads=threads, name=name)


def instrument_naive(program: Program) -> Program:
    """Insert the Fig. 3 naive-persistence instrumentation: a clwb of the
    stored line plus an sfence after every *durable* store.

    This is the program shape pmem/ADR-era software emits — each persist
    made durable and ordered by hand — and the optimizer's canonical
    input: the pass pipeline then removes whatever each scheme's
    :attr:`~repro.core.registry.SchemeInfo.ordering_contract` subsumes.
    Volatile stores (and programs lifted without an ``is_persistent``
    predicate) are left alone.
    """
    threads: List[Tuple[Op, ...]] = []
    for ops in program.threads:
        out: List[Op] = []
        for op in ops:
            out.append(op)
            if op.kind is OpKind.STORE and op.durable:
                out.append(Op(OpKind.FLUSH, addr=op.addr,
                              origin=INSTRUMENT_FLUSH, durable=True))
                out.append(Op(OpKind.FENCE, origin=INSTRUMENT_FENCE))
        threads.append(tuple(out))
    return program.with_threads(tuple(threads))
