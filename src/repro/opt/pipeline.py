"""The pass pipeline: every pass applied once, every removal audited.

:func:`run_pipeline` applies a sequence of passes (names in
:data:`~repro.opt.passes.PASSES`; default
:data:`~repro.opt.passes.DEFAULT_PIPELINE`) to an IR program under one
scheme's capability descriptor.  Each pass runs once per thread, and
each op it deletes is judged, against the thread the pass saw, by
:func:`removal_justified`: a deletion stands only if the op's kind is
subsumed by the scheme's declared
:attr:`~repro.core.registry.SchemeInfo.ordering_contract` or one of the
redundancy predicates (:func:`flush_is_redundant`,
:func:`fence_is_redundant`, :func:`store_is_coalescible`) confirms it
was a no-op at its position.  Loads and computes are never justifiable.

The predicates re-derive redundancy from first principles, separately
from the pass code in :mod:`repro.opt.passes`: a pass and its predicate
agreeing is evidence; a pass citing its own reasoning would be
circular.  This is the audit with teeth against a plausible-but-wrong
pass — the mutant ``opt-drop-epoch-fence`` deletes load-bearing sfences
under pmem and epoch boundaries under bep, and the audit names each one
by provenance.

The :class:`PipelineResult` carries the optimized program, the
flush+fence elision percentage the paper's simplification claim turns
into (``repro opt --compare``), and the audit's violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.registry import (
    ORDERING_EPOCH,
    ORDERING_FENCE,
    ORDERING_FLUSH,
    scheme_info,
)
from repro.mem.block import block_address
from repro.opt.ir import Op, Program
from repro.opt.passes import (
    DEFAULT_PIPELINE,
    PASSES,
    PassContext,
    removed_positions,
)
from repro.sim.trace import OpKind

__all__ = [
    "PipelineResult",
    "fence_is_redundant",
    "flush_is_redundant",
    "removal_justified",
    "run_pipeline",
    "store_is_coalescible",
]


# ----------------------------------------------------------------------
# Independent redundancy predicates
# ----------------------------------------------------------------------

def flush_is_redundant(
    ops: Sequence[Op], i: int, block_size: int = 64
) -> bool:
    """A clwb at ``i`` is redundant iff this thread has not stored to its
    line since the line's previous clwb (or ever): walking back, a store
    to the same block means the flush has work to do; another flush of
    the same block — or the start of the thread — means it does not."""
    line = block_address(ops[i].addr, block_size)
    for j in range(i - 1, -1, -1):
        op = ops[j]
        if op.kind is OpKind.STORE and block_address(
            op.addr, block_size
        ) == line:
            return False
        if op.kind is OpKind.FLUSH and block_address(
            op.addr, block_size
        ) == line:
            return True
    return True


def fence_is_redundant(ops: Sequence[Op], i: int) -> bool:
    """An sfence at ``i`` is redundant iff this thread has no clwb
    outstanding since its previous sfence: walking back, a flush means the
    fence orders it; another fence — or the start — means nothing is
    outstanding."""
    for j in range(i - 1, -1, -1):
        kind = ops[j].kind
        if kind is OpKind.FLUSH:
            return False
        if kind is OpKind.FENCE:
            return True
    return True


def store_is_coalescible(ops: Sequence[Op], i: int) -> bool:
    """A store at ``i`` may be dropped iff the *immediately next* op is a
    store to the same address, size, and durability — the pair coalesces
    into one persist with no op between them that could expose the
    intermediate value.  Non-adjacent overwrites are never coalescible:
    an intervening op can be an ordering point the persistency model
    exposes."""
    if i + 1 >= len(ops):
        return False
    op, nxt = ops[i], ops[i + 1]
    return (
        nxt.kind is OpKind.STORE
        and nxt.addr == op.addr
        and nxt.size == op.size
        and nxt.durable == op.durable
    )


#: OpKind -> the ordering-contract kind whose subsumption justifies
#: removing it outright.
_CONTRACT_KIND = {
    OpKind.FLUSH: ORDERING_FLUSH,
    OpKind.FENCE: ORDERING_FENCE,
    OpKind.EPOCH: ORDERING_EPOCH,
}

#: OpKind -> the positional redundancy predicate that can justify a
#: removal when the contract does not.
_REDUNDANCY = {
    OpKind.FLUSH: lambda ops, i, bs: flush_is_redundant(ops, i, bs),
    OpKind.FENCE: lambda ops, i, bs: fence_is_redundant(ops, i),
    OpKind.STORE: lambda ops, i, bs: store_is_coalescible(ops, i),
}


def removal_justified(
    ops: Sequence[Op], i: int, ctx: PassContext
) -> Tuple[bool, str]:
    """Judge one removal against the pre-pass thread ``ops``.  Returns
    ``(justified, why)`` — ``why`` names the accepting rule or the
    objection."""
    op = ops[i]
    contract_kind = _CONTRACT_KIND.get(op.kind)
    if contract_kind is not None and ctx.scheme.subsumes_ordering(
        contract_kind
    ):
        return True, (
            f"scheme {ctx.scheme.name!r} ordering contract subsumes "
            f"{contract_kind}"
        )
    predicate = _REDUNDANCY.get(op.kind)
    if predicate is not None and predicate(ops, i, ctx.block_size):
        if op.kind is OpKind.STORE:
            return True, "coalesces into the adjacent same-address store"
        return True, "redundant at its position"
    if op.kind in (OpKind.LOAD, OpKind.COMPUTE):
        return False, f"a {op.kind.value} op is never removable"
    return False, (
        f"not subsumed by scheme {ctx.scheme.name!r}'s ordering contract "
        f"{ctx.scheme.ordering_contract!r} and not redundant at its "
        f"position"
    )


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineResult:
    """One (program x scheme x pipeline) optimization, audited."""

    scheme: str
    passes: Tuple[str, ...]
    optimized: Program
    #: Percentage of the input's clwb+sfence instrumentation removed
    #: (0.0 when the input had none — nothing to elide): the headline
    #: number.
    flush_fence_elision_pct: float
    #: ``(pass, thread, position, op description, objection)`` rows for
    #: every removal no independent rule justified.  Empty == sound.
    violations: Tuple[Tuple[str, int, int, str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe_violations(self) -> List[str]:
        return [
            f"pass {name!r}: thread {tid} op {pos}: removed "
            f"[{desc}] — {why}"
            for name, tid, pos, desc, why in self.violations
        ]


def _flush_fence(program: Program) -> int:
    return program.count(OpKind.FLUSH) + program.count(OpKind.FENCE)


def run_pipeline(
    program: Program,
    scheme: str,
    passes: Optional[Sequence[str]] = None,
    block_size: int = 64,
) -> PipelineResult:
    """Apply ``passes`` (default :data:`DEFAULT_PIPELINE`) to ``program``
    under ``scheme``'s capability descriptor, auditing every removal (see
    the module docstring).  Raises ``ValueError`` for an unknown pass
    name, before any pass runs, and for a pass that is not removal-only
    (:func:`~repro.opt.passes.removed_positions`)."""
    info = scheme_info(scheme)
    ctx = PassContext(scheme=info, block_size=block_size)
    names = tuple(passes if passes is not None else DEFAULT_PIPELINE)
    for name in names:
        if name not in PASSES:
            raise ValueError(
                f"unknown optimizer pass {name!r}; valid passes: "
                f"{', '.join(PASSES)}"
            )
    threads = program.threads
    violations: List[Tuple[str, int, int, str, str]] = []
    for name in names:
        fn = PASSES[name]
        applied = []
        for tid, ops in enumerate(threads):
            out = tuple(fn(ops, ctx))
            for pos in removed_positions(ops, out):
                ok, why = removal_justified(ops, pos, ctx)
                if not ok:
                    violations.append(
                        (name, tid, pos, ops[pos].describe(), why)
                    )
            applied.append(out)
        threads = tuple(applied)
    optimized = program.with_threads(threads)
    instrumented = _flush_fence(program)
    elided = instrumented - _flush_fence(optimized)
    return PipelineResult(
        scheme=info.name, passes=names, optimized=optimized,
        flush_fence_elision_pct=(100.0 * elided / instrumented
                                 if instrumented else 0.0),
        violations=tuple(violations),
    )
