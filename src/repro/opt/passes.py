"""Optimizer passes: removal-only rewrites over the program IR.

A pass is a pure per-thread function ``(ops, ctx) -> ops``, listed by
name in :data:`PASSES`.  Two hard rules keep the pipeline verifiable:

1. **Removal-only.**  A pass returns a *subsequence* of its input ops —
   it may drop ops, never insert, reorder, or mutate them (the surviving
   ops are the same objects).  :func:`removed_positions` exploits this to
   recover exactly which input positions a pass deleted (and raises on
   anything else), and the pipeline (:mod:`repro.opt.pipeline`)
   re-justifies every deletion with predicates independent of the code
   here.

2. **Capability-gated elision.**  Scheme-dependent passes consult only
   :attr:`~repro.core.registry.SchemeInfo.ordering_contract` — which
   persist-instrumentation kinds the scheme's hardware subsumes — never
   scheme names.  bbb/bbb-proc/eadr subsume everything (PoV == PoP, the
   paper's claim); pmem keeps its flushes and fences (they *are* its
   durability mechanism); bep keeps its epoch boundaries; ``none`` keeps
   flush;fence chains (under Px86-TSO they are the only ordering
   control).

The scheme-independent passes remove only what is redundant on any
scheme: a clwb of a line the thread never dirtied (or already flushed),
an sfence with no clwb outstanding since the previous sfence, and a
store immediately overwritten by an adjacent same-address store (the
coalesced run retires as one persist).

``opt-drop-epoch-fence`` is the *mutant* pass (:data:`MUTANT_PIPELINE`)
— deliberately unsound, in no default pipeline — which drops all fences
and epoch boundaries regardless of contract; the audit must flag it
under any scheme whose ordering contract requires them (pmem, bep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core.registry import (
    ORDERING_EPOCH,
    ORDERING_FENCE,
    ORDERING_FLUSH,
    SchemeInfo,
)
from repro.mem.block import block_address
from repro.opt.ir import Op
from repro.sim.trace import OpKind

__all__ = [
    "DEFAULT_PIPELINE",
    "MUTANT_PIPELINE",
    "PASSES",
    "PassContext",
    "removed_positions",
]

ThreadOps = Tuple[Op, ...]
PassFn = Callable[[ThreadOps, "PassContext"], ThreadOps]


@dataclass(frozen=True)
class PassContext:
    """Everything a pass may consult: the scheme's capability descriptor
    and the cache-block geometry (for line-granular flush reasoning)."""

    scheme: SchemeInfo
    block_size: int = 64


def removed_positions(before: ThreadOps, after: ThreadOps) -> List[int]:
    """Input positions a removal-only pass deleted.

    Alignment is by object identity: a conforming pass returns the *same*
    op objects it kept, so a single forward walk recovers the removals.
    Raises ``ValueError`` when ``after`` is not an identity-subsequence of
    ``before`` — i.e. the pass inserted, reordered, or rebuilt ops,
    violating the removal-only contract the audit depends on."""
    removed: List[int] = []
    j = 0
    for i, op in enumerate(before):
        if j < len(after) and after[j] is op:
            j += 1
        else:
            removed.append(i)
    if j != len(after):
        raise ValueError(
            "pass output is not an identity-subsequence of its input — "
            "optimizer passes must only remove ops, never insert, "
            "reorder, or rebuild them"
        )
    return removed


# ----------------------------------------------------------------------
# Scheme-independent redundancy passes
# ----------------------------------------------------------------------

def _coalesce_stores(ops: ThreadOps, ctx: PassContext) -> ThreadOps:
    """Drop a store immediately overwritten by an adjacent store to the
    same address and size — the run coalesces into one persist.  Only
    adjacency makes this sound: a non-adjacent overwrite can be separated
    by stores whose intermediate durable states the persistency model
    exposes."""
    out: List[Op] = []
    for i, op in enumerate(ops):
        if op.kind is OpKind.STORE and i + 1 < len(ops):
            nxt = ops[i + 1]
            if (nxt.kind is OpKind.STORE and nxt.addr == op.addr
                    and nxt.size == op.size and nxt.durable == op.durable):
                continue
        out.append(op)
    return tuple(out)


def _drop_dead_flush(ops: ThreadOps, ctx: PassContext) -> ThreadOps:
    """Drop a clwb of a line this thread never stored to — or has not
    stored to since its previous clwb of the same line (duplicate clwb
    elimination): there is nothing of ours for it to write back."""
    dirty: set = set()  # lines this thread stored since their last flush
    out: List[Op] = []
    for op in ops:
        if op.kind is OpKind.STORE:
            dirty.add(block_address(op.addr, ctx.block_size))
            out.append(op)
        elif op.kind is OpKind.FLUSH:
            line = block_address(op.addr, ctx.block_size)
            if line in dirty:
                dirty.discard(line)
                out.append(op)
            # else: dead/duplicate clwb — drop it
        else:
            out.append(op)
    return tuple(out)


def _weaken_fence(ops: ThreadOps, ctx: PassContext) -> ThreadOps:
    """Drop an sfence with no clwb by this thread since the previous
    sfence — an sfence only orders the issuing core's outstanding
    flushes, so with none outstanding it is a timing no-op."""
    pending = False  # a flush by this thread since the previous fence
    out: List[Op] = []
    for op in ops:
        if op.kind is OpKind.FLUSH:
            pending = True
            out.append(op)
        elif op.kind is OpKind.FENCE:
            if pending:
                pending = False
                out.append(op)
            # else: no outstanding clwb to order — drop it
        else:
            out.append(op)
    return tuple(out)


# ----------------------------------------------------------------------
# Contract-gated elision passes
# ----------------------------------------------------------------------

def _elide_kind(
    ops: ThreadOps, ctx: PassContext, op_kind: OpKind, ordering_kind: str
) -> ThreadOps:
    if not ctx.scheme.subsumes_ordering(ordering_kind):
        return ops
    return tuple(op for op in ops if op.kind is not op_kind)


def _elide_flush(ops: ThreadOps, ctx: PassContext) -> ThreadOps:
    """Remove every clwb when the scheme's ordering contract subsumes
    flushes (battery-backed store-commit persistence: the line is durable
    the moment the store commits)."""
    return _elide_kind(ops, ctx, OpKind.FLUSH, ORDERING_FLUSH)


def _elide_fence(ops: ThreadOps, ctx: PassContext) -> ThreadOps:
    """Remove every sfence when the scheme's ordering contract subsumes
    fences (persists already happen in visibility order)."""
    return _elide_kind(ops, ctx, OpKind.FENCE, ORDERING_FENCE)


def _elide_epoch(ops: ThreadOps, ctx: PassContext) -> ThreadOps:
    """Remove every epoch boundary when the scheme's ordering contract
    subsumes epochs (the scheme has no epoch semantics or is strictly
    stronger than epoch ordering)."""
    return _elide_kind(ops, ctx, OpKind.EPOCH, ORDERING_EPOCH)


# ----------------------------------------------------------------------
# The mutant pass (audit teeth)
# ----------------------------------------------------------------------

def _drop_epoch_fence(ops: ThreadOps, ctx: PassContext) -> ThreadOps:
    """DELIBERATELY UNSOUND: drops every sfence and epoch boundary
    regardless of the scheme's ordering contract; the audit must catch
    it under any scheme that requires them (pmem, bep)."""
    return tuple(
        op for op in ops if op.kind not in (OpKind.FENCE, OpKind.EPOCH)
    )


#: Every pass by name.  A custom pass is one more entry: a removal-only
#: ``(ops, ctx) -> ops`` function that consults ``ctx.scheme``
#: capabilities, never scheme names.
PASSES: Dict[str, PassFn] = {
    "coalesce-stores": _coalesce_stores,
    "drop-dead-flush": _drop_dead_flush,
    "weaken-fence": _weaken_fence,
    "elide-flush": _elide_flush,
    "elide-fence": _elide_fence,
    "elide-epoch": _elide_epoch,
    "opt-drop-epoch-fence": _drop_epoch_fence,
}

#: The canonical sound pipeline: scheme-independent redundancy removal
#: first (so even flush-keeping schemes shed dead clwbs and no-op
#: sfences), then contract-gated elision.
DEFAULT_PIPELINE: Tuple[str, ...] = (
    "coalesce-stores",
    "drop-dead-flush",
    "weaken-fence",
    "elide-flush",
    "elide-fence",
    "elide-epoch",
)

#: The deliberately broken pipeline (audit teeth): drops fences and
#: epoch boundaries regardless of the scheme's ordering contract.
MUTANT_PIPELINE: Tuple[str, ...] = ("opt-drop-epoch-fence",)
