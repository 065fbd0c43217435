"""Runtime auditors for the BBB design invariants (Section III-D).

These walk a live :class:`~repro.sim.system.System` and raise
:class:`InvariantViolation` with a precise description when a design
invariant is broken.  They are used by the test suite after directed
coherence scenarios and by property tests at random points of random
traces.

Invariant 1 (program-order entry into the persistence domain) is enforced
structurally by the engine/store-buffer (and checked by the recovery
tests); the auditors here cover the spatial invariants:

* **Invariant 3**: a store is not visible until persistent — equivalently,
  no persistent datum exists *only* in volatile state.  For every dirty
  persistent cache block, the latest value must be recoverable from the
  persistence domain (its bbPB entry, or NVMM media if already drained).
* **Invariant 4a**: a block resides in at most one bbPB.
* **Invariant 4b**: the LLC is (dirty-)inclusive of every bbPB.
"""

from __future__ import annotations

from typing import Dict

from repro.mem.block import BlockData


class InvariantViolation(AssertionError):
    """A BBB design invariant was observed broken."""


def _bbpb_buffers(scheme):
    return getattr(scheme, "buffers", []) or []


def check_single_bbpb_residency(system) -> None:
    """Invariant 4a: each block lives in at most one bbPB."""
    seen: Dict[int, int] = {}
    for buf in _bbpb_buffers(system.scheme):
        for baddr in buf.resident_blocks():
            if baddr in seen:
                raise InvariantViolation(
                    f"block 0x{baddr:x} resides in bbPB of cores "
                    f"{seen[baddr]} and {buf.core_id} simultaneously"
                )
            seen[baddr] = buf.core_id


def check_llc_inclusion_of_bbpb(system) -> None:
    """Invariant 4b: every bbPB-resident block has an LLC copy (so an LLC
    miss never needs to search bbPBs — the load-path argument of
    Section III-B)."""
    llc = system.hierarchy.llc
    for buf in _bbpb_buffers(system.scheme):
        for baddr in buf.resident_blocks():
            if not llc.contains(baddr):
                raise InvariantViolation(
                    f"bbPB of core {buf.core_id} holds 0x{baddr:x} but the "
                    f"LLC does not — dirty inclusion violated"
                )


def check_no_volatile_only_persistent_data(system) -> None:
    """Invariant 3 (spatial form): every dirty persistent cache block's
    current value is covered by the persistence domain.

    For each dirty persistent block (in any L1 or the LLC), the freshest
    cached value must equal either the block's bbPB entry value (if
    resident) or the value already durable in NVMM media.
    """
    h = system.hierarchy
    scheme = system.scheme
    freshest: Dict[int, BlockData] = {}
    # L1 M-copies are freshest; fall back to LLC dirty copies.
    for blk in h.llc.dirty_blocks():
        if blk.persistent:
            freshest[blk.addr] = blk.data
    for l1 in h.l1s:
        for blk in l1.dirty_blocks():
            if blk.persistent:
                freshest[blk.addr] = blk.data

    for baddr, data in freshest.items():
        owner = scheme.bbpb_owner_of(baddr) if hasattr(scheme, "bbpb_owner_of") else None
        if owner is not None:
            entry = scheme.buffers[owner].entry(baddr) if hasattr(
                scheme.buffers[owner], "entry"
            ) else None
            if entry is not None and entry.data == data:
                continue
            if entry is None:
                # Processor-side buffers track per-store records; fall
                # through to the media check which remains sound because
                # records drain in order.
                pass
        diff = (h.nvmm.media.peek_block(baddr).value ^ data.value) & data.mask
        stale = [off for off in range((diff.bit_length() + 7) >> 3)
                 if (diff >> (off << 3)) & 0xFF]
        if owner is None and stale:
            raise InvariantViolation(
                f"persistent block 0x{baddr:x} has dirty bytes {stale[:4]}... "
                f"visible in caches but in no bbPB and not durable — a crash "
                f"would lose a visible store (Invariant 3)"
            )


def check_all(system) -> None:
    """Run every auditor (used between ops in property tests)."""
    check_single_bbpb_residency(system)
    check_llc_inclusion_of_bbpb(system)
    check_no_volatile_only_persistent_data(system)
