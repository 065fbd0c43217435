"""Structural self-audit of the memory hierarchy.

These checks verify the *protocol bookkeeping* invariants that the MESI
directory design relies on (complementing :mod:`repro.core.invariants`,
which audits the BBB-specific persistence invariants):

* **Directory/cache agreement** — the directory's sharers/owner sets match
  which L1s actually hold each block, and the recorded owner really has an
  M/E copy.
* **Single-writer** — at most one L1 holds a block in M/E; if any does, no
  other L1 holds it at all.
* **LLC inclusion** — every L1-resident block is LLC-resident.
* **Dirty-bit sanity** — S/E-state copies are never dirty in an L1 (dirty
  data lives only under M, or in the LLC after a writeback/downgrade
  merge).
* **Resident frames are valid** — no L1 or LLC frame is in state ``I``: a
  block leaves its array before it is marked invalid, so a probe never
  tests the state (:mod:`repro.mem.cache`).

Property tests drive random programs and audit after every burst of
operations; a violation message pinpoints the block and structure.
"""

from __future__ import annotations

from typing import Dict

from repro.mem.block import E, I, M, S
from repro.mem.hierarchy import MemoryHierarchy


class HierarchyAuditError(AssertionError):
    """A protocol bookkeeping invariant was observed broken."""


def _l1_presence(h: MemoryHierarchy) -> Dict[int, Dict[int, str]]:
    """block -> {core: state-letter} for every L1-resident block."""
    presence: Dict[int, Dict[int, str]] = {}
    for core, l1 in enumerate(h.l1s):
        for blk in l1.blocks():
            presence.setdefault(blk.addr, {})[core] = blk.state.value
    return presence


def check_llc_inclusion(h: MemoryHierarchy) -> None:
    for core, l1 in enumerate(h.l1s):
        for blk in l1.blocks():
            if not h.llc.contains(blk.addr):
                raise HierarchyAuditError(
                    f"L1 inclusion violated: core {core} holds 0x{blk.addr:x} "
                    f"({blk.state}) but the LLC does not"
                )


def check_single_writer(h: MemoryHierarchy) -> None:
    for baddr, holders in _l1_presence(h).items():
        exclusive = [c for c, st in holders.items() if st in ("M", "E")]
        if len(exclusive) > 1:
            raise HierarchyAuditError(
                f"multiple exclusive copies of 0x{baddr:x}: cores {exclusive}"
            )
        if exclusive and len(holders) > 1:
            raise HierarchyAuditError(
                f"block 0x{baddr:x} is exclusive at core {exclusive[0]} but "
                f"also present at {sorted(set(holders) - set(exclusive))}"
            )


def check_directory_agreement(h: MemoryHierarchy) -> None:
    presence = _l1_presence(h)
    for ent in h.directory.entries():
        actual_holders = set(presence.get(ent.block_addr, {}))
        if ent.sharers != actual_holders:
            raise HierarchyAuditError(
                f"directory sharers for 0x{ent.block_addr:x} = "
                f"{sorted(ent.sharers)} but L1s holding it = "
                f"{sorted(actual_holders)}"
            )
        if ent.owner is not None:
            state = presence.get(ent.block_addr, {}).get(ent.owner)
            if state not in ("M", "E"):
                raise HierarchyAuditError(
                    f"directory says core {ent.owner} owns 0x{ent.block_addr:x} "
                    f"but its L1 state is {state}"
                )
    # Conversely: every cached block must have a directory entry.
    tracked = {ent.block_addr for ent in h.directory.entries()}
    for baddr in presence:
        if baddr not in tracked:
            raise HierarchyAuditError(
                f"block 0x{baddr:x} cached in L1s {sorted(presence[baddr])} "
                f"but has no directory entry"
            )


def check_dirty_bits(h: MemoryHierarchy) -> None:
    for core, l1 in enumerate(h.l1s):
        for blk in l1.blocks():
            if blk.dirty and blk.state is S:
                raise HierarchyAuditError(
                    f"core {core} holds 0x{blk.addr:x} dirty in S state"
                )


def check_resident_frames_valid(h: MemoryHierarchy) -> None:
    for cache in (*h.l1s, h.llc):
        for blk in cache.blocks():
            if blk.state is I:
                raise HierarchyAuditError(
                    f"{cache.name} holds 0x{blk.addr:x} resident in state I"
                )


def audit_hierarchy(h: MemoryHierarchy) -> None:
    """Run every structural check."""
    check_resident_frames_valid(h)
    check_llc_inclusion(h)
    check_single_writer(h)
    check_directory_agreement(h)
    check_dirty_bits(h)
