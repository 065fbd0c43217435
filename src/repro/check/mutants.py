"""Deliberately broken scheme variants for validating the model checker.

A checker that has never caught a bug is untrustworthy.  Each mutant here
breaks one link in a scheme's durability chain in a way that is invisible
to normal (crash-free) execution — every run completes, all stats look
plausible — but violates the scheme's contract at some micro-step crash
point.  The smoke check (:func:`repro.check.checker.smoke_check`) and CI
require the checker to find and minimize these.

Mutants keep their base scheme's ``name`` so the contract machinery
applies the contract the mutant *pretends* to honour; they are only
reachable through :func:`build_mutant_system`, never through
:func:`repro.api.build_system`.  :func:`build_crash_system` is the one
builder every crash harness uses, honest scheme or mutant alike.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.check.schedule import NULL_SCHEDULE
from repro.core.persistency import BBBScheme, EADR
from repro.core.registry import scheme_for_class, scheme_info
from repro.mem.block import BlockData
from repro.sim.config import BBBConfig


class DelayedAllocBBB(BBBScheme):
    """BBB with the bbPB allocation delayed past the point of visibility.

    The real design's central invariant is PoV == PoP: the cycle a
    persisting store becomes visible in the L1D, its block is already in
    the battery domain (bbPB entry allocated).  This mutant defers each
    core's allocation until that core's *next* persisting store — so
    between the two stores the first is visible to every observer but
    lives nowhere durable.  A crash in that window (any micro-step after
    the store's op boundary) loses a committed persist: an exact-contract
    violation.  Crash-free runs are unaffected because :meth:`finalize`
    flushes the pending stores.
    """

    def __init__(self, bbb_config: Optional[BBBConfig] = None) -> None:
        super().__init__(bbb_config)
        self._pending: Dict[int, Tuple[int, BlockData]] = {}

    def on_persisting_store(
        self, core: int, block_addr: int, block_data: BlockData, now: int
    ) -> int:
        stall = 0
        prev = self._pending.pop(core, None)
        if prev is not None:
            stall = super().on_persisting_store(core, prev[0], prev[1], now)
        # Copy: the cache line keeps mutating; the deferred allocation must
        # carry the value the store actually made visible.
        self._pending[core] = (block_addr, block_data.copy())
        return stall

    def finalize(self, now: int) -> int:
        for core in sorted(self._pending):
            baddr, data = self._pending[core]
            super().on_persisting_store(core, baddr, data, now)
        self._pending.clear()
        return super().finalize(now)

    # battery_residue is inherited unchanged: pending stores are in no
    # bbPB, so they are simply lost — the bug the checker must expose.


class ForgetfulEADR(EADR):
    """eADR whose crash drain forgets the private caches.

    The battery nominally covers the whole hierarchy, but this mutant's
    residue holds only the shared LLC (plus in-flight writebacks and store
    buffers), as if the battery rail to the private caches had been left
    unwired.  A committed persisting store whose dirty line still sits in
    an L1D — the common case for small working sets that never evict —
    is lost on crash, violating eADR's exact contract.
    """

    def battery_residue(self):
        return self._dirty_nvmm_lines(())


#: Mutant name -> (base scheme name, constructor).  The base scheme is
#: what a :class:`~repro.check.checker.CheckUnit` must carry in ``scheme``;
#: it is resolved from the registry by class ancestry, so a mutant targets
#: whichever scheme its class subclasses.
MUTANTS = {
    "bbb-delayed-alloc": (scheme_for_class(DelayedAllocBBB).name,
                          DelayedAllocBBB),
    "eadr-skip-l1": (scheme_for_class(ForgetfulEADR).name, ForgetfulEADR),
}


def build_mutant_system(
    name: str,
    entries: int = 8,
    config=None,
    crash_schedule=NULL_SCHEDULE,
):
    """Build a :class:`~repro.sim.system.System` running mutant ``name``."""
    from repro.sim.system import System

    try:
        base, cls = MUTANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutant {name!r}; valid mutants: {', '.join(sorted(MUTANTS))}"
        ) from None
    # The base scheme's registered factory builds the mutant subclass, so
    # mutants construct exactly like the scheme they sabotage.
    scheme = scheme_info(base).build_scheme(entries=entries, scheme_cls=cls)
    return System(config, scheme, crash_schedule=crash_schedule)


def build_crash_system(
    scheme: str,
    *,
    mutant: Optional[str] = None,
    entries: int = 8,
    config=None,
    crash_schedule=NULL_SCHEDULE,
    seed_words: Optional[Mapping[int, int]] = None,
):
    """Build the system a crash harness runs: scheme ``scheme`` (or, when
    ``mutant`` is given, that mutant of its base scheme) wired to
    ``crash_schedule``, with ``seed_words`` installed in the NVMM media as
    already durable.  The checker, the minimizer, the litmus battery, the
    optimizer's verifier and the drills all build through here."""
    if mutant is not None:
        system = build_mutant_system(mutant, entries=entries, config=config,
                                     crash_schedule=crash_schedule)
    else:
        from repro.api import RunOptions, build_system

        system = build_system(
            scheme, entries=entries, config=config,
            options=RunOptions(crash_schedule=crash_schedule),
        )
    if seed_words is not None:
        from repro.workloads.base import seed_media_words

        seed_media_words(system.nvmm_media, seed_words)
    return system
