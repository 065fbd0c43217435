"""Single-pass crash exploration: every micro-step crash point, one run.

A crash at micro-step visit ``k`` leaves a durable image that is a pure
function of the machine state at that visit: the NVMM media, overlaid
with whatever the scheme's battery moves to NVMM (its
:meth:`~repro.core.persistency.PersistencyScheme.battery_residue`, then
the battery-backed store-buffer words) — exactly what the base-class
``crash_drain`` writes.  Every crash-schedule site is crash-consistent
(:mod:`repro.check.schedule`), so that state is complete the moment the
site calls :meth:`~repro.check.schedule.CrashSchedule.reached`.

:func:`sweep` therefore executes a trace once, under a counting
schedule, and at each selected visit hands the observer a :class:`Visit`
carrying the image a crash there would leave — with no system rebuilt and
no prefix re-executed.  It yields the same durable states as crashing a
fresh system at every ``stop_at=k`` (the differential property tests
hold it to that), at the cost of one execution plus the per-visit reads.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.mem.block import WORD_MASKS, BlockData

__all__ = ["DurableImage", "Visit", "crash_writes", "sample_points", "sweep"]


class DurableImage:
    """Read-only view of the NVMM image a crash would leave: the live
    media overlaid with the battery's crash writes.

    ``writes`` are the crash writes as given, in drain order.  They are
    merged into ``overlay`` (each block the crash writes -> its merged
    content) on the first read, from the live media's blocks and the live
    structures the writes reference, so a visit nobody reads costs no
    merge.  The image therefore reads through to the running system and
    is valid only during the observer call that received it.  It offers
    the read side of :class:`~repro.mem.nvmm.NVMMedia` that the recovery
    oracles use; ``live`` is that media.  All of it is for reading only.
    """

    def __init__(self, media, writes: List[Tuple[int, BlockData]]) -> None:
        self.live = media
        self.block_size = media.block_size
        self.writes = writes
        self._stored = media.blocks
        self._offset_mask = media.block_size - 1

    @cached_property
    def overlay(self) -> Dict[int, BlockData]:
        overlay: Dict[int, BlockData] = {}
        for baddr, data in self.writes:
            blk = overlay.get(baddr)
            if blk is None:
                blk = overlay[baddr] = self.live.peek_block(baddr)
            blk.merge_from(data)
        return overlay

    def written_blocks(self):
        if not self.writes:
            return self.live.written_blocks()
        return self.live.written_blocks() | self.overlay.keys()

    def peek_block(self, block_addr: int) -> BlockData:
        blk = self.overlay.get(block_addr)
        return blk.copy() if blk is not None else self.live.peek_block(
            block_addr)

    def read_word(self, addr: int, size: int = 8) -> int:
        off = addr & self._offset_mask
        blk = self.overlay.get(addr - off)
        if blk is None:
            blk = self._stored.get(addr - off)
            if blk is None:
                return 0
        return (blk.value >> (off << 3)) & WORD_MASKS[size]


class Visit(NamedTuple):
    """The crash state at one micro-step visit.

    Field names follow :class:`~repro.sim.engine.RunResult` and
    :class:`~repro.sim.system.System` (``nvmm_media``), so a visit stands
    in for the crashed ``(system, result)`` pair wherever the recovery
    oracles take one.
    """

    #: 1-based visit index (the ``stop_at`` that crashes here).
    point: int
    site: str
    cycle: int
    addr: int
    #: Operations fully executed before the crash.
    crash_op: int
    committed_persists: List
    performed_persists: List
    nvmm_media: DurableImage


def crash_writes(system) -> List[Tuple[int, BlockData]]:
    """The block writes a crash drain of ``system`` would make right now,
    in order, with no fault injected: the scheme's battery residue, then
    the battery-backed store-buffer words.  Pure."""
    writes = [(block.block_addr, block.data)
              for block in system.scheme.battery_residue()]
    writes.extend(system.hierarchy.store_buffer_residue())
    return writes


def sample_points(total: int, sample: Optional[int] = None,
                  seed: int = 0) -> List[int]:
    """Visit indices to sweep: all of ``1..total``, or a sorted sample of
    ``sample`` of them drawn from ``random.Random(seed)`` (never the
    module-global generator, so equal seeds select equal points)."""
    points = list(range(1, total + 1))
    if sample is not None and sample < len(points):
        points = sorted(random.Random(seed).sample(points, sample))
    return points


class _Stop(Exception):
    """Unwinds the run when the observer ends the pass."""


def sweep(
    system,
    trace,
    observe: Callable[[Visit], Optional[bool]],
    points: Optional[Iterable[int]] = None,
) -> bool:
    """Run ``trace`` on ``system`` once, calling ``observe(visit)`` at
    every selected micro-step crash point (``points``: 1-based visit
    indices; ``None`` selects all).  ``observe`` returning a true value
    ends the pass at once.

    ``system`` must be fresh and built with a counting
    :class:`~repro.check.schedule.CrashSchedule` (``stop_at=None``; its
    ``sites`` filter decides which visits exist) and without fault
    injection — a fault injector draws state at every consultation, so
    its crash drain cannot be read ahead.  Afterwards the schedule holds
    the visit and site counts.  Returns True when the run completed,
    False when ``observe`` ended it.
    """
    schedule = system.crash_schedule
    if not schedule.enabled or schedule.stop_at is not None:
        raise ValueError("sweep needs a counting CrashSchedule (stop_at=None)")
    if system.fault_injector.enabled:
        raise ValueError("sweep cannot read ahead a fault-injected crash drain")
    wanted = None if points is None else frozenset(points)
    engine = system.engine
    media = system.nvmm_media

    def on_visit(index: int, site: str, cycle: int, addr: int) -> None:
        if wanted is not None and index not in wanted:
            return
        run = engine.result
        visit = Visit(
            index, site, cycle, addr, schedule.ops,
            run.committed_persists[:], run.performed_persists[:],
            DurableImage(media, crash_writes(system)),
        )
        if observe(visit):
            raise _Stop

    schedule.observer = on_visit
    try:
        result = system.run(trace)
    except _Stop:
        return False
    finally:
        # The closure refers to the system: leaving it on the schedule
        # would make the system a reference cycle.
        schedule.observer = None
    if result.crashed:
        raise RuntimeError("a counting CrashSchedule fired during a sweep")
    return True
