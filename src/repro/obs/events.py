"""Typed simulator events.

Every event carries the cycle it happened at plus the minimal identifying
payload (core, block address, cause, ...).  Events are immutable value
objects; the bus delivers the same instance to every subscriber.

The vocabulary mirrors the paper's evaluation: where persist traffic goes
(bbPB allocations, coalesces, rejections — Fig. 8a), when it drains
(drains, forced drains — Fig. 8c, Table II), which blocks a remote
invalidation takes out of a bbPB (Fig. 6), WPQ acceptance/backpressure
(Section III-F), and which cause each stall cycle is attributable to
(Fig. 7a's differentials).

``event_to_payload`` is the JSONL wire format: a flat dict with a
``kind`` discriminator.  The program writes event logs and never parses
them back.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar, Dict

#: Stall causes attached to :class:`StallBegin`/:class:`StallEnd`.
STALL_BBPB_FULL = "bbpb_full"
STALL_FLUSH_FENCE = "flush_fence"
STALL_EPOCH = "epoch"


@dataclass(frozen=True)
class Event:
    """Base event: something happened at ``cycle``."""

    kind: ClassVar[str] = "event"
    cycle: int


# ----------------------------------------------------------------------
# bbPB lifecycle (core/bbpb.py)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BbpbAlloc(Event):
    """A persisting store allocated a new bbPB entry (entered the
    persistence domain)."""

    kind: ClassVar[str] = "bbpb_alloc"
    core: int
    addr: int
    occupancy: int


@dataclass(frozen=True)
class BbpbCoalesce(Event):
    """A persisting store coalesced into an existing entry (no new NVMM
    write obligation — the mechanism behind Fig. 7b)."""

    kind: ClassVar[str] = "bbpb_coalesce"
    core: int
    addr: int
    occupancy: int


@dataclass(frozen=True)
class BbpbReject(Event):
    """A persist request found the bbPB full (Fig. 8a); the core stalls
    until a drain frees an entry.  One event per rejected attempt."""

    kind: ClassVar[str] = "bbpb_reject"
    core: int
    addr: int
    occupancy: int


@dataclass(frozen=True)
class BbpbRemove(Event):
    """A block left a bbPB *without* draining (remote invalidation moved
    durability responsibility — Fig. 6a/b)."""

    kind: ClassVar[str] = "bbpb_remove"
    core: int
    addr: int


@dataclass(frozen=True)
class DrainStart(Event):
    """A bbPB entry began draining toward the NVMM WPQ."""

    kind: ClassVar[str] = "drain_start"
    core: int
    addr: int
    complete_at: int
    occupancy: int


@dataclass(frozen=True)
class DrainEnd(Event):
    """The WPQ accepted a draining entry (``cycle`` = acceptance time)."""

    kind: ClassVar[str] = "drain_end"
    core: int
    addr: int
    start: int


@dataclass(frozen=True)
class ForcedDrain(Event):
    """LLC dirty-inclusion forced a synchronous drain (Section III-B)."""

    kind: ClassVar[str] = "forced_drain"
    core: int
    addr: int


# ----------------------------------------------------------------------
# Memory controller (mem/memctrl.py)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WpqEnqueue(Event):
    """A block was issued to the NVMM WPQ; ``backlog`` is the cycles the
    write waited for its channel port (the backpressure behind Fig. 8's
    stall curves)."""

    kind: ClassVar[str] = "wpq_enqueue"
    addr: int
    channel: int
    accept_at: int
    backlog: int


@dataclass(frozen=True)
class WpqDrain(Event):
    """The WPQ accepted the block (``cycle`` = durability point)."""

    kind: ClassVar[str] = "wpq_drain"
    addr: int
    channel: int


# ----------------------------------------------------------------------
# Store buffer (mem/storebuffer.py)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SbPush(Event):
    """A committed store entered the store buffer."""

    kind: ClassVar[str] = "sb_push"
    core: int
    addr: int
    occupancy: int


@dataclass(frozen=True)
class SbRelease(Event):
    """A store left the store buffer toward the L1D."""

    kind: ClassVar[str] = "sb_release"
    core: int
    addr: int
    occupancy: int


# ----------------------------------------------------------------------
# Stalls (sim/engine.py + schemes)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StallBegin(Event):
    """A core began stalling; ``cause`` is one of ``bbpb_full``,
    ``flush_fence``, ``epoch``."""

    kind: ClassVar[str] = "stall_begin"
    core: int
    cause: str


@dataclass(frozen=True)
class StallEnd(Event):
    """The matching end of a :class:`StallBegin` interval."""

    kind: ClassVar[str] = "stall_end"
    core: int
    cause: str


def event_to_payload(event: Event) -> Dict[str, object]:
    """Flat JSON-serialisable dict with a ``kind`` discriminator."""
    payload: Dict[str, object] = {"kind": event.kind}
    payload.update(asdict(event))
    return payload
