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

``event_to_payload``/``event_from_payload`` are the JSONL wire format:
a flat dict with a ``kind`` discriminator, round-trippable through
:data:`EVENT_TYPES`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import ClassVar, Dict, Type

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


#: kind-string -> event class, the JSONL round-trip registry.
EVENT_TYPES: Dict[str, Type[Event]] = {
    cls.kind: cls
    for cls in (
        BbpbAlloc,
        BbpbCoalesce,
        BbpbReject,
        BbpbRemove,
        DrainStart,
        DrainEnd,
        ForcedDrain,
        WpqEnqueue,
        WpqDrain,
        SbPush,
        SbRelease,
        StallBegin,
        StallEnd,
    )
}


def event_to_payload(event: Event) -> Dict[str, object]:
    """Flat JSON-serialisable dict with a ``kind`` discriminator."""
    payload: Dict[str, object] = {"kind": event.kind}
    payload.update(asdict(event))
    return payload


def event_from_payload(payload: Dict[str, object]) -> Event:
    """Inverse of :func:`event_to_payload`."""
    data = dict(payload)
    kind = data.pop("kind")
    try:
        cls = EVENT_TYPES[kind]  # type: ignore[index]
    except KeyError:
        raise ValueError(f"unknown event kind {kind!r}")
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(f"unexpected fields for {kind!r}: {sorted(unknown)}")
    return cls(**data)  # type: ignore[arg-type]
