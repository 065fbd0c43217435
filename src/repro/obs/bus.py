"""The event bus: fan-out of simulator events to subscribers.

Design constraints (in priority order):

1. **Zero cost when disabled.**  Every emission site in the simulator is
   written as::

       if bus.enabled:
           bus.emit(BbpbAlloc(now, core, addr, len(self)))

   so a disabled bus never constructs the event object.  ``enabled`` is a
   plain attribute — one load and a branch on the hot path, nothing else.
   The shared default is :data:`NULL_BUS`, which refuses subscribers so it
   can never silently become a real sink.

2. **Synchronous, ordered delivery.**  ``emit`` calls every subscriber in
   subscription order before returning.  Subscribers must not mutate
   simulator state; they are observers (recorders, samplers, probes).

3. **No global state.**  A bus is owned by a :class:`~repro.sim.system.
   System` (pass one via ``repro.api.build_system(...,
   options=RunOptions(bus=bus))``); two systems with two buses never
   interleave events.
"""

from __future__ import annotations

from typing import Callable, List

from repro.obs.events import Event

Subscriber = Callable[[Event], None]


class EventBus:
    """Synchronous pub/sub fan-out for :class:`~repro.obs.events.Event`."""

    __slots__ = ("enabled", "_subscribers")

    def __init__(self, enabled: bool = True) -> None:
        #: Hot-path guard: emission sites check this before constructing
        #: an event.  Toggle freely between runs, not during one.
        self.enabled = enabled
        self._subscribers: List[Subscriber] = []

    def subscribe(self, fn: Subscriber) -> Subscriber:
        """Register ``fn`` to receive every emitted event; returns ``fn``
        (usable as a decorator)."""
        self._subscribers.append(fn)
        return fn

    def emit(self, event: Event) -> None:
        """Deliver ``event`` to all subscribers (no-op when disabled)."""
        if not self.enabled:
            return
        for fn in self._subscribers:
            fn(event)


class _NullBus(EventBus):
    """The shared disabled bus: the default everywhere, never enabled."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def subscribe(self, fn: Subscriber) -> Subscriber:
        raise RuntimeError(
            "NULL_BUS is the shared disabled bus; create an EventBus() and "
            "pass it via build_system(..., options=RunOptions(bus=bus)) "
            "instead"
        )


#: Shared disabled bus — the default for every System.  Emission sites
#: guard on ``bus.enabled`` so this costs one branch per would-be event.
NULL_BUS = _NullBus()


class EventRecorder:
    """Subscriber that appends every event to a list.

    ::

        bus = EventBus()
        rec = EventRecorder(bus)
        ...  # run
        rec.events  # every event, in emission order
    """

    def __init__(self, bus: EventBus = None) -> None:  # type: ignore[assignment]
        self.events: List[Event] = []
        if bus is not None:
            bus.subscribe(self)

    def __call__(self, event: Event) -> None:
        self.events.append(event)
