"""Unit tests for the event bus (repro.obs.bus)."""

import pytest

from repro.obs.bus import NULL_BUS, EventBus, EventRecorder
from repro.obs.events import BbpbAlloc, DrainStart


def _alloc(cycle=1, core=0):
    return BbpbAlloc(cycle=cycle, core=core, addr=0x1000, occupancy=1)


class TestEventBus:
    def test_delivers_in_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("a", e)))
        bus.subscribe(lambda e: seen.append(("b", e)))
        event = _alloc()
        bus.emit(event)
        assert seen == [("a", event), ("b", event)]

    def test_disabled_bus_drops_events(self):
        bus = EventBus(enabled=False)
        seen = []
        bus.subscribe(seen.append)
        bus.emit(_alloc())
        assert seen == []

    def test_subscribe_returns_fn_for_decorator_use(self):
        bus = EventBus()

        seen = []

        @bus.subscribe
        def handler(event):
            seen.append(event)

        assert handler is not None
        event = _alloc()
        bus.emit(event)
        assert seen == [event]


class TestNullBus:
    def test_shared_instance_is_disabled(self):
        assert not NULL_BUS.enabled

    def test_refuses_subscribers(self):
        with pytest.raises(RuntimeError, match="NULL_BUS"):
            NULL_BUS.subscribe(lambda e: None)

    def test_emit_is_a_noop(self):
        NULL_BUS.emit(_alloc())  # must not raise


class TestEventRecorder:
    def test_records_and_counts(self):
        bus = EventBus()
        rec = EventRecorder(bus)
        bus.emit(_alloc(cycle=1))
        bus.emit(_alloc(cycle=2))
        bus.emit(DrainStart(cycle=3, core=0, addr=0x40, complete_at=10,
                            occupancy=2))
        assert [e.kind for e in rec.events] == \
            ["bbpb_alloc", "bbpb_alloc", "drain_start"]
        assert [e.cycle for e in rec.events] == [1, 2, 3]
