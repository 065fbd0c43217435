"""Observability: event tracing and profiling for the simulator.

A run's counters live in :class:`repro.sim.stats.SimStats`; the
subsystem adds two legs beside them, both documented in ``docs/api.md``:

* **Event bus** (:mod:`repro.obs.bus`, :mod:`repro.obs.events`) — typed
  events (bbPB allocations/coalesces/rejections/removes, drains, WPQ
  acceptances, stall intervals with cause) emitted by the engine, the
  persistency schemes, and the memory system.  Emission sites guard with
  ``if bus.enabled:`` *before* constructing the event, so a disabled bus
  (the default, :data:`~repro.obs.bus.NULL_BUS`) costs one attribute load
  and a branch — the hot path of a non-observed run is unchanged.
  Subscribers such as :class:`~repro.obs.timeline.OccupancySampler`
  (bbPB/WPQ occupancy timelines) derive their views from the events.

* **Exporters** (:mod:`repro.obs.exporters`) — JSONL event logs, Chrome
  ``trace_event`` files for chrome://tracing, and ASCII summaries.

``repro profile`` (:mod:`repro.obs.profile`) runs both legs and checks
that the event log reconciles with ``SimStats`` counter by counter.
:mod:`repro.obs.latency` holds the traffic frontend's per-request
latency histograms; a request emits no event, its latency lands in the
traffic report.

Typical use::

    from repro.api import RunOptions, build_system
    from repro.obs import EventBus, EventRecorder, OccupancySampler
    from repro.obs.exporters import write_chrome_trace, write_jsonl

    bus = EventBus()
    recorder = EventRecorder(bus)
    sampler = OccupancySampler(bus)
    system = build_system("bbb", options=RunOptions(bus=bus))
    system.run(trace)
    write_jsonl(recorder.events, "events.jsonl")
    write_chrome_trace(recorder.events, "trace.json")
"""

from repro.obs.bus import NULL_BUS, EventBus, EventRecorder
from repro.obs.events import (
    BbpbAlloc,
    BbpbCoalesce,
    BbpbReject,
    BbpbRemove,
    DrainEnd,
    DrainStart,
    Event,
    ForcedDrain,
    SbPush,
    SbRelease,
    StallBegin,
    StallEnd,
    WpqDrain,
    WpqEnqueue,
    event_to_payload,
)
from repro.obs.latency import (
    ExactLatencies,
    LatencyHistogram,
    LatencyRecorder,
    percentile_summary,
)
from repro.obs.profile import ProfileReport, profile_run, smoke_report
from repro.obs.timeline import OccupancySampler

__all__ = [
    "EventBus",
    "EventRecorder",
    "NULL_BUS",
    "Event",
    "BbpbAlloc",
    "BbpbCoalesce",
    "BbpbReject",
    "BbpbRemove",
    "DrainStart",
    "DrainEnd",
    "ForcedDrain",
    "WpqEnqueue",
    "WpqDrain",
    "SbPush",
    "SbRelease",
    "StallBegin",
    "StallEnd",
    "event_to_payload",
    "ExactLatencies",
    "LatencyHistogram",
    "LatencyRecorder",
    "percentile_summary",
    "OccupancySampler",
    "ProfileReport",
    "profile_run",
    "smoke_report",
]
