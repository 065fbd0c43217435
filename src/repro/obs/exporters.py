"""Event exporters: JSONL logs, Chrome ``trace_event`` files, ASCII tables.

* :func:`write_jsonl` — one JSON object per line with a ``kind``
  discriminator (:func:`repro.obs.events.event_to_payload`).
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` JSON format (load the file in ``chrome://tracing`` or
  https://ui.perfetto.dev).  Drains and stalls become duration events on
  per-core tracks, bbPB/WPQ activity becomes instant events, and
  occupancy becomes counter tracks.
* :func:`event_counts` / :func:`stall_attribution` — per-kind counts and
  per-cause stall cycles, which ``repro profile`` reconciles with
  ``SimStats``.

Timestamps are simulated cycles, reported as microseconds to the trace
viewer (1 cycle == 1 us) so the viewer's zoom/ruler stay usable.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Iterable, List, Sequence

from repro.obs.events import (
    BbpbAlloc,
    BbpbCoalesce,
    BbpbReject,
    BbpbRemove,
    DrainStart,
    DrainEnd,
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

#: pid layout of the Chrome trace: one "process" per subsystem.
_PID_CORES = 1
_PID_BBPB = 2
_PID_WPQ = 3

_INSTANT_NAMES = {
    BbpbAlloc: "bbpb.alloc",
    BbpbCoalesce: "bbpb.coalesce",
    BbpbReject: "bbpb.reject",
    BbpbRemove: "bbpb.remove",
    ForcedDrain: "bbpb.forced_drain",
    SbPush: "sb.push",
    SbRelease: "sb.release",
}


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------

def write_jsonl(events: Iterable[Event], path: str) -> int:
    """Write one event per line; returns the number of lines written."""
    count = 0
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event_to_payload(event), sort_keys=True))
            fh.write("\n")
            count += 1
    return count


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------

def _meta(pid: int, name: str) -> Dict[str, object]:
    return {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": name}}


def to_chrome_trace(events: Sequence[Event]) -> Dict[str, object]:
    """Build the ``{"traceEvents": [...]}`` structure for chrome://tracing."""
    out: List[Dict[str, object]] = [
        _meta(_PID_CORES, "cores (stalls + store buffers)"),
        _meta(_PID_BBPB, "bbPB (drains + occupancy)"),
        _meta(_PID_WPQ, "NVMM WPQ"),
    ]
    for event in events:
        cls = type(event)
        if cls is DrainStart:
            out.append({
                "ph": "X", "name": "drain", "cat": "bbpb",
                "pid": _PID_BBPB, "tid": event.core, "ts": event.cycle,
                "dur": max(0, event.complete_at - event.cycle),
                "args": {"addr": f"0x{event.addr:x}"},
            })
            out.append({
                "ph": "C", "name": f"bbpb occupancy core{event.core}",
                "pid": _PID_BBPB, "tid": event.core, "ts": event.cycle,
                "args": {"entries": event.occupancy},
            })
        elif cls is DrainEnd:
            continue  # the DrainStart "X" event already covers the interval
        elif cls is StallBegin:
            out.append({
                "ph": "B", "name": f"stall:{event.cause}", "cat": "stall",
                "pid": _PID_CORES, "tid": event.core, "ts": event.cycle,
            })
        elif cls is StallEnd:
            out.append({
                "ph": "E", "pid": _PID_CORES, "tid": event.core,
                "ts": event.cycle,
            })
        elif cls is WpqEnqueue:
            out.append({
                "ph": "X", "name": "wpq accept", "cat": "wpq",
                "pid": _PID_WPQ, "tid": event.channel, "ts": event.cycle,
                "dur": max(0, event.accept_at - event.cycle),
                "args": {"addr": f"0x{event.addr:x}",
                         "backlog": event.backlog},
            })
            out.append({
                "ph": "C", "name": f"wpq backlog ch{event.channel}",
                "pid": _PID_WPQ, "tid": event.channel, "ts": event.cycle,
                "args": {"cycles": event.backlog},
            })
        elif cls is WpqDrain:
            continue  # durability point == end of the WpqEnqueue "X" span
        else:
            name = _INSTANT_NAMES.get(cls)
            if name is None:
                continue
            pid = _PID_BBPB if name.startswith("bbpb") else _PID_CORES
            entry: Dict[str, object] = {
                "ph": "i", "name": name, "cat": name.split(".")[0], "s": "t",
                "pid": pid, "tid": getattr(event, "core", 0),
                "ts": event.cycle,
                "args": {"addr": f"0x{getattr(event, 'addr', 0):x}"},
            }
            occupancy = getattr(event, "occupancy", None)
            if occupancy is not None:
                entry["args"]["occupancy"] = occupancy  # type: ignore[index]
            out.append(entry)
    out.sort(key=lambda e: (e.get("ts", 0), e.get("pid", 0)))
    return {"traceEvents": out, "displayTimeUnit": "ms",
            "otherData": {"clock": "simulated cycles (1 cycle = 1 us)"}}


def write_chrome_trace(events: Sequence[Event], path: str) -> int:
    """Write the Chrome trace JSON; returns the number of trace entries."""
    trace = to_chrome_trace(events)
    with open(path, "w") as fh:
        json.dump(trace, fh)
        fh.write("\n")
    return len(trace["traceEvents"])  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Counts
# ----------------------------------------------------------------------

def event_counts(events: Iterable[Event]) -> "Counter[str]":
    """Event count per kind."""
    return Counter(e.kind for e in events)


def stall_attribution(events: Sequence[Event]) -> Dict[str, int]:
    """Total stalled cycles per cause, reconstructed from stall intervals."""
    open_stalls: Dict[tuple, int] = {}
    totals: "Counter[str]" = Counter()
    for event in events:
        if isinstance(event, StallBegin):
            open_stalls[(event.core, event.cause)] = event.cycle
        elif isinstance(event, StallEnd):
            begin = open_stalls.pop((event.core, event.cause), None)
            if begin is not None:
                totals[event.cause] += event.cycle - begin
    return dict(totals)
