"""Occupancy timelines sampled on event boundaries.

The paper's Fig. 8 dynamics are driven by how full the bbPB runs and how
hard the WPQ pushes back; :class:`OccupancySampler` reconstructs both as
``(cycle, value)`` series straight from event traffic — no extra hooks in
the simulator, no sampling clock to tune.  Samples land exactly on the
event boundaries where occupancy changes, so the series is lossless.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.bus import EventBus
from repro.obs.events import (
    BbpbAlloc,
    BbpbCoalesce,
    BbpbReject,
    DrainStart,
    Event,
    WpqEnqueue,
)

Series = List[Tuple[int, int]]

#: bbPB events that carry an ``occupancy`` snapshot.
_BBPB_OCCUPANCY_EVENTS = (BbpbAlloc, BbpbCoalesce, BbpbReject, DrainStart)


class OccupancySampler:
    """Bus subscriber building bbPB occupancy and WPQ backlog timelines.

    * ``bbpb_series(core)`` — ``(cycle, occupancy)`` samples, one per bbPB
      event that changed or probed the buffer.
    * ``wpq_series(channel)`` — ``(cycle, backlog_cycles)`` samples: how
      long each accepted write waited for its channel port (0 = no
      backpressure).
    """

    def __init__(self, bus: EventBus = None) -> None:  # type: ignore[assignment]
        self._bbpb: Dict[int, Series] = {}
        self._wpq: Dict[int, Series] = {}
        if bus is not None:
            bus.subscribe(self)

    def __call__(self, event: Event) -> None:
        if isinstance(event, _BBPB_OCCUPANCY_EVENTS):
            self._bbpb.setdefault(event.core, []).append(
                (event.cycle, event.occupancy)
            )
        elif isinstance(event, WpqEnqueue):
            self._wpq.setdefault(event.channel, []).append(
                (event.cycle, event.backlog)
            )

    # -- series access ---------------------------------------------------
    def bbpb_cores(self) -> List[int]:
        return sorted(self._bbpb)

    def bbpb_series(self, core: int) -> Series:
        return list(self._bbpb.get(core, ()))

    def wpq_series(self, channel: int) -> Series:
        return list(self._wpq.get(channel, ()))

    # -- summaries -------------------------------------------------------
    @staticmethod
    def _series_stats(series: Series) -> Dict[str, float]:
        if not series:
            return {"samples": 0, "max": 0, "mean": 0.0}
        values = [v for _, v in series]
        return {
            "samples": len(series),
            "max": max(values),
            "mean": round(sum(values) / len(values), 3),
        }

    def summary(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per-core bbPB and per-channel WPQ occupancy statistics."""
        return {
            "bbpb": {str(c): self._series_stats(s) for c, s in
                     sorted(self._bbpb.items())},
            "wpq": {str(ch): self._series_stats(s) for ch, s in
                    sorted(self._wpq.items())},
        }
