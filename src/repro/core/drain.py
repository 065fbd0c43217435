"""Drain-policy helpers (Section III-F of the paper).

The mechanics of draining live in :mod:`repro.core.bbpb`; this module
provides the drain sinks the bbPB classes write through, the drain-latency
probe, and the policy descriptions and constructor used by the drain-policy
ablation (``benchmarks/test_ablation_drain_policy.py``).

The paper's chosen policy is **FCFS with an occupancy threshold**: keep the
buffer as full as possible (maximising coalescing, which reduces NVMM
writes) while keeping the probability of a full buffer low (avoiding core
stalls).  The default threshold of 75% on a 32-entry buffer is the point
the paper found to work well.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.check.schedule import SITE_DRAIN
from repro.mem.block import BlockData
from repro.obs.events import DrainStart, Event
from repro.sim.config import BBBConfig, DrainPolicy

#: Signature of a drain sink (mirrors :data:`repro.core.bbpb.DrainFn`).
_DrainFn = Callable[[int, BlockData, int], int]


def wpq_drain_sink(hierarchy, core: int) -> _DrainFn:
    """The drain sink of ``core``'s persist buffer: count the drain and
    write the block into the NVMM controller's WPQ after the
    cache-to-controller transfer.  Returns the WPQ-acceptance cycle.

    The sink closes over the hierarchy's stats and NVMM controller, never
    over the scheme: the scheme owns the buffers holding the sink, so a
    scheme reference would tie the system into a reference cycle.
    """
    stats = hierarchy.stats
    nvmm = hierarchy.nvmm
    transfer = hierarchy.config.mem.mc_transfer_cycles

    def drain(block_addr: int, data: BlockData, now: int) -> int:
        stats.bbpb_drains += 1
        stats.bbpb_per_core[core] += 1
        return nvmm.write(block_addr, data, now + transfer)

    return drain


def crash_scheduled_drain(drain: _DrainFn, schedule) -> _DrainFn:
    """Wrap a bbPB drain sink with the model checker's mid-drain crash
    point (:data:`~repro.check.schedule.SITE_DRAIN`).

    The hook fires *before* the WPQ write: the entry's packet is in
    flight, and the bbPB keeps it resident until the sink returns
    (:meth:`repro.core.bbpb.MemorySideBBPB._start_drain`), so the battery
    still covers it here.  Returns ``drain`` unchanged when the schedule
    is disabled — the NULL-object zero-cost rule.
    """
    if not schedule.enabled:
        return drain

    def hooked(block_addr: int, data: BlockData, now: int) -> int:
        schedule.reached(SITE_DRAIN, now, block_addr)
        return drain(block_addr, data, now)

    return hooked

#: Human-readable rationale per policy, used in reports.
POLICY_DESCRIPTIONS: Dict[DrainPolicy, str] = {
    DrainPolicy.FCFS_THRESHOLD: (
        "Drain oldest-first once occupancy reaches the threshold; stop when "
        "it falls below.  Balances coalescing window against full-buffer "
        "stalls (the paper's choice)."
    ),
    DrainPolicy.DRAIN_ALL: (
        "Once the threshold is reached, drain the entire buffer.  Larger "
        "bursts to the WPQ, empty buffer afterwards (long coalescing gap)."
    ),
    DrainPolicy.EAGER: (
        "Drain every entry immediately after allocation.  No coalescing "
        "window at all: maximal NVMM writes, minimal full-buffer stalls for "
        "bursty traffic."
    ),
    DrainPolicy.LEAST_RECENTLY_WRITTEN: (
        "Section III-F's future-work direction: predict future writes from "
        "recency and drain the entry idle the longest, keeping hot blocks "
        "resident for further coalescing."
    ),
}


def config_for_policy(
    policy: DrainPolicy, entries: int = 32,
    drain_threshold: float = BBBConfig.drain_threshold,
) -> BBBConfig:
    """A memory-side bbPB configuration using ``policy``."""
    return BBBConfig(
        entries=entries,
        drain_threshold=drain_threshold,
        drain_policy=policy,
        memory_side=True,
    )


class DrainLatencyProbe:
    """Event-bus subscriber measuring per-drain latency.

    Every :class:`~repro.obs.events.DrainStart` carries the WPQ-acceptance
    cycle the drain callback computed, so the latency of each drain (entry
    leaving the bbPB until the NVMM WPQ accepts it) is ``complete_at -
    cycle``.  The distribution is what the threshold sweep trades against
    coalescing: a backed-up WPQ stretches these latencies, which keeps
    entries resident longer and shrinks effective capacity.
    """

    def __init__(self, bus=None) -> None:
        #: One latency per observed drain, in cycles.
        self.latencies: List[int] = []
        if bus is not None:
            bus.subscribe(self)

    def __call__(self, event: Event) -> None:
        if isinstance(event, DrainStart):
            self.latencies.append(max(0, event.complete_at - event.cycle))

    def summary(self) -> Dict[str, object]:
        """``count``, ``mean`` (4 decimal places), ``min`` and ``max`` of
        the observed latencies; ``min``/``max`` are None before any
        drain."""
        lat = self.latencies
        return {
            "count": len(lat),
            "mean": round(sum(lat) / len(lat), 4) if lat else 0.0,
            "min": min(lat, default=None),
            "max": max(lat, default=None),
        }
