"""The runtime fault injector consulted at the named injection sites.

Follows the observability layer's NULL-object pattern: every site guards
with ``if injector.enabled:`` and the shared default :data:`NULL_INJECTOR`
is permanently disabled, so a run without faults executes the exact same
instruction stream as before this subsystem existed (the golden-fingerprint
tests hold the simulator to that bit-for-bit).

The injector is also the *detection* model.  Real hardware in this design
space has concrete mechanisms that would notice each modelled fault:

====================  ================================================
fault                 detection channel (default on)
====================  ================================================
torn NVMM write       media ECC on the partially-written row (``ecc``)
transient NVMM write  controller machine check once the bounded retry
                      budget is exhausted (always on)
battery exhaustion    brown-out flag latched by the battery controller
                      (``brownout``)
bbPB entry corrupt    per-entry parity checked at drain (``parity``)
dropped forced drain  none needed — the entry stays battery-backed, so
                      no state is lost
====================  ================================================

A fault whose channel is disabled in the plan (modelling cheaper hardware)
can surface as *silent* corruption; with the defaults, every injected
fault is either harmless or detected — the property the fault campaign
verifies for the battery-backed domain.

Injections and detections are recorded on the injector (``injected`` /
``detected`` lists).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.energy.battery import BatteryState
from repro.fault.plan import (
    SITE_BATTERY,
    SITE_BBPB_ENTRY,
    SITE_FORCED_DRAIN,
    SITE_NVMM_WRITE,
    FaultPlan,
    FaultSpec,
)
from repro.mem.block import BlockData


@dataclass(frozen=True)
class FaultRecord:
    """One injection or detection, as remembered by the injector."""

    site: str
    fault: str
    addr: int
    cycle: int
    detail: str = ""


class FaultInjector:
    """Consumes a :class:`FaultPlan` at the injection sites of one run.

    Single-shot, like a :class:`~repro.sim.system.System`: visit counters
    and records accumulate for one simulation.  Construct a fresh injector
    per run (they are cheap).
    """

    enabled = True

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._visits: Dict[str, int] = {}
        #: Per-site spec lists, resolved once (site hooks are hot-ish paths).
        self._by_site: Dict[str, List[FaultSpec]] = {
            site: plan.for_site(site)
            for site in (SITE_BATTERY, SITE_NVMM_WRITE, SITE_FORCED_DRAIN,
                         SITE_BBPB_ENTRY)
        }
        self.injected: List[FaultRecord] = []
        self.detected: List[FaultRecord] = []
        self.battery: Optional[BatteryState] = None

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _visit(self, site: str) -> int:
        n = self._visits.get(site, 0) + 1
        self._visits[site] = n
        return n

    def _active(self, site: str) -> Optional[FaultSpec]:
        specs = self._by_site[site]
        if not specs:
            return None
        visit = self._visit(site)
        for spec in specs:
            if spec.active_at(visit):
                return spec
        return None

    def record_injection(self, site: str, fault: str, addr: int, cycle: int,
                         detail: str = "") -> None:
        self.injected.append(FaultRecord(site, fault, addr, cycle, detail))

    def record_detection(self, site: str, fault: str, addr: int, cycle: int,
                         detail: str = "") -> None:
        self.detected.append(FaultRecord(site, fault, addr, cycle, detail))

    @property
    def injected_count(self) -> int:
        return len(self.injected)

    @property
    def detected_count(self) -> int:
        return len(self.detected)

    # ------------------------------------------------------------------
    # Site: nvmm.write (memory controller)
    # ------------------------------------------------------------------
    def on_nvmm_write(self, block_addr: int, now: int) -> Optional[FaultSpec]:
        """Consulted once per WPQ write acceptance.  Returns the active
        fault spec (``torn`` or ``transient``) or None; the controller
        implements the mechanics and reports detections back."""
        spec = self._active(SITE_NVMM_WRITE)
        if spec is not None:
            self.record_injection(SITE_NVMM_WRITE, spec.fault, block_addr, now)
        return spec

    # ------------------------------------------------------------------
    # Site: battery.crash_drain
    # ------------------------------------------------------------------
    def begin_crash_drain(self, total_units: int, now: int) -> None:
        """Called by the crashing scheme with the number of persistence-
        domain units (bbPB entries, SB entries, cache blocks) it is about
        to drain.  An active exhaustion fault caps the battery budget."""
        spec = None
        for candidate in self._by_site[SITE_BATTERY]:
            if candidate.fault == "exhaustion":
                spec = candidate
                break
        if spec is None:
            self.battery = BatteryState(capacity_units=None)
            return
        blocks = spec.param("blocks")
        if blocks is None:
            fraction = float(spec.param("fraction", 0.5))
            blocks = int(total_units * fraction)
        self.battery = BatteryState(capacity_units=int(blocks))
        self._battery_spec = spec
        self._battery_start = now

    def battery_allows(self, now: int) -> bool:
        """Draw one unit of drain charge; False once the battery is dead.
        The first failed draw is the injection (and, unless the plan
        disables the ``brownout`` flag, a detection)."""
        battery = self.battery
        if battery is None:  # no begin_crash_drain: unlimited battery
            return True
        first_failure = not battery.depleted
        if battery.draw():
            return True
        if first_failure:
            spec = self._battery_spec
            self.record_injection(
                SITE_BATTERY, "exhaustion", 0, now,
                detail=f"charge exhausted after {battery.drained} units",
            )
            if spec.param("brownout", True):
                self.record_detection(SITE_BATTERY, "exhaustion", 0, now,
                                      detail="brown-out flag latched")
        return False

    # ------------------------------------------------------------------
    # Site: coherence.forced_drain
    # ------------------------------------------------------------------
    def on_forced_drain(self, core: int, block_addr: int,
                        now: int) -> Optional[FaultSpec]:
        """Consulted per LLC->bbPB forced-drain message.  Returns the
        active ``drop``/``delay`` spec or None (normal delivery)."""
        spec = self._active(SITE_FORCED_DRAIN)
        if spec is not None:
            self.record_injection(
                SITE_FORCED_DRAIN, spec.fault, block_addr, now,
                detail=f"core {core}",
            )
        return spec

    # ------------------------------------------------------------------
    # Site: bbpb.entry (crash-drain read-out)
    # ------------------------------------------------------------------
    def on_bbpb_crash_entry(
        self, core: int, block_addr: int, data: BlockData, now: int
    ) -> Tuple[Optional[BlockData], bool]:
        """Consulted per bbPB entry read out during the crash drain.

        Returns ``(data, corrupted)``: unchanged data when no fault is
        active; a bit-flipped copy when corruption fires with parity
        disabled; ``None`` when parity (default on) catches the flip and
        the entry is discarded as unrecoverable — a *detected* loss.
        """
        spec = self._active(SITE_BBPB_ENTRY)
        if spec is None:
            return data, False
        offsets = list(data.bytes)
        if not offsets:
            return data, False
        bit = spec.param("bit")
        if bit is None:
            bit = self._rng.randint(0, 8 * len(offsets) - 1)
        offset = offsets[(bit // 8) % len(offsets)]
        corrupted = data.copy()
        corrupted.value ^= 1 << (8 * offset + bit % 8)
        self.record_injection(
            SITE_BBPB_ENTRY, "corrupt", block_addr, now,
            detail=f"core {core} offset {offset} bit {bit % 8}",
        )
        if spec.param("parity", True):
            self.record_detection(SITE_BBPB_ENTRY, "corrupt", block_addr, now,
                                  detail="entry parity mismatch at drain")
            return None, True
        return corrupted, True


class _NullFaultInjector:
    """Shared disabled injector: the default everywhere.  Sites guard on
    ``injector.enabled`` so this costs one attribute load per would-be
    consultation; none of the hook methods exist — calling one is a bug."""

    enabled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_INJECTOR"


#: Shared disabled injector — the default for every System.
NULL_INJECTOR = _NullFaultInjector()
