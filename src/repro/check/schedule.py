"""Crash schedules: deterministic micro-step crash points for the checker.

The paper's Section I pain point — "a crash must be induced at different
points of the program to check its persistent state correctness" — needs
more than per-op crashes: a scheme bug can live entirely *between* the
micro-steps of one operation (between the L1D write and the bbPB
allocation, mid-drain, mid-WPQ flush).  This module provides the hook
vocabulary the simulator exposes for that.

A :class:`CrashSchedule` is threaded through the system (``build_system(
..., crash_schedule=...)``) and every instrumented site calls
:meth:`CrashSchedule.reached` as execution passes it.  The schedule counts
*visits*; when the configured ``stop_at``-th visit arrives it raises
:class:`CrashNow`, which the engine converts into a crash (battery drain +
volatile-state loss) exactly as if power failed at that micro-step.

Because the simulator is deterministic, visit ``k`` denotes the same
machine state on every run of the same (config, scheme, trace).  A
schedule in *counting* mode (``stop_at=None``) never fires; with an
``observer`` attached it reports every visit as it happens, which is how
:func:`repro.check.explore.sweep` reads the crash state of all ``T``
points from one execution instead of re-running with ``stop_at=1..T``.

Every site is *crash-consistent*: when :meth:`CrashSchedule.reached` is
called, the machine state already is exactly what a crash there must
drain — nothing is reinstated while :class:`CrashNow` unwinds.  A new
site must keep that rule (hold in-flight data where the battery drain
finds it *before* calling ``reached``), or the single-pass sweep and a
real crash at the same point disagree.

This module is intentionally dependency-free (no imports from the rest of
``repro``): the hot simulator modules import it, so it must sit below all
of them.  The ``NULL_SCHEDULE`` follows the observability layer's
NULL-object pattern — every site guards with ``if schedule.enabled:`` so a
run without a schedule executes the identical instruction stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

__all__ = [
    "ALL_SITES",
    "CrashNow",
    "CrashSchedule",
    "FiredPoint",
    "NULL_SCHEDULE",
    "SITE_DRAIN",
    "SITE_FORCED_DRAIN",
    "SITE_OP",
    "SITE_POV",
    "SITE_WPQ",
]

#: Operation boundary: a trace op fully executed (the classic crash sweep).
SITE_OP = "engine.op"
#: Between the L1D write of a persisting store (PoV) and the scheme's
#: persist hook (bbPB allocate / auto-flush) — the PoV/PoP gap itself.
SITE_POV = "store.pov_gap"
#: A bbPB entry has left the buffer and its drain packet is in flight.
SITE_DRAIN = "bbpb.drain"
#: A coherence forced-drain request (LLC dirty inclusion) was issued but
#: not yet acknowledged by the owning bbPB.
SITE_FORCED_DRAIN = "coherence.forced_drain"
#: A block transfer is at the NVMM controller but the WPQ has not
#: accepted it (acceptance is the ADR durability point).
SITE_WPQ = "wpq.flush"

#: Every instrumented site, in pipeline order.
ALL_SITES = (SITE_OP, SITE_POV, SITE_DRAIN, SITE_FORCED_DRAIN, SITE_WPQ)


@dataclass(frozen=True)
class FiredPoint:
    """Where a scheduled crash actually fired."""

    index: int          # 1-based global visit index
    site: str           # one of the SITE_* constants
    cycle: int          # core-local cycle at the site
    addr: int = 0       # block address at the site (0 for op boundaries)


class CrashNow(Exception):
    """Raised by :meth:`CrashSchedule.reached` at the scheduled visit.

    The engine catches it, records the :class:`FiredPoint`, and performs
    the scheme's crash drain — the simulation ends as if power failed.
    """

    def __init__(self, point: FiredPoint) -> None:
        super().__init__(f"scheduled crash at visit {point.index} "
                         f"({point.site}, cycle {point.cycle})")
        self.point = point


class CrashSchedule:
    """Counts micro-step visits and fires a crash at the ``stop_at``-th.

    ``stop_at=None`` is *counting mode*: no crash ever fires, but
    ``visits`` and ``site_counts`` record how many crash points the trace
    exposes — the state-space size the checker enumerates.

    ``sites`` optionally restricts which sites count (and can fire); a
    visit to an excluded site is invisible to the schedule, so a
    restricted enumeration is a projection of the full one.

    ``observer``, when set, is called as ``observer(index, site, cycle,
    addr)`` at every counted visit, before a scheduled crash would fire.
    ``ops`` counts operation boundaries passed so far (every ``SITE_OP``
    call, counted or filtered out) — the ``crash_op`` of the current
    visit.
    """

    enabled = True

    def __init__(self, stop_at: Optional[int] = None,
                 sites: Optional[Sequence[str]] = None) -> None:
        if stop_at is not None and stop_at < 1:
            raise ValueError("stop_at is a 1-based visit index")
        self.stop_at = stop_at
        self.sites = frozenset(sites) if sites is not None else None
        self.visits = 0
        self.ops = 0
        self.site_counts: Dict[str, int] = {}
        self.fired: Optional[FiredPoint] = None
        self.observer: Optional[Callable[[int, str, int, int], None]] = None

    def reached(self, site: str, cycle: int = 0, addr: int = 0) -> None:
        """Record a visit to ``site``; raise :class:`CrashNow` if it is
        the scheduled one."""
        if site == SITE_OP:
            self.ops += 1
        if self.sites is not None and site not in self.sites:
            return
        self.visits += 1
        self.site_counts[site] = self.site_counts.get(site, 0) + 1
        if self.observer is not None:
            self.observer(self.visits, site, cycle, addr)
        if self.stop_at is not None and self.visits >= self.stop_at:
            self.fired = FiredPoint(self.visits, site, cycle, addr)
            raise CrashNow(self.fired)


class _NullSchedule:
    """Permanently disabled schedule (zero-cost default).

    Sites guard with ``if schedule.enabled:`` and never call in; the
    methods exist only for duck-type completeness.
    """

    enabled = False
    stop_at: Optional[int] = None
    sites: Optional[frozenset] = None
    visits = 0
    ops = 0
    fired: Optional[FiredPoint] = None
    observer = None

    @property
    def site_counts(self) -> Dict[str, int]:  # pragma: no cover - trivial
        return {}

    def reached(self, site: str, cycle: int = 0,
                addr: int = 0) -> None:  # pragma: no cover - never called
        return None


#: Shared disabled schedule — the default everywhere.
NULL_SCHEDULE = _NullSchedule()
