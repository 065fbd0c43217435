"""The traffic reactor: client requests -> per-core op streams -> engine.

:func:`run_traffic` measures one (scheme, traffic spec) point by driving
an :class:`~repro.sim.engine.EngineStream` as an event loop:

* Each request is lowered to its op sequence (:class:`~repro.serve.
  kvservice.KVService`) and fed to its home core **one request at a
  time**.  When a core starves (``pump()`` returns it), its clock is
  exactly the completion cycle of the request in flight — per-request
  latency with no per-op callbacks.
* Requests carry absolute Poisson arrival cycles (open loop); a core
  whose next request has not arrived yet is ``advance``-d to the arrival
  (modelling the idle gap), and latency is ``completion − arrival``, so
  queueing delay under overload shows up in the tail exactly as it
  would at a real server.

Determinism: the load generator, the service routing, and the engine's
streamed interleaving are all seeded/deterministic, so a (scheme, spec)
pair always produces the same latencies and the same fingerprint-stable
engine results, run to run and release to release.  Streams run on the
same per-op engine as ``Engine.run`` and use only
``feed``/``advance``/``end``.

:func:`traffic_curve` sweeps offered load across schemes and packages
the throughput-vs-load curve with p50/p99/p999 per scheme into the
versioned report (see :mod:`repro.serve.report`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar, Deque, Dict, Iterable, List, Optional, Sequence

from repro.api import build_system
from repro.core.registry import canonical_name
from repro.obs.latency import LatencyRecorder, percentile_summary
from repro.serve.kvservice import KVService
from repro.serve.loadgen import Request, TrafficSpec, iter_requests
from repro.serve.report import build_report
from repro.sim.config import SystemConfig

__all__ = [
    "LoopStats",
    "TrafficPoint",
    "run_traffic",
    "traffic_curve",
]

#: Key prefixes the recorder files per-tenant / per-op breakdowns under.
_TENANT_KEY = "tenant:"
_OP_KEY = "op:"


@dataclass
class LoopStats:
    """What one reactor loop did, beyond the latency histograms.

    ``acked_ids`` (completions the client saw) lets the crash-recovery
    drill tell acked requests from those lost in flight."""

    completed: int = 0
    max_queue_depth: int = 0
    acked_ids: List[int] = field(default_factory=list)

    def note_depth(self, depth: int) -> None:
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth


@dataclass
class TrafficPoint:
    """One (scheme, offered load) measurement."""

    scheme: str
    offered_load: float
    requests: int
    completed: int
    execution_cycles: int
    #: Achieved throughput, requests per 1000 cycles.
    achieved_load: float
    latency: Dict[str, object]
    tenants: Dict[str, Dict[str, object]]
    ops: Dict[str, Dict[str, object]]
    crashed: bool = False
    #: Simulator counters worth carrying into reports.
    nvmm_writes: int = 0
    stall_cycles: int = 0
    #: Deepest per-core queue the reactor saw.
    max_queue_depth: int = 0
    #: Always 0: no request is shed or times out.  Kept for callers that
    #: still settle ``completed + shed + timeouts`` against ``requests``;
    #: not fields, so not in :meth:`to_payload`.
    shed: ClassVar[int] = 0
    timeouts: ClassVar[int] = 0

    def to_payload(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "offered_load": self.offered_load,
            "requests": self.requests,
            "completed": self.completed,
            "execution_cycles": self.execution_cycles,
            "achieved_load": self.achieved_load,
            "latency": dict(self.latency),
            "tenants": {k: dict(v) for k, v in self.tenants.items()},
            "ops": {k: dict(v) for k, v in self.ops.items()},
            "crashed": self.crashed,
            "nvmm_writes": self.nvmm_writes,
            "stall_cycles": self.stall_cycles,
            "max_queue_depth": self.max_queue_depth,
        }


def default_traffic_config() -> SystemConfig:
    """The system the frontend serves on when no config is given (the
    same scaled Table III system the experiment drivers use)."""
    from repro.analysis.experiments import default_sim_config

    return default_sim_config()


def run_traffic(
    scheme: str,
    spec: TrafficSpec,
    *,
    config: Optional[SystemConfig] = None,
    entries: int = 32,
) -> TrafficPoint:
    """Serve ``spec``'s traffic on ``scheme``; return the measured point."""
    name = canonical_name(scheme)
    cfg = config or default_traffic_config()
    system = build_system(name, entries=entries, config=cfg)
    service = KVService(cfg.mem, spec, cfg.num_cores)
    recorder = LatencyRecorder()
    session = system.stream()
    stats = _open_loop(session, service, spec, recorder)
    result = session.finish()

    cycles = result.execution_cycles
    achieved = (stats.completed / cycles * 1000.0) if cycles else 0.0
    tenants = {
        key[len(_TENANT_KEY):]: percentile_summary(recorder.histogram(key))
        for key in recorder.keys() if key.startswith(_TENANT_KEY)
    }
    ops = {
        key[len(_OP_KEY):]: percentile_summary(recorder.histogram(key))
        for key in recorder.keys() if key.startswith(_OP_KEY)
    }
    return TrafficPoint(
        scheme=name,
        offered_load=spec.offered_load,
        requests=spec.requests,
        completed=stats.completed,
        execution_cycles=cycles,
        achieved_load=round(achieved, 6),
        latency=percentile_summary(recorder.histogram()),
        tenants=tenants,
        ops=ops,
        crashed=result.crashed,
        nvmm_writes=result.stats.nvmm_writes,
        stall_cycles=result.stats.total_bbpb_stalls,
        max_queue_depth=stats.max_queue_depth,
    )


# ----------------------------------------------------------------------
# The reactor loop
# ----------------------------------------------------------------------

def _open_loop(
    session, service: KVService, spec: TrafficSpec,
    recorder: LatencyRecorder,
    requests: Optional[Iterable[Request]] = None,
) -> LoopStats:
    """Open-loop reactor.  Admission is lazy: the arrival-ordered stream
    is pulled as cores starve, and each arrival lands on its home core's
    queue."""
    n = service.num_cores
    stream = iter(requests if requests is not None else iter_requests(spec))
    queues: List[Deque[Request]] = [deque() for _ in range(n)]
    in_flight: List[Optional[Request]] = [None] * n
    stats = LoopStats()
    exhausted = False

    def pull_for(core: int) -> None:
        """Admit arrivals (in order) until ``core`` has work or the
        stream ends; intermediate arrivals land on their own queues."""
        nonlocal exhausted
        while not exhausted and not queues[core]:
            nxt = next(stream, None)
            if nxt is None:
                exhausted = True
                return
            home = queues[service.core_of(nxt)]
            home.append(nxt)
            stats.note_depth(len(home))

    while True:
        needy = session.pump()
        if needy is None:
            break
        request = in_flight[needy]
        if request is not None:
            latency = max(0, session.clock(needy) - request.arrival)
            recorder.record(
                latency, _TENANT_KEY + request.tenant, _OP_KEY + request.op
            )
            stats.completed += 1
            stats.acked_ids.append(request.request_id)
            in_flight[needy] = None
        if not queues[needy]:
            pull_for(needy)
        if not queues[needy]:
            session.end(needy)
            continue
        nxt = queues[needy].popleft()
        # The gap until the next arrival is idle time, not service time:
        # move the core's clock to the arrival cycle.
        session.advance(needy, nxt.arrival)
        session.feed(needy, service.ops_for(nxt))
        in_flight[needy] = nxt
    return stats


# ----------------------------------------------------------------------
# The curve sweep
# ----------------------------------------------------------------------

def traffic_curve(
    schemes: Sequence[str],
    spec: TrafficSpec,
    loads: Sequence[float],
    *,
    config: Optional[SystemConfig] = None,
    entries: int = 32,
) -> Dict[str, object]:
    """Throughput-vs-offered-load curve with latency percentiles for each
    scheme, as a versioned traffic report payload."""
    if not schemes:
        raise ValueError("at least one scheme is required")
    if not loads:
        raise ValueError("at least one offered load is required")
    names = [canonical_name(s) for s in schemes]
    points: List[TrafficPoint] = []
    for name in names:
        for load in loads:
            points.append(run_traffic(
                name, spec.with_load(load), config=config, entries=entries,
            ))
    return build_report(spec, names, list(loads), points)
