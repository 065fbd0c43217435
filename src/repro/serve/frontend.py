"""The traffic reactor: client sessions -> per-core op streams -> engine.

:func:`run_traffic` measures one (scheme, traffic spec) point by driving
an :class:`~repro.sim.engine.EngineStream` as an event loop:

* Each request is lowered to its op sequence (:class:`~repro.serve.
  kvservice.KVService`) and fed to its home core **one request at a
  time**.  When a core starves (``pump()`` returns it), its clock is
  exactly the completion cycle of the request in flight — per-request
  latency with no per-op callbacks.
* **Open loop** — requests carry absolute Poisson arrival cycles; a core
  whose next request has not arrived yet is ``advance``-d to the arrival
  (modelling the idle gap), and latency is ``completion − arrival``, so
  queueing delay under overload shows up in the tail exactly as it
  would at a real server.
* **Closed loop** — a fixed client population; a completion schedules
  the client's next request after an exponential think time.  Dispatch
  is per-core FIFO in routing order: a freed core takes the
  oldest-routed request, advancing to its ready cycle if needed; cores
  with nothing routed go ``idle`` so they never block global progress,
  and are woken when a request routes to them (or, if everything idles,
  the reactor advances the earliest-ready core — the event-loop timer
  step).

Overload protection (all off by default, enabled per
:class:`~repro.serve.loadgen.TrafficSpec`):

* **Bounded admission** — ``queue_limit`` caps each core's queue; an
  arrival finding it full is *shed* with a typed
  :class:`~repro.obs.events.RequestRejected` outcome instead of queueing
  without bound.
* **Deadlines** — ``deadline_cycles`` drops a request still queued when
  its core passes ``arrival + deadline`` (a ``timeout`` outcome, counted
  in the :class:`~repro.obs.latency.LatencyRecorder`); the request is
  never lowered, exactly like a server load-shedding before parsing.
  This is also what guarantees closed-loop termination when a core's
  queue never drains.
* **Retries** — closed-loop clients re-issue shed/timed-out requests up
  to ``max_retries`` times with exponential backoff
  (``retry_backoff_cycles * 2**attempt``) under a seeded 0.5–1.5x
  jitter, then give up and move on.
* **Degraded mode** — when battery health is in doubt (a fault plan
  targets the battery domain, or the caller forces it), schemes whose
  registry descriptor declares ``degraded_mode == DEGRADED_WRITE_THROUGH``
  are served with every persisting store force-drained out of the
  battery domain as it allocates: slower, but durable without the
  battery.  Schemes without the capability refuse.

Determinism: the load generator, the service routing, and the engine's
streamed interleaving are all seeded/deterministic, so a (scheme, spec)
pair always produces the same latencies and the same fingerprint-stable
engine results.  With the overload features disabled the reactor issues
the exact per-core call sequence it always has — fault-free default
traffic is bit-identical run to run and release to release.  Streams run
on the same per-op engine as ``Engine.run``.  Open-loop runs use only
``feed``/``advance``/``end``; closed-loop runs additionally use
``idle``, whose wake policy has no materialized-trace equivalent (the
run is still deterministic — it is just not claimed bit-identical to any
``Engine.run`` invocation).

:func:`traffic_curve` sweeps offered load across schemes and packages
the throughput-vs-load curve with p50/p99/p999 per scheme into the
versioned report (see :mod:`repro.serve.report`).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import (Deque, Dict, Iterable, List, Optional, Sequence, Tuple,
                    Type)

from repro.api import RunOptions, build_system
from repro.core.registry import (DEGRADED_WRITE_THROUGH, SchemeInfo,
                                 canonical_name, scheme_info)
from repro.fault.plan import BATTERY_DOMAIN_SITES
from repro.obs.bus import EventBus
from repro.obs.events import (DegradedModeEntered, RequestCompleted,
                              RequestRejected, RequestRetried,
                              RequestTimeout)
from repro.obs.latency import LatencyRecorder, percentile_summary
from repro.serve.kvservice import KVService
from repro.serve.loadgen import Request, TrafficSpec, iter_requests, think_time
from repro.serve.report import build_report
from repro.sim.config import SystemConfig
from repro.sim.system import System

__all__ = [
    "LoopStats",
    "OUTCOME_REJECTED",
    "OUTCOME_RETRIED",
    "OUTCOME_TIMEOUT",
    "TrafficPoint",
    "run_traffic",
    "traffic_curve",
]

#: Key prefixes the recorder files per-tenant / per-op breakdowns under.
_TENANT_KEY = "tenant:"
_OP_KEY = "op:"

#: Outcome labels tallied in the :class:`LatencyRecorder` beside the
#: latency histograms (completions are the histograms themselves).
OUTCOME_REJECTED = "rejected"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_RETRIED = "retried"


@dataclass
class LoopStats:
    """What one reactor loop did, beyond the latency histograms.

    ``acked_ids`` (completions the client saw) and ``dropped_ids``
    (shed/timed-out requests whose clients got a definitive failure) let
    the crash-recovery drill classify every remaining request as lost in
    flight."""

    completed: int = 0
    crashed: bool = False
    shed: int = 0
    timeouts: int = 0
    retries: int = 0
    max_queue_depth: int = 0
    acked_ids: List[int] = field(default_factory=list)
    dropped_ids: List[int] = field(default_factory=list)

    def note_depth(self, depth: int) -> None:
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth


@dataclass
class TrafficPoint:
    """One (scheme, offered load) measurement."""

    scheme: str
    arrival: str
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
    #: Overload accounting (see the module docstring).
    shed: int = 0
    timeouts: int = 0
    retries: int = 0
    shed_rate: float = 0.0
    max_queue_depth: int = 0
    #: True when the scheme served in its degraded mode.
    degraded: bool = False

    def to_payload(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "arrival": self.arrival,
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
            "shed": self.shed,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "shed_rate": self.shed_rate,
            "max_queue_depth": self.max_queue_depth,
            "degraded": self.degraded,
        }


def default_traffic_config() -> SystemConfig:
    """The system the frontend serves on when no config is given (the
    same scaled Table III system the experiment drivers use)."""
    from repro.analysis.experiments import default_sim_config

    return default_sim_config()


# ----------------------------------------------------------------------
# Degraded-mode serving
# ----------------------------------------------------------------------

class _ForceWriteThrough:
    """Mixin implementing the ``write-through`` degraded capability: each
    persisting store's persist-buffer entry is force-drained toward the
    ADR domain the moment it allocates, so durability never rests on the
    battery.  Same exact contract, strictly more NVMM writes."""

    def on_persisting_store(self, core, block_addr, block_data, now):
        stall = super().on_persisting_store(core, block_addr, block_data, now)
        buf = self.buffers[core]
        if buf.contains(block_addr):
            buf.force_drain(block_addr, now)
            self.hierarchy.directory.set_bbpb_owner(block_addr, None, now)
        return stall


_DEGRADED_CLASSES: Dict[type, type] = {}


def _degraded_scheme_cls(info: SchemeInfo) -> Type:
    """The scheme subclass serving ``info`` in its declared degraded
    mode; raises ``ValueError`` for schemes without the capability."""
    if info.degraded_mode != DEGRADED_WRITE_THROUGH:
        raise ValueError(
            f"scheme {info.name!r} declares no degraded mode; cannot serve "
            f"degraded (registry degraded_mode={info.degraded_mode!r})"
        )
    cls = _DEGRADED_CLASSES.get(info.cls)
    if cls is None:
        cls = type("Degraded" + info.cls.__name__,
                   (_ForceWriteThrough, info.cls), {})
        _DEGRADED_CLASSES[info.cls] = cls
    return cls


def _battery_health_suspect(opts: RunOptions) -> bool:
    """True when the run's fault plan targets the battery domain — the
    modelled health signal (brown-out risk, failed self-test) that
    triggers degraded serving for capable schemes."""
    injector = opts.fault_injector
    if not injector.enabled:
        return False
    return any(injector.plan.for_site(site) for site in BATTERY_DOMAIN_SITES)


def run_traffic(
    scheme: str,
    spec: TrafficSpec,
    *,
    config: Optional[SystemConfig] = None,
    entries: int = 32,
    options: Optional[RunOptions] = None,
    degraded: Optional[bool] = None,
) -> TrafficPoint:
    """Serve ``spec``'s traffic on ``scheme``; return the measured point.

    ``degraded=None`` (the default) auto-degrades capable schemes when
    the run's fault plan puts battery health in doubt; ``True`` forces
    degraded serving (``ValueError`` if the scheme declares no degraded
    mode); ``False`` never degrades."""
    info = scheme_info(scheme)
    cfg = config or default_traffic_config()
    opts = options or RunOptions()
    if degraded is None:
        degraded = bool(info.degraded_mode) and _battery_health_suspect(opts)
    if degraded:
        scheme_obj = info.build_scheme(
            entries=entries, scheme_cls=_degraded_scheme_cls(info))
        system = System(cfg, scheme_obj, reorder_seed=opts.reorder_seed,
                        bus=opts.bus, fault_injector=opts.fault_injector,
                        crash_schedule=opts.crash_schedule, mode=opts.mode)
        if opts.bus.enabled:
            opts.bus.emit(DegradedModeEntered(
                cycle=0, scheme=info.name, mode=info.degraded_mode,
                reason="battery health suspect",
            ))
    else:
        system = build_system(info.name, entries=entries, config=cfg,
                              options=opts)
    service = KVService(cfg.mem, spec, cfg.num_cores)
    recorder = LatencyRecorder()
    session = system.stream()
    bus = opts.bus

    if spec.open_loop:
        stats = _open_loop(session, service, spec, recorder, bus)
    else:
        stats = _closed_loop(session, service, spec, recorder, bus)
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
        scheme=info.name,
        arrival=spec.arrival,
        offered_load=spec.offered_load,
        requests=spec.requests,
        completed=stats.completed,
        execution_cycles=cycles,
        achieved_load=round(achieved, 6),
        latency=percentile_summary(recorder.histogram()),
        tenants=tenants,
        ops=ops,
        crashed=stats.crashed or result.crashed,
        nvmm_writes=result.stats.nvmm_writes,
        stall_cycles=result.stats.total_bbpb_stalls,
        shed=stats.shed,
        timeouts=stats.timeouts,
        retries=stats.retries,
        shed_rate=round(stats.shed / spec.requests, 6),
        max_queue_depth=stats.max_queue_depth,
        degraded=bool(degraded),
    )


# ----------------------------------------------------------------------
# Reactor loops
# ----------------------------------------------------------------------

def _complete(
    session,
    service: KVService,
    recorder: LatencyRecorder,
    bus: EventBus,
    core: int,
    request: Request,
    arrival: int,
) -> None:
    clock = session.clock(core)
    latency = max(0, clock - arrival)
    recorder.record(
        latency, _TENANT_KEY + request.tenant, _OP_KEY + request.op
    )
    if bus.enabled:
        bus.emit(RequestCompleted(
            cycle=clock,
            core=core,
            request_id=request.request_id,
            tenant=request.tenant,
            op=request.op,
            latency=latency,
        ))


def _open_loop(
    session, service: KVService, spec: TrafficSpec,
    recorder: LatencyRecorder, bus: EventBus,
    requests: Optional[Iterable[Request]] = None,
) -> LoopStats:
    """Open-loop reactor.  Admission is lazy: the arrival-ordered stream
    is pulled as cores starve, so bounded queues see the depth they would
    at the arrival instant.  With ``queue_limit``/``deadline_cycles``
    unset this issues the identical per-core call sequence as eager
    routing — the fault-free fast path is unchanged."""
    n = service.num_cores
    stream = iter(requests if requests is not None else iter_requests(spec))
    queues: List[Deque[Request]] = [deque() for _ in range(n)]
    in_flight: List[Optional[Request]] = [None] * n
    stats = LoopStats()
    exhausted = False

    def admit(request: Request) -> None:
        core = service.core_of(request)
        if spec.queue_limit and len(queues[core]) >= spec.queue_limit:
            stats.shed += 1
            stats.dropped_ids.append(request.request_id)
            recorder.count(OUTCOME_REJECTED)
            if bus.enabled:
                bus.emit(RequestRejected(
                    cycle=request.arrival, core=core,
                    request_id=request.request_id, tenant=request.tenant,
                    depth=len(queues[core]),
                ))
            return
        queues[core].append(request)
        stats.note_depth(len(queues[core]))

    def pull_for(core: int) -> None:
        """Admit arrivals (in order) until ``core`` has work or the
        stream ends; intermediate arrivals land on their own queues."""
        nonlocal exhausted
        while not exhausted and not queues[core]:
            nxt = next(stream, None)
            if nxt is None:
                exhausted = True
                return
            admit(nxt)

    while True:
        needy = session.pump()
        if needy is None:
            break
        request = in_flight[needy]
        if request is not None:
            _complete(session, service, recorder, bus, needy, request,
                      request.arrival)
            stats.completed += 1
            stats.acked_ids.append(request.request_id)
            in_flight[needy] = None
        while True:
            if not queues[needy]:
                pull_for(needy)
            if not queues[needy]:
                session.end(needy)
                break
            nxt = queues[needy].popleft()
            waited = session.clock(needy) - nxt.arrival
            if spec.deadline_cycles and waited > spec.deadline_cycles:
                # Queued past its deadline: dropped before lowering a
                # single op, exactly like a server shedding stale work.
                stats.timeouts += 1
                stats.dropped_ids.append(nxt.request_id)
                recorder.count(OUTCOME_TIMEOUT)
                if bus.enabled:
                    bus.emit(RequestTimeout(
                        cycle=session.clock(needy), core=needy,
                        request_id=nxt.request_id, tenant=nxt.tenant,
                        waited=waited, deadline=spec.deadline_cycles,
                    ))
                continue
            # The gap until the next arrival is idle time, not service
            # time: move the core's clock to the arrival cycle.
            session.advance(needy, nxt.arrival)
            session.feed(needy, service.ops_for(nxt))
            in_flight[needy] = nxt
            break
    stats.crashed = session.result.crashed
    return stats


def _closed_loop(
    session, service: KVService, spec: TrafficSpec,
    recorder: LatencyRecorder, bus: EventBus,
) -> LoopStats:
    n = service.num_cores
    think_rng = random.Random(spec.seed ^ 0x7417E)
    retry_rng = random.Random(spec.seed ^ 0x3E77E5)
    #: Per-client queues of that client's requests, in draw order.
    client_queues: Dict[int, Deque[Request]] = {}
    for request in iter_requests(spec):
        client_queues.setdefault(request.client, deque()).append(request)
    #: Per-core FIFO of (request, ready cycle), in routing order.
    pending: List[Deque[Tuple[Request, int]]] = [deque() for _ in range(n)]
    #: Request in flight per core, with its ready (arrival) cycle.
    in_flight: List[Optional[Tuple[Request, int]]] = [None] * n
    sleeping = [False] * n
    #: Retry attempts so far per request id.
    attempts: Dict[int, int] = {}
    stats = LoopStats()

    def client_continue(request: Request, now: int) -> None:
        """The issuing client got a definitive answer at ``now``; after a
        think time it issues its next request."""
        queue = client_queues.get(request.client)
        if queue:
            route(queue.popleft(), now + think_time(spec, think_rng))

    def failed(request: Request, now: int) -> None:
        """A shed or timeout at cycle ``now``: retry with exponential
        backoff + jitter while attempts remain, else the client gives up
        and moves on (this is what bounds every request's lifetime)."""
        attempt = attempts.get(request.request_id, 0)
        if attempt < spec.max_retries:
            attempts[request.request_id] = attempt + 1
            stats.retries += 1
            recorder.count(OUTCOME_RETRIED)
            backoff = spec.retry_backoff_cycles * (2 ** attempt)
            delay = max(1, int(backoff * (0.5 + retry_rng.random())))
            if bus.enabled:
                bus.emit(RequestRetried(
                    cycle=now, core=service.core_of(request),
                    request_id=request.request_id, attempt=attempt + 1,
                    retry_at=now + delay,
                ))
            route(request, now + delay)
        else:
            stats.dropped_ids.append(request.request_id)
            client_continue(request, now)

    def dispatch(core: int) -> bool:
        """Feed ``core``'s oldest routed request; False if none queued.
        Requests past their deadline are dropped (timeout) instead of
        served."""
        while pending[core]:
            request, ready = pending[core].popleft()
            waited = session.clock(core) - ready
            if spec.deadline_cycles and waited > spec.deadline_cycles:
                stats.timeouts += 1
                recorder.count(OUTCOME_TIMEOUT)
                if bus.enabled:
                    bus.emit(RequestTimeout(
                        cycle=session.clock(core), core=core,
                        request_id=request.request_id, tenant=request.tenant,
                        waited=waited, deadline=spec.deadline_cycles,
                    ))
                failed(request, session.clock(core))
                continue
            session.advance(core, ready)
            session.feed(core, service.ops_for(request))
            in_flight[core] = (request, ready)
            sleeping[core] = False
            return True
        return False

    def route(request: Request, ready: int) -> None:
        core = service.core_of(request)
        idle_now = sleeping[core] and in_flight[core] is None
        if (spec.queue_limit and not idle_now
                and len(pending[core]) >= spec.queue_limit):
            stats.shed += 1
            recorder.count(OUTCOME_REJECTED)
            if bus.enabled:
                bus.emit(RequestRejected(
                    cycle=ready, core=core, request_id=request.request_id,
                    tenant=request.tenant, depth=len(pending[core]),
                ))
            failed(request, ready)
            return
        pending[core].append((request, ready))
        stats.note_depth(len(pending[core]))
        if idle_now:
            dispatch(core)

    # Every client's first request is ready at cycle 0.
    for client in sorted(client_queues):
        queue = client_queues[client]
        if queue:
            route(queue.popleft(), 0)

    while True:
        needy = session.pump()
        if needy is None:
            if session.result.crashed:
                break
            # Everyone is idle: either done, or all queued requests are
            # in the future — wake the earliest (the timer step).
            best_core = -1
            best_ready = 0
            for core in range(n):
                if pending[core]:
                    ready = pending[core][0][1]
                    if best_core < 0 or ready < best_ready:
                        best_core, best_ready = core, ready
            if best_core < 0:
                break
            dispatch(best_core)
            continue
        flight = in_flight[needy]
        if flight is not None:
            request, ready = flight
            _complete(session, service, recorder, bus, needy, request, ready)
            stats.completed += 1
            stats.acked_ids.append(request.request_id)
            in_flight[needy] = None
            # The client thinks, then issues its next request.
            client_continue(request, session.clock(needy))
        if not dispatch(needy):
            # Nothing routed here right now; requests may arrive later.
            session.idle(needy)
            sleeping[needy] = True
    stats.crashed = session.result.crashed
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
