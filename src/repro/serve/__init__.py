"""Request-driven traffic frontend over the streaming engine.

The rest of the repository asks "how long does this *trace* take?"; this
package asks the serving question the paper's motivation opens with —
what latency does a client of a persistent key-value service observe
under each persistency scheme, and how does it degrade as offered load
approaches saturation?

Four layers:

* :mod:`repro.serve.loadgen` — synthetic client sessions: Zipf-skewed
  keys, YCSB-style read/update/insert mixes, multi-tenant namespaces,
  and open-loop Poisson arrivals.  Pure request objects, no memory ops.
* :mod:`repro.serve.kvservice` — a tenant-namespaced chained-hash KV
  store over the persistent heap that lowers each request to the exact
  load/store/compute sequence a server thread would execute, and routes
  it to a core deterministically (key -> bucket -> core).
* :mod:`repro.serve.frontend` — the reactor: drives an
  :class:`~repro.sim.engine.EngineStream`, feeding each core one request
  at a time and reading per-request latency straight off the starved
  core's clock.  :func:`~repro.serve.frontend.run_traffic` measures one
  (scheme, offered load) point; :func:`~repro.serve.frontend.
  traffic_curve` sweeps a load grid across schemes into the versioned
  ``repro.traffic/v4`` report (:mod:`repro.serve.report`).  Every
  request is served: queues are unbounded, so overload shows up as
  queueing delay in the tail.
* :mod:`repro.serve.drill` — crash-recovery drills: crash a traffic run
  at a seeded op visit, drain/repair/restart, classify every request
  (acked-durable / acked-lost / unacked-lost / retried-duplicate), and
  report RPO/RTO per scheme in the versioned ``repro.drill/v3`` report.

Everything is deterministic in ``TrafficSpec.seed``: two runs of the same
spec against the same scheme produce identical traces, latencies, and
reports.
"""

from repro.serve.drill import (
    DRILL_SCHEMA,
    DrillUnit,
    count_crash_sites,
    execute_drill_unit,
    run_drills,
    smoke_drill,
    validate_drill_report,
)
from repro.serve.frontend import (
    LoopStats,
    TrafficPoint,
    run_traffic,
    traffic_curve,
)
from repro.serve.kvservice import KVService
from repro.serve.loadgen import (
    Request,
    TenantSpec,
    TrafficSpec,
    ZipfSampler,
    iter_requests,
)
from repro.serve.report import (
    TRAFFIC_SCHEMA_VERSION,
    render_curve,
    validate_traffic_report,
)

__all__ = [
    "DRILL_SCHEMA",
    "DrillUnit",
    "KVService",
    "LoopStats",
    "Request",
    "TenantSpec",
    "TrafficPoint",
    "TrafficSpec",
    "TRAFFIC_SCHEMA_VERSION",
    "ZipfSampler",
    "count_crash_sites",
    "execute_drill_unit",
    "iter_requests",
    "render_curve",
    "run_drills",
    "run_traffic",
    "smoke_drill",
    "traffic_curve",
    "validate_drill_report",
    "validate_traffic_report",
]
