"""Crash-recovery drills: crash the serving system mid-traffic, recover,
and account for every request.

The rest of the robustness stack classifies durable *images* (the crash
checker, the fault campaign); a drill closes the loop at the *service*
level, where the paper's pitch — battery-backed buffers make recovery
trivial — actually cashes out.  One drill unit:

1. **Crash mid-traffic.**  The traffic reactor runs normally, but a
   :class:`~repro.check.schedule.CrashSchedule` threaded through the
   engine stream fires at a seeded op-visit, freezing the run exactly as
   a power failure would.  ``session.finish()`` then performs the
   scheme's crash drain (flush-on-fail battery, WPQ residue), producing
   the durable NVMM image recovery starts from.
2. **Check the contract.**  The image is checked against the scheme's
   registered consistency contract
   (:func:`~repro.core.recovery.check_scheme_contract` over its
   :func:`~repro.core.recovery.claimed_persists`).
3. **Repair.**  The KV recovery pass walks every bucket chain
   (:meth:`~repro.serve.kvservice.KVService.recovery_scan`), pricing the
   reads and counting the truncating repairs half-published inserts
   require.
4. **Classify every request** against the image
   (:func:`~repro.core.recovery.classify_request`): ``acked-durable``,
   ``acked-lost`` (the RPO violation — a client was told its write is
   safe and it is gone), ``unacked-lost``, or ``retried-duplicate``
   (unacked yet fully durable: a client retry would double-apply).
5. **Restart.**  A fresh system serves the unresolved (never-acked)
   requests to completion — the restart leg of RTO.

RPO is the acked-but-lost count and byte volume; RTO is the modelled
recovery time: crash-drain residue + repair scan + restart cycles.  Per
the paper's contract, battery-domain schemes (bbb, eadr) must show
``acked_lost == 0`` at every crash point — the drill report gates on it
exactly like ``repro faults`` gates on silent corruption, and the
deliberately broken ``bbb-delayed-alloc`` mutant exists to prove the
gate can fail.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import build_system
from repro.check.mutants import MUTANTS, build_crash_system
from repro.check.schedule import SITE_OP, CrashSchedule
from repro.core.recovery import (ACKED_LOST, REQUEST_OUTCOMES, RequestVerdict,
                                 check_scheme_contract, claimed_persists,
                                 classify_request, lost_request_stores)
from repro.core.registry import scheme_info
from repro.obs.latency import LatencyHistogram, LatencyRecorder, \
    percentile_summary
from repro.serve.frontend import _open_loop, default_traffic_config
from repro.serve.kvservice import KVService
from repro.serve.loadgen import Request, TrafficSpec, iter_requests

__all__ = [
    "DRILL_SCHEMA",
    "DrillUnit",
    "count_crash_sites",
    "drill_failures",
    "execute_drill_unit",
    "run_drills",
    "smoke_drill",
    "validate_drill_report",
]

DRILL_SCHEMA = "repro.drill/v3"

#: Prose embedded in every report so a drill file is self-describing.
SCHEMA_DOC = (
    "Each unit crashes one traffic run at a seeded engine-op visit, "
    "drains per scheme, checks the registered consistency contract, "
    "walks and repairs the KV chains, classifies every request as "
    "acked-durable / acked-lost / unacked-lost / retried-duplicate "
    "against the durable image, and restarts a fresh system over the "
    "unresolved requests.  rpo counts acked-but-lost requests and bytes "
    "(must be zero for battery-domain schemes); rto_cycles models "
    "recovery time as crash-drain residue + chain-repair scan + restart."
)

#: Optional progress callback: ``progress(done, total, label)``.
Progress = Callable[[int, int, str], None]


@dataclass(frozen=True)
class DrillUnit:
    """One (scheme, traffic spec, crash point) drill."""

    scheme: str
    spec: TrafficSpec
    #: 1-based engine-op visit the crash fires at.
    crash_visit: int
    entries: int = 16
    #: Mutant key (``repro.check.mutants``) sabotaging the scheme, or
    #: ``""`` to drill the registered scheme itself.
    mutant: str = ""


def _drive(system, service: KVService, spec: TrafficSpec,
           recorder: LatencyRecorder,
           requests: Optional[Sequence[Request]] = None):
    """Stream one traffic run to completion or crash; ``finish()``
    performs the crash drain, so the returned result's durable image is
    post-drain.  Returns ``(LoopStats, RunResult)``."""
    session = system.stream()
    stats = _open_loop(session, service, spec, recorder, requests=requests)
    return stats, session.finish()


def count_crash_sites(
    scheme: str,
    spec: TrafficSpec,
    *,
    entries: int = 16,
    config=None,
) -> int:
    """Total crashable engine-op visits in one full (uncrashed) run of
    ``spec`` on ``scheme`` — the space drill crash points are drawn
    from.  Requests lower identically for every scheme, so one count
    serves a whole scheme sweep."""
    cfg = config or default_traffic_config()
    schedule = CrashSchedule(stop_at=None, sites=(SITE_OP,))
    system = build_crash_system(scheme, entries=entries, config=cfg,
                                crash_schedule=schedule)
    service = KVService(cfg.mem, spec, cfg.num_cores)
    _drive(system, service, spec, LatencyRecorder())
    return schedule.visits


def execute_drill_unit(unit: DrillUnit, config=None) -> Dict[str, Any]:
    """Run one drill end to end; returns the unit's report dict."""
    cfg = config or default_traffic_config()
    spec = unit.spec
    info = scheme_info(MUTANTS[unit.mutant][0] if unit.mutant
                       else unit.scheme)
    system = build_crash_system(
        info.name, mutant=unit.mutant or None, entries=unit.entries,
        config=cfg,
        crash_schedule=CrashSchedule(stop_at=unit.crash_visit,
                                     sites=(SITE_OP,)),
    )
    service = KVService(cfg.mem, spec, cfg.num_cores)
    service.enable_persist_log()
    recorder = LatencyRecorder()

    stats, result = _drive(system, service, spec, recorder)
    media = system.nvmm_media
    crashed = result.crashed

    # ------------------------------------------------------------------
    # Durability mapping: which committed store is the last writer of
    # each address, and which request issued it.  (addr, value) -> rid is
    # unique by construction: node words live at per-insert fresh heap
    # addresses and update values mix the request id in.
    # ------------------------------------------------------------------
    claimed = claimed_persists(info.name, result)
    owner: Dict[Tuple[int, int], int] = {}
    for rid, stores in (service.persist_log or {}).items():
        for addr, _size, value in stores:
            owner[(addr, value)] = rid
    last_writer: Dict[int, int] = {}
    for rec in claimed:
        rid = owner.get((rec.addr, rec.value))
        if rid is not None:
            last_writer[rec.addr] = rid

    # ------------------------------------------------------------------
    # Classify every request of the spec against the durable image.
    # ------------------------------------------------------------------
    acked = set(stats.acked_ids)
    outcomes: Dict[str, int] = {name: 0 for name in REQUEST_OUTCOMES}
    verdicts: List[RequestVerdict] = []
    rpo_bytes = 0
    unresolved: List[Request] = []
    for request in iter_requests(spec):
        rid = request.request_id
        stores = (service.persist_log or {}).get(rid)
        lost = (lost_request_stores(media, stores, rid, last_writer)
                if stores else [])
        durable = stores is not None and not lost
        verdict = RequestVerdict(
            request_id=rid,
            tenant=request.tenant,
            op=request.op,
            acked=rid in acked,
            outcome=classify_request(rid in acked, durable, bool(stores)),
            lost_stores=tuple(lost),
        )
        outcomes[verdict.outcome] += 1
        if verdict.outcome == ACKED_LOST:
            rpo_bytes += verdict.lost_bytes
            verdicts.append(verdict)
        if rid not in acked:
            unresolved.append(request)

    # ------------------------------------------------------------------
    # Contract check + chain-walk repair + restart (the RTO legs).
    # ------------------------------------------------------------------
    contract = check_scheme_contract(info.name, media, claimed)
    scan = service.recovery_scan(media)
    drain = result.drain_report
    per_unit = cfg.mem.mc_transfer_cycles + cfg.mem.wpq_accept_cycles
    drain_cycles = (drain.total_units * per_unit) if drain else 0
    repair_cycles = (scan["reads"] * cfg.mem.nvmm_read_cycles
                     + scan["repairs"] * cfg.mem.nvmm_write_cycles)

    restart_cycles = 0
    restart_completed = 0
    if crashed and unresolved:
        system2 = build_system(info.name, entries=unit.entries, config=cfg)
        service2 = KVService(cfg.mem, spec, cfg.num_cores)
        recorder2 = LatencyRecorder()
        replay = [dataclasses.replace(r, arrival=0) for r in unresolved]
        stats2, result2 = _drive(system2, service2, spec, recorder2,
                                 requests=replay)
        restart_cycles = result2.execution_cycles
        restart_completed = stats2.completed

    rto_cycles = drain_cycles + repair_cycles + restart_cycles
    return {
        "scheme": info.name,
        "mutant": unit.mutant,
        "offered_load": spec.offered_load,
        "crash_visit": unit.crash_visit,
        "crashed": crashed,
        "crash_op": result.crash_op if crashed else -1,
        "requests": spec.requests,
        "acked": len(acked),
        "outcomes": outcomes,
        "rpo": {
            "acked_lost_requests": outcomes[ACKED_LOST],
            "acked_lost_bytes": rpo_bytes,
            "lost": [
                {
                    "request_id": v.request_id,
                    "tenant": v.tenant,
                    "op": v.op,
                    "stores": [
                        {"addr": addr, "size": size}
                        for addr, size, _value in v.lost_stores
                    ],
                }
                for v in verdicts[:5]
            ],
        },
        "rto": {
            "drain_cycles": drain_cycles,
            "repair_cycles": repair_cycles,
            "restart_cycles": restart_cycles,
            "total_cycles": rto_cycles,
        },
        "recovery": {
            "buckets_scanned": scan["buckets"],
            "nodes_walked": scan["nodes"],
            "repairs": scan["repairs"],
            "restart_requests": len(unresolved),
            "restart_completed": restart_completed,
        },
        "contract_consistent": contract.consistent,
        "violations": contract.violations[:3],
        "battery_domain": info.battery_domain,
    }


# ----------------------------------------------------------------------
# The drill sweep
# ----------------------------------------------------------------------

def run_drills(
    schemes: Sequence[str],
    spec: TrafficSpec,
    loads: Sequence[float],
    *,
    crashes: int = 3,
    seed: int = 7,
    entries: int = 16,
    config=None,
    mutants: Sequence[str] = (),
    progress: Optional[Progress] = None,
) -> Dict[str, Any]:
    """Drill ``schemes`` (and ``mutants``) across ``loads`` x ``crashes``
    seeded crash points; returns the ``repro.drill/v3`` report.

    Crash points are drawn once per load and shared across schemes, so
    every scheme faces the identical crash schedule (the same design as
    the fault campaign's shared crash points)."""
    if not schemes:
        raise ValueError("at least one scheme is required")
    if not loads:
        raise ValueError("at least one offered load is required")
    if crashes < 1:
        raise ValueError("crashes must be >= 1")
    names = [scheme_info(s).name for s in schemes]
    for mutant in mutants:
        if mutant not in MUTANTS:
            raise ValueError(
                f"unknown mutant {mutant!r}; valid mutants: "
                f"{', '.join(sorted(MUTANTS))}"
            )
    cfg = config or default_traffic_config()
    rng = random.Random(seed)
    cells: List[DrillUnit] = []
    for load in loads:
        load_spec = spec.with_load(load)
        total = count_crash_sites(names[0], load_spec, entries=entries,
                                  config=cfg)
        if total < 2:
            raise ValueError(
                f"traffic at load {load} exposes only {total} crashable "
                f"op visit(s); nothing to drill"
            )
        visits = sorted(rng.randrange(1, total) for _ in range(crashes))
        for name in names:
            cells.extend(
                DrillUnit(scheme=name, spec=load_spec, crash_visit=v,
                          entries=entries)
                for v in visits
            )
        for mutant in mutants:
            cells.extend(
                DrillUnit(scheme=MUTANTS[mutant][0], spec=load_spec,
                          crash_visit=v, entries=entries, mutant=mutant)
                for v in visits
            )

    units: List[Dict[str, Any]] = []
    for i, unit in enumerate(cells):
        if progress is not None:
            label = unit.mutant or unit.scheme
            progress(i, len(cells), f"{label} @ visit {unit.crash_visit}")
        units.append(execute_drill_unit(unit, config=cfg))
    if progress is not None:
        progress(len(cells), len(cells), "done")

    report = {
        "schema": DRILL_SCHEMA,
        "schema_doc": SCHEMA_DOC,
        "seed": seed,
        "spec": dataclasses.asdict(spec),
        "schemes": names,
        "loads": [float(x) for x in loads],
        "mutants": list(mutants),
        "units": units,
        "per_scheme": _aggregate(units, mutant=False),
        "per_mutant": _aggregate(units, mutant=True),
        "battery_domain": _battery_summary(units),
    }
    validate_drill_report(report)
    return report


def _aggregate(units: Sequence[Dict[str, Any]],
               mutant: bool) -> Dict[str, Any]:
    """Per-scheme (or per-mutant) RPO/RTO rollup."""
    groups: Dict[str, List[Dict[str, Any]]] = {}
    for unit in units:
        if bool(unit["mutant"]) != mutant:
            continue
        groups.setdefault(unit["mutant"] or unit["scheme"], []).append(unit)
    out: Dict[str, Any] = {}
    for name, members in groups.items():
        rto = LatencyHistogram()
        rpo = LatencyHistogram()
        outcomes: Dict[str, int] = {key: 0 for key in REQUEST_OUTCOMES}
        lost_bytes = 0
        for unit in members:
            rto.record(unit["rto"]["total_cycles"])
            rpo.record(unit["rpo"]["acked_lost_requests"])
            lost_bytes += unit["rpo"]["acked_lost_bytes"]
            for key, n in unit["outcomes"].items():
                outcomes[key] = outcomes.get(key, 0) + n
        out[name] = {
            "units": len(members),
            "outcomes": outcomes,
            "acked_lost_total": outcomes[ACKED_LOST],
            "acked_lost_bytes": lost_bytes,
            "rpo_requests": percentile_summary(rpo),
            "rto_cycles": percentile_summary(rto),
            "contract_violations": sum(
                0 if unit["contract_consistent"] else 1 for unit in members
            ),
        }
    return out


def _battery_summary(units: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The gate block: battery-domain schemes must never lose an acked
    request; mutants must be *caught* losing one (or breaking their
    contract) — otherwise the drill has no teeth."""
    acked_lost = 0
    for unit in units:
        if unit["battery_domain"] and not unit["mutant"]:
            acked_lost += unit["rpo"]["acked_lost_requests"]
    caught: Dict[str, bool] = {}
    for unit in units:
        if unit["mutant"]:
            hit = (unit["rpo"]["acked_lost_requests"] > 0
                   or not unit["contract_consistent"])
            caught[unit["mutant"]] = caught.get(unit["mutant"], False) or hit
    return {"acked_lost": acked_lost, "mutants_caught": caught}


def drill_failures(report: Dict[str, Any]) -> List[str]:
    """The drill gate's verdict: no battery-domain scheme lost an acked
    request, every drilled mutant was caught, and every restart served
    all of its unresolved requests.  Empty means the drill passes."""
    failures = []
    domain = report["battery_domain"]
    if domain["acked_lost"]:
        failures.append(
            f"battery-domain scheme lost {domain['acked_lost']} acked "
            f"request(s) — RPO > 0 breaks the paper's contract"
        )
    for name, hit in domain["mutants_caught"].items():
        if not hit:
            failures.append(
                f"mutant {name!r} escaped the drill: no acked loss and no "
                f"contract violation at any crash point"
            )
    for unit in report["units"]:
        rec = unit["recovery"]
        if rec["restart_completed"] != rec["restart_requests"]:
            failures.append(
                f"{unit['mutant'] or unit['scheme']} @ visit "
                f"{unit['crash_visit']}: restart served "
                f"{rec['restart_completed']}/{rec['restart_requests']} "
                f"unresolved requests"
            )
    return failures


def smoke_drill(
    seed: int = 7,
    *,
    progress: Optional[Progress] = None,
) -> Dict[str, Any]:
    """Small fixed drill for CI: every registered scheme, one load,
    three shared crash points, plus the delayed-allocation BBB mutant
    the gate must catch."""
    from repro.api import SCHEMES

    spec = TrafficSpec(requests=36, seed=seed, offered_load=2.0)
    return run_drills(
        SCHEMES, spec, (2.0,), crashes=3, seed=seed, entries=8,
        mutants=("bbb-delayed-alloc",), progress=progress,
    )


# ----------------------------------------------------------------------
# Report validation + IO
# ----------------------------------------------------------------------

def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid drill report: {message}")


def validate_drill_report(report: Any) -> Dict[str, Any]:
    """Validate a ``repro.drill/v3`` payload; returns it on success,
    raises ``ValueError`` naming the first broken field otherwise."""
    _check(isinstance(report, dict), "payload is not an object")
    _check(report.get("schema") == DRILL_SCHEMA,
           f"schema must be {DRILL_SCHEMA!r}, got {report.get('schema')!r}")
    for key in ("schema_doc", "seed", "spec", "schemes", "loads", "mutants",
                "units", "per_scheme", "per_mutant", "battery_domain"):
        _check(key in report, f"missing top-level key {key!r}")
    schemes = report["schemes"]
    _check(isinstance(schemes, list) and schemes,
           "schemes must be a non-empty list")
    units = report["units"]
    _check(isinstance(units, list) and units,
           "units must be a non-empty list")
    for i, unit in enumerate(units):
        where = f"units[{i}]"
        _check(isinstance(unit, dict), f"{where} is not an object")
        for key in ("scheme", "mutant", "crash_visit", "crashed", "requests",
                    "acked", "outcomes", "rpo", "rto", "recovery",
                    "contract_consistent", "battery_domain"):
            _check(key in unit, f"{where} is missing {key!r}")
        outcomes = unit["outcomes"]
        _check(isinstance(outcomes, dict), f"{where}['outcomes'] not object")
        for key in REQUEST_OUTCOMES:
            _check(key in outcomes, f"{where}['outcomes'] missing {key!r}")
            _check(isinstance(outcomes[key], int) and outcomes[key] >= 0,
                   f"{where}['outcomes'][{key!r}] must be >= 0")
        total = sum(outcomes.values())
        _check(total == unit["requests"],
               f"{where}: outcomes must cover every request "
               f"({total} != {unit['requests']})")
        for key in ("drain_cycles", "repair_cycles", "restart_cycles",
                    "total_cycles"):
            _check(key in unit["rto"], f"{where}['rto'] missing {key!r}")
            _check(unit["rto"][key] >= 0, f"{where}['rto'][{key!r}] < 0")
        for key in ("acked_lost_requests", "acked_lost_bytes"):
            _check(key in unit["rpo"], f"{where}['rpo'] missing {key!r}")
            _check(unit["rpo"][key] >= 0, f"{where}['rpo'][{key!r}] < 0")
    for group in ("per_scheme", "per_mutant"):
        _check(isinstance(report[group], dict), f"{group} must be an object")
        for name, block in report[group].items():
            where = f"{group}[{name!r}]"
            for key in ("units", "outcomes", "acked_lost_total",
                        "rpo_requests", "rto_cycles"):
                _check(key in block, f"{where} is missing {key!r}")
    battery = report["battery_domain"]
    _check(isinstance(battery, dict) and "acked_lost" in battery
           and "mutants_caught" in battery,
           "battery_domain must carry acked_lost and mutants_caught")
    for name in schemes:
        _check(name in report["per_scheme"],
               f"per_scheme is missing scheme {name!r}")
    return report
