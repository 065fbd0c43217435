"""The four workloads of the end-to-end benchmark.

Each workload turns a seed into a list of :class:`Cell` s.  A cell is one
call of the program's public surface — ``System.run`` of a prebuilt trace,
``run_traffic`` of a traffic spec, ``run_check_unit`` of a check unit —
plus an untimed :class:`Outcome` step that checks the call's output and
fingerprints it.  The benchmark never passes ``RunOptions(mode=...)``, so
the program picks its own execution path.

=============  ===========================================================
workload       why it is in the benchmark
=============  ===========================================================
grid_private   hashmap is the Table IV workload whose ops are mostly
               core-private, so interpreter work (engine dispatch, store
               buffer, L1 hits) dominates.
grid_shared    mutateC + swapC conflict on shared arrays, so coherence,
               bbPB moves and forced drains, and the WPQ are a large share.
serve_ycsb     open-loop YCSB-style serving over ``System.stream``:
               per-request lowering and streaming windows, with pmem past
               the saturation knee and bbb/eadr below it.
crash_sweep    the ``check --smoke`` kernel: every micro-step crash point
               re-executes its prefix, so ops per checked point dominate.
=============  ===========================================================
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import repro.api as api
from repro.analysis.experiments import default_sim_config
from repro.check.checker import CheckUnit, run_check_unit
from repro.serve import TrafficSpec, run_traffic
from repro.workloads.base import (WorkloadSpec, build_cached,
                                  clear_trace_cache, seed_media_words)

#: Schemes of the grid and serving cells, and the bbb persist-buffer size
#: (the paper's BBB-32).
SCHEMES = ("bbb", "eadr", "pmem")
ENTRIES = 32

#: Crash-sweep units: (scheme, mutant, violations expected).  The mutant
#: must be caught; every honest unit must be clean.  bep is checked on
#: hashmap only: on the conflicting array workloads it has an open
#: epoch-oracle bug (see README.md), which error counting must not mix up
#: with the program under test.
CRASH_UNITS: Tuple[Tuple[str, Optional[str], bool], ...] = (
    ("bbb", None, False),
    ("eadr", None, False),
    ("pmem", None, False),
    ("bep", None, False),
    ("bbb", "bbb-delayed-alloc", True),
)


class Sizes(NamedTuple):
    """Input sizes of one benchmark scale (full or smoke)."""

    private: WorkloadSpec
    shared: WorkloadSpec
    requests: int
    crash: WorkloadSpec


FULL = Sizes(
    private=WorkloadSpec(threads=8, ops=100, elements=65536),
    shared=WorkloadSpec(threads=8, ops=200, elements=4096),
    requests=2000,
    crash=WorkloadSpec(threads=2, ops=3, elements=128),
)
SMOKE = Sizes(
    private=WorkloadSpec(threads=2, ops=20, elements=1024),
    shared=WorkloadSpec(threads=2, ops=20, elements=256),
    requests=100,
    crash=WorkloadSpec(threads=2, ops=2, elements=128),
)

#: Open-loop arrival rate, requests per 1000 simulated cycles.
OFFERED_LOAD = 64.0


@dataclass
class Outcome:
    """The checked result of one cell call."""

    #: Units of work done (simulated ops, requests, or crash points).
    work: int
    #: sha256 of everything the call observably produced.
    fingerprint: str
    attempted: int
    failures: List[str] = field(default_factory=list)
    #: Requests (or cells, units) that failed; counts toward ``failed``.
    failed: int = 0
    #: (scheme, simulated cycles, NVMM writes) of the simulated result.
    sim: Optional[Tuple[str, int, int]] = None
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class Cell:
    label: str
    #: The timed call.
    run: Callable[[], Any]
    #: Untimed: check and fingerprint what ``run`` returned.
    outcome: Callable[[Any], Outcome]


class Workload(NamedTuple):
    name: str
    #: What one unit of ``work`` is, for the printed report.
    work_unit: str
    #: (seed, sizes) -> cells.  Builds every input from a cold trace cache.
    build: Callable[[int, Sizes], List[Cell]]


def _digest(blob: Any) -> str:
    return hashlib.sha256(
        json.dumps(blob, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------------
# Grids: System.run of prebuilt Table IV traces
# ----------------------------------------------------------------------

def _run_system(scheme: str, entries: int, config, trace, words):
    system = api.build_system(scheme, entries=entries, config=config)
    seed_media_words(system.nvmm_media, words)
    # finalize=False: the measured window only, as the Fig. 7 experiments do.
    return system.run(trace, finalize=False)


def _run_outcome(scheme: str, work: int, result) -> Outcome:
    # The same blob as ``repro bench``'s fingerprint_run: full stats plus
    # both persist-record streams.
    fingerprint = _digest({
        "stats": result.stats.to_dict(),
        "committed": [tuple(r) for r in result.committed_persists],
        "performed": [tuple(r) for r in result.performed_persists],
    })
    failures = ["run crashed without a crash request"] if result.crashed else []
    return Outcome(work=work, fingerprint=fingerprint, attempted=1,
                   failures=failures, failed=len(failures),
                   sim=(scheme, result.execution_cycles,
                        result.stats.nvmm_writes))


def _grid(names: Tuple[str, ...], spec_of: Callable[[Sizes], WorkloadSpec],
          seed: int, sizes: Sizes) -> List[Cell]:
    config = default_sim_config()
    spec = dataclasses.replace(spec_of(sizes), seed=seed)
    clear_trace_cache()
    cells = []
    for name in names:
        trace, words = build_cached(name, config.mem, spec)
        for scheme in SCHEMES:
            cells.append(Cell(
                f"{name}/{scheme}",
                functools.partial(_run_system, scheme, ENTRIES, config,
                                  trace, words),
                functools.partial(_run_outcome, scheme, trace.total_ops()),
            ))
    return cells


# ----------------------------------------------------------------------
# Serving: run_traffic, open loop
# ----------------------------------------------------------------------

def _traffic_outcome(spec: TrafficSpec, point) -> Outcome:
    failures = []
    settled = point.completed + point.shed + point.timeouts
    if settled != spec.requests:
        failures.append(f"completed+shed+timeouts = {settled}, "
                        f"requests = {spec.requests}")
    if point.latency.get("count") != point.completed:
        failures.append(f"latency count {point.latency.get('count')} != "
                        f"completed {point.completed}")
    if point.crashed:
        failures.append("traffic run crashed")
    failed = spec.requests if failures else spec.requests - point.completed
    return Outcome(
        work=spec.requests, fingerprint=_digest(point.to_payload()),
        attempted=spec.requests, failures=failures, failed=failed,
        sim=(point.scheme, point.execution_cycles, point.nvmm_writes),
        extra={"completed": point.completed,
               "max_queue_depth": point.max_queue_depth,
               "p50_cycles": point.latency.get("p50", 0),
               "p99_cycles": point.latency.get("p99", 0)},
    )


def _serve(seed: int, sizes: Sizes) -> List[Cell]:
    config = default_sim_config()
    # Independent users with Poisson arrivals (open loop), Zipf 0.9 keys,
    # the default 70/25/5 read/update/insert mix.
    spec = TrafficSpec(requests=sizes.requests, offered_load=OFFERED_LOAD,
                       seed=seed)
    return [
        Cell(f"traffic/{scheme}",
             functools.partial(run_traffic, scheme, spec, config=config,
                               entries=ENTRIES),
             functools.partial(_traffic_outcome, spec))
        for scheme in SCHEMES
    ]


# ----------------------------------------------------------------------
# Crash sweep: run_check_unit, serial
# ----------------------------------------------------------------------

def _check_outcome(expect_violations: bool, sim, report_verdicts) -> Outcome:
    report, verdicts = report_verdicts
    caught = report["num_violations"] > 0
    failures = []
    if caught and not expect_violations:
        first = report["violations"][0]["violations"][0]
        failures.append(f"{report['num_violations']} inconsistent crash "
                        f"points (first: {first})")
    elif expect_violations and not caught:
        failures.append("mutant not caught")
    blob = {"report": report,
            "verdicts": [(v.point, v.site, v.crash_op, v.cycle, v.consistent,
                          v.fingerprint, v.pruned) for v in verdicts]}
    return Outcome(
        work=report["checked_points"], fingerprint=_digest(blob), attempted=1,
        failures=failures, failed=len(failures), sim=sim,
        extra={"crash_ops": sum(v.crash_op for v in verdicts),
               "checked": report["checked_points"],
               "pruned": report["pruned"]},
    )


def _crash(seed: int, sizes: Sizes) -> List[Cell]:
    config = default_sim_config()
    spec = dataclasses.replace(sizes.crash, seed=seed)
    clear_trace_cache()
    trace, words = build_cached("hashmap", config.mem, spec)
    cells = []
    for scheme, mutant, expect in CRASH_UNITS:
        unit = CheckUnit(scheme=scheme, workload="hashmap", spec=spec,
                         mutant=mutant)
        sim = None
        if mutant is None:
            # The simulated result of the unit's program run to the end,
            # on the unit's own system size.
            result = _run_system(scheme, unit.entries, config, trace, words)
            sim = (scheme, result.execution_cycles, result.stats.nvmm_writes)
        cells.append(Cell(
            f"check/{mutant or scheme}",
            functools.partial(run_check_unit, unit, jobs=1),
            functools.partial(_check_outcome, expect, sim),
        ))
    return cells


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("grid_private", "simulated ops",
                 functools.partial(_grid, ("hashmap",), lambda s: s.private)),
        Workload("grid_shared", "simulated ops",
                 functools.partial(_grid, ("mutateC", "swapC"),
                                   lambda s: s.shared)),
        Workload("serve_ycsb", "requests", _serve),
        Workload("crash_sweep", "crash points", _crash),
    )
}
