"""Performance benchmark: a fixed smoke suite with machine-readable output.

``repro bench`` times a small, fixed set of suites and writes a
``BENCH_<revision>.json`` next to the working directory, so the perf
trajectory of the simulator is measurable across commits: run it on two
revisions and compare ``ops_per_sec``.

Suites:

* ``engine_tso``       — single-process engine throughput (trace ops/sec)
                         over a fixed (workload x scheme) grid under TSO,
                         timing ``System.run`` only (trace build excluded).
                         Each cell carries its run fingerprint and the
                         closed-form estimate (:mod:`repro.analysis.
                         analytical`) with its relative errors against the
                         discrete result and the tolerance verdict.
* ``engine_relaxed``   — the same engine under relaxed consistency.
* ``trace_build``      — uncached workload trace generation for the full
                         Table IV suite.
* ``batch_fig7``       — end-to-end Fig. 7 driver on a reduced workload
                         set through the batch runner (includes fan-out /
                         result-collection overhead).
* ``traffic``          — request-driven serving through the streamed
                         engine (``repro traffic``): load generation, KV
                         lowering, and the reactor loop for the default
                         scheme trio; ``ops_per_sec`` is requests served
                         per wall second, and the measured latency curves
                         ride along in ``extra``.
* ``opt``              — the persist optimizer (:mod:`repro.opt`):
                         naive-instrumented vs pipeline-optimized rows per
                         (workload x scheme), carrying the elision
                         percentage and the cycle / NVMM-write / fence-
                         stall deltas; ``ops_per_sec`` covers the whole
                         instrument + optimize + audit + measure cycle.

All suites use fixed seeds and sizes; the numbers are comparable across
runs on the same machine.  ``run_smoke`` is the analytical tolerance check
on a tiny grid, cheap enough for CI.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.analytical import (
    TOLERANCE,
    analytical_estimate,
    validate_against_sim,
)
from repro.analysis.experiments import default_sim_config, fig7
from repro.core.registry import ADR, BBB, EADR
from repro.ioutil import atomic_write_json
from repro.api import build_system
from repro.sim.config import ConsistencyModel, SystemConfig
from repro.workloads.base import (
    WORKLOAD_NAMES,
    WorkloadSpec,
    build_cached,
    make_workload,
    seed_media_words,
)

#: Engine-suite grid: (workload, scheme, scheme kwargs).
ENGINE_GRID: Tuple[Tuple[str, str, Tuple[Tuple[str, int], ...]], ...] = (
    ("hashmap", BBB, (("entries", 32),)),
    ("hashmap", EADR, ()),
    ("mutateC", BBB, (("entries", 32),)),
    ("mutateC", EADR, ()),
    ("swapNC", BBB, (("entries", 32),)),
    ("swapNC", EADR, ()),
)

#: Workload size for the engine suites.
ENGINE_SPEC = WorkloadSpec(threads=8, ops=200, elements=16384, seed=42)

#: Reduced grid for the relaxed-consistency suite (slower per op).
RELAXED_GRID: Tuple[Tuple[str, str, Tuple[Tuple[str, int], ...]], ...] = (
    ("mutateNC", BBB, (("entries", 32),)),
    ("hashmap", BBB, (("entries", 32),)),
)

#: Workloads for the batch-driver suite.
BATCH_WORKLOADS: Tuple[str, ...] = ("hashmap", "mutateC", "swapNC")
BATCH_SPEC = WorkloadSpec(threads=8, ops=100, elements=8192, seed=42)

#: Traffic-suite shape: the default serving trio over a small load grid.
TRAFFIC_SCHEMES: Tuple[str, ...] = (BBB, EADR, ADR)
TRAFFIC_LOADS: Tuple[float, ...] = (1.0, 4.0)
TRAFFIC_REQUESTS = 120

#: Tiny grid for the CI smoke gate.
SMOKE_SPEC = WorkloadSpec(threads=4, ops=40, elements=2048, seed=11)


def repo_revision() -> str:
    """Short git revision of the working tree, or ``dev`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip() or "dev"
    except Exception:
        return "dev"


def fingerprint_run(result) -> str:
    """Stable digest of everything a run observably produced: the full
    stats payload plus the committed/performed persist-record streams.
    Two runs with equal fingerprints are bit-identical as far as any
    downstream consumer can tell."""
    blob = {
        "stats": result.stats.to_dict(),
        "committed": [tuple(r) for r in result.committed_persists],
        "performed": [tuple(r) for r in result.performed_persists],
    }
    return hashlib.sha256(
        json.dumps(blob, sort_keys=True).encode()
    ).hexdigest()


def _suite_result(wall_s: float, ops: int, extra: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "wall_s": round(wall_s, 4),
        "ops": ops,
        "ops_per_sec": round(ops / wall_s, 1) if wall_s > 0 else None,
    }
    if extra:
        result.update(extra)
    return result


def _timed_run(scheme, kwargs, config, trace, initial_words,
               repeats: int = 1):
    """Run the cell ``repeats`` times (fresh single-shot ``System`` each
    time) and report the fastest run."""
    best = None
    result = None
    for _ in range(max(1, repeats)):
        system = build_system(scheme, config=config, **dict(kwargs))
        seed_media_words(system.nvmm_media, initial_words)
        t0 = time.perf_counter()
        result = system.run(trace, finalize=False)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return result, best


def _analytical_cell(trace, scheme, kwargs, config, sim_stats
                     ) -> Dict[str, Any]:
    """The closed-form estimate of one grid cell against its discrete
    result: relative errors and the tolerance verdict."""
    t0 = time.perf_counter()
    est = analytical_estimate(
        trace, scheme, config,
        entries=dict(kwargs).get("entries"), finalize=False)
    est_dt = time.perf_counter() - t0
    verdict = validate_against_sim(est, sim_stats)
    return {
        "wall_s": round(est_dt, 4),
        "execution_cycles": est.stats.execution_cycles,
        "nvmm_writes": est.stats.nvmm_writes,
        "occupancy": round(est.occupancy, 2),
        "errors": {k: round(v, 4) for k, v in verdict["errors"].items()},
        "ok": verdict["ok"],
    }


def _run_engine_grid(
    grid, spec: WorkloadSpec, config: SystemConfig,
    analytical: bool = False,
    repeats: int = 1,
) -> Dict[str, Any]:
    """Time ``System.run`` (only) for each grid cell; one process, serial.

    ``repeats > 1`` reports each cell's best-of-N (less scheduler noise);
    the headline ``engine_tso`` suite uses it.  With ``analytical`` each
    cell also carries the closed-form estimate checked against the
    discrete result.
    """
    total_ops = 0
    total_s = 0.0
    per_run: List[Dict[str, Any]] = []
    analytical_ok = True
    for workload, scheme, kwargs in grid:
        trace, initial_words = build_cached(workload, config.mem, spec)
        n = trace.total_ops()
        result, dt = _timed_run(scheme, kwargs, config, trace,
                                initial_words, repeats=repeats)
        entry: Dict[str, Any] = {
            "workload": workload, "scheme": scheme,
            "wall_s": round(dt, 4),
            "ops_per_sec": round(n / dt, 1) if dt > 0 else None,
            "fingerprint": fingerprint_run(result),
        }
        if analytical:
            entry["analytical"] = _analytical_cell(
                trace, scheme, kwargs, config, result.stats)
            analytical_ok = analytical_ok and entry["analytical"]["ok"]
        total_ops += n
        total_s += dt
        # Full counter set in the shared repro.simstats/v1 schema, so
        # perf numbers are comparable only when the work matched.
        entry["stats"] = result.stats.to_dict()
        per_run.append(entry)
    extra: Dict[str, Any] = {"runs": per_run}
    if analytical:
        extra["analytical_ok"] = analytical_ok
        extra["tolerance"] = dict(TOLERANCE)
    return _suite_result(total_s, total_ops, extra)


def bench_engine_tso() -> Dict[str, Any]:
    return _run_engine_grid(
        ENGINE_GRID, ENGINE_SPEC, default_sim_config(),
        analytical=True, repeats=3,
    )


def bench_engine_relaxed() -> Dict[str, Any]:
    import dataclasses

    config = dataclasses.replace(
        default_sim_config(), consistency=ConsistencyModel.RELAXED
    )
    return _run_engine_grid(RELAXED_GRID, ENGINE_SPEC, config)


def bench_trace_build() -> Dict[str, Any]:
    """Uncached trace generation for the whole Table IV suite."""
    config = default_sim_config()
    total_ops = 0
    t0 = time.perf_counter()
    for name in WORKLOAD_NAMES:
        workload = make_workload(name, config.mem, ENGINE_SPEC)
        trace = workload.build()
        total_ops += trace.total_ops()
    return _suite_result(time.perf_counter() - t0, total_ops)


def bench_batch_fig7(jobs: Optional[int] = None) -> Dict[str, Any]:
    """End-to-end Fig. 7 driver through the batch runner (3 workloads x
    BBB-32/eADR), including fan-out and result collection."""
    config = default_sim_config()
    sim_ops = 0
    for name in BATCH_WORKLOADS:
        trace, _ = build_cached(name, config.mem, BATCH_SPEC)
        sim_ops += 2 * trace.total_ops()  # two schemes per workload
    t0 = time.perf_counter()
    fig7(
        spec=BATCH_SPEC,
        config=config,
        workloads=BATCH_WORKLOADS,
        entries_variants=(32,),
        jobs=jobs,
    )
    return _suite_result(time.perf_counter() - t0, sim_ops)


def bench_traffic() -> Dict[str, Any]:
    """Request-driven serving end-to-end (load generation + KV lowering +
    streamed engine) for the default scheme trio over a small load grid.
    ``ops`` counts completed requests, so ``ops_per_sec`` is the serving
    harness's request throughput; the measured curves ride along so a
    bench archive also records the latency trajectory."""
    from repro.serve import TrafficSpec, traffic_curve

    config = default_sim_config()
    spec = TrafficSpec(requests=TRAFFIC_REQUESTS, seed=42)
    t0 = time.perf_counter()
    report = traffic_curve(
        TRAFFIC_SCHEMES, spec, TRAFFIC_LOADS, config=config, entries=32,
    )
    wall = time.perf_counter() - t0
    completed = sum(point["completed"] for point in report["points"])
    return _suite_result(wall, completed, {
        "schema": report["schema"],
        "curves": report["curves"],
    })


#: Optimizer-suite shape: a small (workload x scheme) grid spanning the
#: contract classes (full battery domain / flush+fence buffering / none).
OPT_WORKLOADS: Tuple[str, ...] = ("hashmap", "ctree", "swapNC")
OPT_SCHEMES: Tuple[str, ...] = (BBB, EADR, ADR)
OPT_SPEC = WorkloadSpec(threads=2, ops=6, elements=128, seed=42)


def bench_opt() -> Dict[str, Any]:
    """Naive-instrumented vs persist-optimized through the full pipeline:
    each row instruments a workload's IR program, runs the pass pipeline,
    audits every removal, and measures both programs on the simulator.
    ``ops`` counts simulated trace ops across both variants, so
    ``ops_per_sec`` tracks the end-to-end optimize-and-verify cost; the
    per-row elision and cycle/NVMM/stall deltas ride along in ``extra``
    so a bench archive records the optimization payoff per scheme."""
    from repro.opt import compare_cell

    rows: List[Dict[str, Any]] = []
    total_ops = 0
    t0 = time.perf_counter()
    for scheme in OPT_SCHEMES:
        for workload in OPT_WORKLOADS:
            row = compare_cell(workload, scheme, OPT_SPEC, entries=8)
            total_ops += row["ops_naive"] + row["ops_optimized"]
            rows.append(row)
    wall = time.perf_counter() - t0
    return _suite_result(wall, total_ops, {
        "rows": rows,
        "all_verified": all(r["audit_ok"] and r["image_ok"] for r in rows),
    })


def run_bench(jobs: Optional[int] = None) -> Dict[str, Any]:
    """Run every suite and return the full report structure."""
    suites = {
        "engine_tso": bench_engine_tso(),
        "engine_relaxed": bench_engine_relaxed(),
        "trace_build": bench_trace_build(),
        "batch_fig7": bench_batch_fig7(jobs),
        "traffic": bench_traffic(),
        "opt": bench_opt(),
    }
    return {
        "revision": repo_revision(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "jobs": jobs,
        "suites": suites,
    }


def run_smoke() -> Dict[str, Any]:
    """CI gate: the analytical estimates of a tiny engine grid must sit
    inside the declared tolerance band of the discrete results.  Returns
    ``{"ok": bool, ...}``; no wall-clock figures are checked (those are
    meaningless on shared CI runners).
    """
    config = default_sim_config()
    cells: List[Dict[str, Any]] = []
    for workload, scheme, kwargs in ENGINE_GRID:
        trace, initial_words = build_cached(workload, config.mem, SMOKE_SPEC)
        result, _ = _timed_run(scheme, kwargs, config, trace, initial_words)
        cell = _analytical_cell(trace, scheme, kwargs, config, result.stats)
        cells.append({
            "workload": workload, "scheme": scheme,
            "analytical_ok": cell["ok"],
            "errors": cell["errors"],
        })
    return {"ok": all(c["analytical_ok"] for c in cells), "spec": "smoke",
            "cells": cells, "tolerance": dict(TOLERANCE)}


def write_bench(report: Dict[str, Any], out_path: Optional[str] = None) -> str:
    """Write the report as JSON (atomically: temp file + ``os.replace``, so
    an interrupted write never clobbers a previous good report); default
    filename ``BENCH_<rev>.json``."""
    path = out_path or f"BENCH_{report['revision']}.json"
    return atomic_write_json(path, report)
