"""Optimizer reporting: the fig7-style naive-vs-optimized grid, the CI
smoke gate, and replayable ``repro.optreport/v1`` artifacts.

:func:`opt_compare` quantifies the paper's simplification claim as a
performance claim: for every (workload x scheme) cell it measures the
naively instrumented program (clwb+sfence after every persisting store —
the pmem/ADR discipline) against the pipeline-optimized one, on the same
simulator, and reports the cycle / NVMM-write / flush-fence-stall deltas
alongside the elision percentage.  On battery-backed schemes the pipeline
removes effectively all instrumentation and the stall delta is the
price ADR-era software pays for durability the hardware already
provides; on pmem the pipeline removes nothing and the deltas are ~0 —
the instrumentation is load-bearing there, which is exactly what the
ordering contract declares.

:func:`smoke_opt` is the CI gate: the full 7-workload x builtin-scheme
elision grid (audited, final images compared), a checker-clean
exploration sweep per scheme, the litmus smoke subset re-gated on every
cell the pipeline actually changed, and the ``opt-drop-epoch-fence``
mutant, which the removal audit must catch under every scheme whose
contract does not subsume both fences and epochs.

Reports are atomic, versioned JSON; ``repro opt --replay`` re-validates
an artifact's envelope (:func:`repro.ioutil.load_versioned_json`) and
re-executes its compare rows, checking elision and durable-image
equality reproduce.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Any, Dict, List, Optional, Sequence

from repro.opt.ir import Op, Program
from repro.opt.passes import MUTANT_PIPELINE
from repro.opt.pipeline import run_pipeline
from repro.opt.verify import (
    OptimizedWorkload,
    optimize_litmus,
    optimize_workload,
    verify_litmus_cell,
    verify_optimized,
)
from repro.sim.trace import OpKind

__all__ = [
    "OPT_SCHEMA",
    "compare_cell",
    "opt_compare",
    "render_compare_table",
    "replay_report",
    "smoke_opt",
]

#: Versioned schema identifier of optimizer reports and artifacts.
OPT_SCHEMA = "repro.optreport/v1"

#: Elision-percentage gates for the smoke grid: schemes whose contract
#: subsumes flushes+fences must shed at least this much of the naive
#: instrumentation; schemes that keep it must shed at most this much.
SMOKE_MIN_ELISION = 50.0
SMOKE_MAX_RESIDUAL_ELISION = 5.0

#: The smoke grid's workload whose cells the checker sweep explores.
SMOKE_CHECKER_WORKLOAD = "hashmap"


def _pct_delta(naive: float, optimized: float) -> float:
    if not naive:
        return 0.0
    return 100.0 * (optimized - naive) / naive


# ----------------------------------------------------------------------
# The compare grid (fig7-style)
# ----------------------------------------------------------------------

def compare_cell(
    workload: str, scheme: str, spec=None, entries: int = 8
) -> Dict[str, Any]:
    """One naive-vs-optimized measurement cell.  Module-level and
    picklable so the grid fans out through the batch runner."""
    from repro.analysis.experiments import run_workload
    from repro.api import build_system

    cell = optimize_workload(workload, scheme, spec, entries=entries)
    cfg, result = cell.config, cell.result

    def factory():
        return build_system(scheme, entries=entries, config=cfg)

    runs = {}
    for label, program in (("naive", cell.naive),
                           ("optimized", result.optimized)):
        runs[label] = run_workload(
            workload, factory, spec, cfg, trace=program.to_trace(),
            initial_words=cell.workload.initial_words,
        )

    def stall(run) -> int:
        return sum(int(core["stall_cycles_flush_fence"])
                   for core in run.stats["cores"])

    naive_run, opt_run = runs["naive"], runs["optimized"]
    return {
        "workload": workload,
        "scheme": result.scheme,
        "ops_naive": cell.naive.total_ops,
        "ops_optimized": result.optimized.total_ops,
        "flush_fence_elision_pct": round(
            result.flush_fence_elision_pct, 2
        ),
        "cycles_naive": naive_run.execution_cycles,
        "cycles_optimized": opt_run.execution_cycles,
        "cycles_delta_pct": round(_pct_delta(
            naive_run.execution_cycles, opt_run.execution_cycles
        ), 2),
        "nvmm_writes_naive": naive_run.nvmm_writes,
        "nvmm_writes_optimized": opt_run.nvmm_writes,
        "nvmm_writes_delta_pct": round(_pct_delta(
            naive_run.nvmm_writes, opt_run.nvmm_writes
        ), 2),
        "stall_cycles_naive": stall(naive_run),
        "stall_cycles_optimized": stall(opt_run),
        "audit_ok": result.ok,
        "audit_violations": result.describe_violations(),
        "fingerprints_equal": cell.images_equal,
        "image_ok": cell.image_ok,
    }


def opt_compare(
    workloads: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
    spec=None,
    entries: int = 8,
    jobs: Optional[int] = None,
    progress=None,
) -> Dict[str, Any]:
    """The full naive-vs-optimized grid as a ``repro.optreport/v1``
    report: ``workloads`` (default: all seven) x ``schemes`` (default:
    every registered scheme), fanned out over ``jobs`` worker processes
    by :func:`~repro.analysis.batch.run_tasks`.  Plugin schemes
    registered only in this process need ``jobs=1``."""
    from repro.analysis.batch import run_tasks
    from repro.core.registry import iter_schemes
    from repro.workloads.base import WORKLOAD_NAMES

    workload_list = list(workloads) if workloads else list(WORKLOAD_NAMES)
    scheme_list = (list(schemes) if schemes
                   else [info.name for info in iter_schemes()])
    tasks = [
        (compare_cell, (w, s, spec, entries), {})
        for s in scheme_list
        for w in workload_list
    ]
    rows = run_tasks(tasks, jobs=jobs, progress=progress)

    by_scheme: Dict[str, Dict[str, Any]] = {}
    for scheme in scheme_list:
        cells = [r for r in rows if r["scheme"] == scheme]
        if not cells:
            continue
        by_scheme[scheme] = {
            "mean_elision_pct": round(
                sum(c["flush_fence_elision_pct"] for c in cells)
                / len(cells), 2
            ),
            "mean_cycles_delta_pct": round(
                sum(c["cycles_delta_pct"] for c in cells) / len(cells), 2
            ),
            "stall_cycles_naive": sum(
                c["stall_cycles_naive"] for c in cells
            ),
            "stall_cycles_optimized": sum(
                c["stall_cycles_optimized"] for c in cells
            ),
            "all_audits_ok": all(c["audit_ok"] for c in cells),
            "all_images_ok": all(c["image_ok"] for c in cells),
        }
    return {
        "schema": OPT_SCHEMA,
        "kind": "compare",
        "workloads": workload_list,
        "schemes": scheme_list,
        "spec": list(astuple(spec)) if spec is not None else None,
        "entries": entries,
        "rows": rows,
        "by_scheme": by_scheme,
    }


def render_compare_table(report: Dict[str, Any]) -> str:
    """ASCII view of a compare report: one row per (workload, scheme)."""
    from repro.analysis.tables import render_table

    rows = [
        (
            r["workload"], r["scheme"],
            f"{r['flush_fence_elision_pct']:.1f}%",
            r["cycles_naive"], r["cycles_optimized"],
            f"{r['cycles_delta_pct']:+.1f}%",
            r["nvmm_writes_naive"], r["nvmm_writes_optimized"],
            r["stall_cycles_naive"], r["stall_cycles_optimized"],
            "ok" if r["audit_ok"] and r["image_ok"] else "FAIL",
        )
        for r in report["rows"]
    ]
    return render_table(
        ["workload", "scheme", "elided", "cyc naive", "cyc opt",
         "cyc Δ", "nvmm naive", "nvmm opt", "stall naive", "stall opt",
         "verified"],
        rows,
        title="naive instrumentation vs persist-optimized (per scheme)",
    )


# ----------------------------------------------------------------------
# Artifacts: replay
# ----------------------------------------------------------------------

#: Field types of a compare artifact and of each of its rows.
_ARTIFACT_TYPES = {"entries": int, "rows": list}
_ROW_TYPES = {
    "workload": str, "scheme": str, "flush_fence_elision_pct": (int, float),
    "ops_optimized": int, "audit_ok": bool, "image_ok": bool,
}


def replay_report(path: str) -> Dict[str, Any]:
    """Re-execute a compare artifact: validate it (schema version, kind,
    payload fields and their types — raises
    :class:`repro.ioutil.ArtifactError` on a truncated, mismatched or
    malformed file before running anything), re-run every cell, and check
    elision, audit, and durable-image equality reproduce.  Returns
    ``{"reproduced", "mismatches", "artifact"}``."""
    from repro.ioutil import load_versioned_json, require_types
    from repro.workloads.base import WorkloadSpec

    artifact = load_versioned_json(path, OPT_SCHEMA, kind="compare")
    require_types(path, artifact, _ARTIFACT_TYPES)
    for i, row in enumerate(artifact["rows"]):
        require_types(path, row, _ROW_TYPES, where=f"rows[{i}]")
    spec = (WorkloadSpec(*artifact["spec"])
            if artifact.get("spec") is not None else None)
    mismatches: List[str] = []
    for row in artifact["rows"]:
        fresh = compare_cell(
            row["workload"], row["scheme"], spec, artifact["entries"]
        )
        for key in ("flush_fence_elision_pct", "ops_optimized",
                    "audit_ok", "image_ok"):
            if fresh[key] != row[key]:
                mismatches.append(
                    f"{row['workload']} x {row['scheme']}: {key} was "
                    f"{row[key]!r}, replayed as {fresh[key]!r}"
                )
    return {
        "reproduced": not mismatches,
        "mismatches": mismatches,
        "artifact": artifact,
    }


# ----------------------------------------------------------------------
# The CI smoke gate
# ----------------------------------------------------------------------

def _smoke_spec():
    from repro.workloads.base import WorkloadSpec

    return WorkloadSpec(threads=2, ops=6, elements=128, seed=11)


def _mutant_probe_program() -> Program:
    """A tiny synthetic program exercising every removable kind, so the
    mutant audit has both a load-bearing sfence (preceded by a clwb) and
    epoch boundaries to judge."""
    from repro.analysis.experiments import default_sim_config

    base = default_sim_config().mem.persistent_base
    ops = []
    for i in range(2):
        addr = base + 64 * (i + 1)
        ops.extend([
            Op(OpKind.STORE, addr=addr, value=i + 1,
               origin="mutant-probe", durable=True),
            Op(OpKind.FLUSH, addr=addr, origin="mutant-probe",
               durable=True),
            Op(OpKind.FENCE, origin="mutant-probe"),
            Op(OpKind.EPOCH, origin="mutant-probe"),
        ])
    return Program(threads=(tuple(ops),), name="mutant-probe")


def smoke_opt() -> Dict[str, Any]:
    """The CI gate (see module docstring).  Returns ``{"ok", "failures",
    "grid", "checker_cells", "litmus_cells", "mutant"}``; ``ok`` is False
    on any audit violation, elision outside its scheme-class gate, image
    divergence, checker regression, litmus regression, or an uncaught
    mutant."""
    from repro.analysis.experiments import default_sim_config
    from repro.core.registry import (
        ORDERING_EPOCH,
        ORDERING_FENCE,
        ORDERING_FLUSH,
        iter_schemes,
        scheme_info,
    )
    from repro.litmus.corpus import smoke_corpus
    from repro.workloads.base import WORKLOAD_NAMES

    spec = _smoke_spec()
    cfg = default_sim_config()
    schemes = [info.name for info in iter_schemes()]
    failures: List[str] = []

    # 1. The elision grid: every workload x every scheme, audited, final
    #    images compared, elision gated per scheme class.
    grid: List[Dict[str, Any]] = []
    checked: Dict[str, OptimizedWorkload] = {}  # scheme -> step 2's cell
    for scheme in schemes:
        info = scheme_info(scheme)
        subsumes_all = (info.subsumes_ordering(ORDERING_FLUSH)
                        and info.subsumes_ordering(ORDERING_FENCE))
        for workload in WORKLOAD_NAMES:
            cell = optimize_workload(workload, scheme, spec, cfg)
            if workload == SMOKE_CHECKER_WORKLOAD:
                checked[scheme] = cell
            result = cell.result
            pct = result.flush_fence_elision_pct
            grid.append({
                "workload": workload, "scheme": scheme,
                "flush_fence_elision_pct": round(pct, 2),
                "audit_ok": result.ok,
                "fingerprints_equal": cell.images_equal,
                "image_ok": cell.image_ok,
            })
            tag = f"{workload} x {scheme}"
            if not result.ok:
                failures.append(
                    f"{tag}: {result.describe_violations()[0]}"
                )
            if not cell.image_ok:
                failures.append(f"{tag}: final durable images differ")
            if subsumes_all and pct < SMOKE_MIN_ELISION:
                failures.append(
                    f"{tag}: contract subsumes flush+fence but only "
                    f"{pct:.1f}% of the instrumentation was elided"
                )
            if not subsumes_all and pct > SMOKE_MAX_RESIDUAL_ELISION:
                failures.append(
                    f"{tag}: contract keeps flush/fence yet {pct:.1f}% "
                    f"was elided — a pass is over-reaching"
                )

    # 2. Checker-clean sweep: one workload explored exhaustively per
    #    scheme, naive vs optimized, same oracles — step 1's cell.
    checker_cells: List[Dict[str, Any]] = []
    for scheme in schemes:
        cell = verify_optimized(checked[scheme])
        checker_cells.append(cell)
        failures.extend(
            f"checker {cell['workload']} x {scheme}: {msg}"
            for msg in cell["failures"]
        )

    # 3. Litmus smoke subset, re-gated wherever the pipeline changed the
    #    program (unchanged cells are already covered by the battery).
    litmus_cells: List[Dict[str, Any]] = []
    for scheme in schemes:
        for test in smoke_corpus():
            optimized = optimize_litmus(test, scheme, cfg)
            if (optimized.result.optimized.total_ops
                    == optimized.program.total_ops):
                continue
            cell = verify_litmus_cell(optimized)
            litmus_cells.append(cell)
            failures.extend(
                f"litmus {test.name} x {scheme}: {msg}"
                for msg in cell["failures"]
            )

    # 4. The mutant: the removal audit must flag opt-drop-epoch-fence
    #    under every scheme whose contract does not subsume both fences
    #    and epochs, and must accept it where the contract does (on bbb
    #    the mutant is accidentally sound).
    probe = _mutant_probe_program()
    mutant: Dict[str, Any] = {"pass": MUTANT_PIPELINE[0], "caught": {}}
    for scheme in schemes:
        info = scheme_info(scheme)
        result = run_pipeline(probe, scheme, passes=MUTANT_PIPELINE)
        expected_caught = not (
            info.subsumes_ordering(ORDERING_FENCE)
            and info.subsumes_ordering(ORDERING_EPOCH)
        )
        mutant["caught"][scheme] = not result.ok
        if expected_caught and result.ok:
            failures.append(
                f"mutant {MUTANT_PIPELINE[0]!r} not caught under "
                f"{scheme!r} — the removal audit has lost its teeth"
            )
        if not expected_caught and not result.ok:
            failures.append(
                f"mutant {MUTANT_PIPELINE[0]!r} flagged under {scheme!r} "
                f"whose contract subsumes fences and epochs: "
                f"{result.describe_violations()[0]}"
            )
    if not any(mutant["caught"].values()):
        failures.append(
            f"mutant {MUTANT_PIPELINE[0]!r} caught under no scheme"
        )

    return {
        "schema": OPT_SCHEMA,
        "kind": "smoke",
        "ok": not failures,
        "failures": failures,
        "grid": grid,
        "checker_cells": checker_cells,
        "litmus_cells": litmus_cells,
        "mutant": mutant,
    }
