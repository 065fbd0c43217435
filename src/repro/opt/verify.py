"""The optimizer's verification layer: every removal justified, every
rewritten program re-checked.

The pass pipeline (:mod:`repro.opt.pipeline`) earns zero trust by
construction — its output is accepted only when three independent layers
of evidence agree:

1.  **The removal audit**, run by :func:`~repro.opt.pipeline.run_pipeline`
    as it applies each pass: every deleted op is re-justified against
    the thread the pass saw, with predicates independent of the pass
    code (:func:`~repro.opt.pipeline.removal_justified`).

2.  **Crash-checker equivalence** (:func:`verify_workload_cell`).  The
    optimized program runs through the same exhaustive crash-state
    explorer as the naive one (a :class:`repro.check.checker.CheckUnit`
    that carries the IR program) — same contract, golden, and
    structural oracles — and must be at least as consistent: optimization
    never turns a consistent program inconsistent (an input already
    violating the scheme's discipline is recorded, not blamed on the
    pipeline).  The final durable images of both programs — what a crash
    right after the last op would leave, battery-covered domains drained
    — must match byte-for-byte over the persistent region
    (:func:`final_image_fingerprint`) wherever the scheme's contract
    promises exact durability — epoch contracts legitimately leave
    different (all epoch-consistent) prefixes durable.  A regression is
    ddmin-minimized through the shared checker path into a replayable
    counterexample.

3.  **Litmus gating** (:func:`verify_litmus_cell` of one
    :func:`optimize_litmus`).  The optimized form of each litmus test is
    crash-swept exactly like the battery sweeps the naive form, and
    every observed durable state must lie inside the
    allowed set of the *original* test under the scheme's declared
    persistency model — elision may shrink the reachable set, never grow
    it.  A forbidden observation is ddmin-minimized over the *removal
    set* (which deletions, re-applied to the original, still break it),
    the exact shape an optimizer bug report needs.

Every workload cell — the checker cell here, the compare grid and the
smoke grid in :mod:`repro.opt.report` — starts from one
:func:`optimize_workload`: instrument the workload naively, run the
audited pipeline once, and fingerprint each program's final image from
one run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Tuple

from repro.check.explore import DurableImage, crash_writes
from repro.check.mutants import build_crash_system
from repro.check.schedule import CrashSchedule
from repro.core.registry import scheme_info
from repro.opt.ir import Program, instrument_naive
from repro.opt.passes import removed_positions
from repro.opt.pipeline import PipelineResult, run_pipeline

__all__ = [
    "OptimizedLitmus",
    "OptimizedWorkload",
    "final_image_fingerprint",
    "optimize_litmus",
    "optimize_workload",
    "verify_litmus_cell",
    "verify_optimized",
    "verify_workload_cell",
]

#: ddmin oracle-call budget for minimizing a forbidden removal set.
REMOVAL_MINIMIZE_BUDGET = 64


# ----------------------------------------------------------------------
# Workload cells
# ----------------------------------------------------------------------

def final_image_fingerprint(
    program: Program,
    scheme: str,
    entries: int = 8,
    config=None,
    seed_words=None,
) -> str:
    """SHA-256 over the persistent region of the durable image ``program``
    leaves when it runs to completion under ``scheme`` and the machine
    crashes right after: the media overlaid with the scheme's crash
    writes (:func:`~repro.check.explore.crash_writes`).  For schemes
    whose battery covers volatile structures (eADR and friends) the
    clean-run media alone is not the durable state the scheme
    guarantees.  One run.  Optimization must preserve this bit-for-bit
    where the contract promises exact durability: elision changes *when*
    data persists, never what the completed program persisted."""
    from repro.analysis.experiments import default_sim_config

    cfg = config or default_sim_config()
    system = build_crash_system(scheme, entries=entries, config=cfg,
                                seed_words=seed_words)
    system.run(program.to_trace())
    image = DurableImage(system.nvmm_media, crash_writes(system))
    h = hashlib.sha256()
    for baddr in sorted(image.written_blocks()):
        if not cfg.mem.is_persistent(baddr):
            continue
        h.update(baddr.to_bytes(8, "little"))
        h.update(image.peek_block(baddr).pairs())
    return h.hexdigest()


@dataclass(frozen=True)
class OptimizedWorkload:
    """One (workload x scheme) cell's shared steps: the naively
    instrumented program, its audited optimization, and the final
    durable image of each (:func:`optimize_workload`)."""

    name: str
    spec: Any                 # Optional[WorkloadSpec], as given
    config: Any               # the resolved SystemConfig
    entries: int
    workload: Any             # the built Workload (seeds, checker)
    naive: Program
    result: PipelineResult
    naive_image: str
    optimized_image: str

    @property
    def images_equal(self) -> bool:
        return self.naive_image == self.optimized_image

    @property
    def image_ok(self) -> bool:
        """Image equality gates only exact-durability contracts: an epoch
        contract legitimately leaves different (all epoch-consistent)
        prefixes durable with and without clwbs."""
        return (self.images_equal
                or not scheme_info(self.result.scheme).exact_durability)


def optimize_workload(
    workload: str,
    scheme: str,
    spec=None,
    config=None,
    entries: int = 8,
) -> OptimizedWorkload:
    """Instrument ``workload``'s program naively, run the default
    pipeline once under ``scheme`` (audited as it applies), and
    fingerprint each program's final durable image."""
    from repro.analysis.experiments import default_sim_config
    from repro.workloads.base import make_workload

    cfg = config or default_sim_config()
    wl = make_workload(workload, cfg.mem, spec)
    naive = instrument_naive(wl.build_program())
    result = run_pipeline(naive, scheme, block_size=cfg.block_size)
    images = [
        final_image_fingerprint(program, scheme, entries, cfg,
                                wl.initial_words)
        for program in (naive, result.optimized)
    ]
    return OptimizedWorkload(workload, spec, cfg, entries, wl, naive,
                             result, *images)


def verify_optimized(cell: OptimizedWorkload) -> Dict[str, Any]:
    """Verify one optimized workload cell end to end: the audit's
    violations, durable-image equality where the contract is exact, and
    an optimized crash exploration at least as consistent as the naive
    one.  Returns a JSON-able cell with ``ok``/``failures`` plus elision
    stats; a checker regression is ddmin-minimized into
    ``counterexample``."""
    from repro.check.checker import CheckUnit, explore
    from repro.check.minimize import minimize_counterexample

    result, naive = cell.result, cell.naive
    failures: List[str] = result.describe_violations()
    if not cell.image_ok:
        failures.append(
            f"final durable images differ: naive {cell.naive_image[:16]}… "
            f"vs optimized {cell.optimized_image[:16]}…"
        )

    base_unit = CheckUnit(
        scheme=result.scheme, workload=cell.name, spec=cell.spec,
        entries=cell.entries, config=cell.config,
        program=naive,
    )
    opt_unit = replace(base_unit, program=result.optimized)
    naive_verdicts, naive_total, _ = explore(base_unit)
    opt_verdicts, opt_total, _ = explore(opt_unit)
    naive_ok = all(v.consistent for v in naive_verdicts)
    opt_ok = all(v.consistent for v in opt_verdicts)
    counterexample = None
    # The gate is one-directional: optimization must never make a
    # consistent program inconsistent.  An input that is *already*
    # inconsistent under the scheme (e.g. pmem-style mid-epoch clwbs
    # break BEP's epoch atomicity) is the programmer's discipline
    # mismatch, not an optimizer regression — the cell records it.
    if naive_ok and not opt_ok:
        first = next(v for v in opt_verdicts if not v.consistent)
        failures.append(
            f"checker regression: naive program consistent at all "
            f"{naive_total} points, optimized inconsistent (first "
            f"violation: {first.violations[0]})"
        )
        cex = minimize_counterexample(opt_unit, first)
        counterexample = {
            "num_ops": cex.num_ops,
            "crash_point": cex.point,
            "site": cex.site,
            "violations": list(cex.violations),
        }

    return {
        "workload": cell.name,
        "scheme": result.scheme,
        "passes": list(result.passes),
        "ops_naive": naive.total_ops,
        "ops_optimized": result.optimized.total_ops,
        "elided": naive.total_ops - result.optimized.total_ops,
        "flush_fence_elision_pct": round(
            result.flush_fence_elision_pct, 2
        ),
        "checker_points": {"naive": naive_total, "optimized": opt_total},
        "naive_consistent": naive_ok,
        "optimized_consistent": opt_ok,
        "final_fingerprint": cell.optimized_image,
        "fingerprints_equal": cell.images_equal,
        "fingerprint_gated": scheme_info(result.scheme).exact_durability,
        "ok": not failures,
        "failures": failures,
        "counterexample": counterexample,
    }


def verify_workload_cell(
    workload: str,
    scheme: str,
    spec=None,
    config=None,
    entries: int = 8,
) -> Dict[str, Any]:
    """Verify one (workload x scheme) cell under the default pipeline:
    :func:`verify_optimized` of :func:`optimize_workload`."""
    return verify_optimized(
        optimize_workload(workload, scheme, spec, config, entries)
    )


# ----------------------------------------------------------------------
# Litmus gating
# ----------------------------------------------------------------------

def _sweep_states(trace, scheme: str, entries: int, config, test, addrs):
    """Crash-sweep ``trace`` exactly like the battery sweeps a cell;
    returns ``({state: first-seen provenance}, crash points)``."""
    from repro.litmus.runner import sweep_states

    schedule = CrashSchedule(stop_at=None)
    system = build_crash_system(scheme, entries=entries, config=config,
                                crash_schedule=schedule)
    return sweep_states(system, trace, test, addrs), schedule.visits


def _minimize_removals(
    program: Program,
    optimized: Program,
    test,
    addrs,
    allowed,
    scheme: str,
    entries: int,
    config,
    budget: int = REMOVAL_MINIMIZE_BUDGET,
) -> Dict[str, Any]:
    """ddmin over the *removal set*: the smallest subset of the pipeline's
    deletions that, applied alone to the original program, still drives a
    forbidden durable state.  Sound by construction — every candidate
    contains every original op except removals under test, and the
    allowed set of the original test stays the correct reference."""
    from repro.check.minimize import ddmin

    removals: List[Tuple[int, int]] = []  # (thread, position)
    for tid, ops in enumerate(program.threads):
        for pos in removed_positions(ops, optimized.threads[tid]):
            removals.append((tid, pos))

    def candidate(subset: List[Tuple[int, int]]) -> Program:
        drop = set(subset)
        return program.with_threads(tuple(
            tuple(op for pos, op in enumerate(ops)
                  if (tid, pos) not in drop)
            for tid, ops in enumerate(program.threads)
        ))

    def oracle(subset):
        if not subset:
            return None
        observed, _ = _sweep_states(
            candidate(subset).to_trace(), scheme, entries, config,
            test, addrs,
        )
        for state in sorted(observed):
            if state not in allowed:
                return (state, observed[state])
        return None

    minimal, (state, prov), tests_run = ddmin(removals, oracle, budget)
    return {
        "removals": [
            {"thread": tid, "position": pos,
             "op": program.threads[tid][pos].describe()}
            for tid, pos in minimal
        ],
        "forbidden_state": list(state),
        "stop_at": prov["stop_at"],
        "site": prov["site"],
        "tests_run": tests_run,
    }


@dataclass(frozen=True)
class OptimizedLitmus:
    """One (litmus test x scheme) cell's shared step: the test lowered to
    IR and its audited optimization (:func:`optimize_litmus`)."""

    test: Any                 # the LitmusTest
    config: Any               # the resolved SystemConfig
    program: Program          # the lowered (unoptimized) program
    addrs: Any                # location name -> address
    result: PipelineResult


def optimize_litmus(test, scheme: str, config=None) -> OptimizedLitmus:
    """Lower ``test`` to IR and run the default pipeline once under
    ``scheme`` (audited as it applies)."""
    from repro.analysis.experiments import default_sim_config
    from repro.litmus.dsl import lower_program

    cfg = config or default_sim_config()
    program, addrs = lower_program(test, cfg)
    result = run_pipeline(program, scheme, block_size=cfg.block_size)
    return OptimizedLitmus(test, cfg, program, addrs, result)


def verify_litmus_cell(cell: OptimizedLitmus,
                       entries: int = 8) -> Dict[str, Any]:
    """Verify one (litmus test x scheme) cell of :func:`optimize_litmus`:
    crash-sweep the optimized program and gate every observed durable
    state against the allowed set of the *original* test under the
    scheme's declared persistency model.  Elision may make allowed states
    unreachable; it must never expose a forbidden one.  Returns a
    JSON-able cell with the audit's violations; a forbidden observation
    is ddmin-minimized over the removal set."""
    from repro.litmus.models import allowed_states

    test, cfg, program, addrs, result = (
        cell.test, cell.config, cell.program, cell.addrs, cell.result)
    info = scheme_info(result.scheme)
    failures: List[str] = result.describe_violations()

    observed, points = _sweep_states(
        result.optimized.to_trace(), info.name, entries, cfg, test, addrs
    )
    declared = info.persistency_model
    allowed = allowed_states(test, declared)
    forbidden = sorted(s for s in observed if s not in allowed)
    for state in forbidden:
        failures.append(
            f"optimized {test.name!r} under {info.name!r} observed "
            f"{state}, forbidden by its declared {declared!r} model "
            f"(crash point {observed[state]['stop_at']}, site "
            f"{observed[state]['site']!r})"
        )
    counterexample = None
    if forbidden:
        counterexample = _minimize_removals(
            program, result.optimized, test, addrs, allowed,
            info.name, entries, cfg,
        )

    elided = program.total_ops - result.optimized.total_ops
    return {
        "test": test.name,
        "scheme": info.name,
        "declared_model": declared,
        "passes": list(result.passes),
        "ops_naive": program.total_ops,
        "ops_optimized": result.optimized.total_ops,
        "elided": elided,
        "points": points,
        "observed_states": len(observed),
        "forbidden": [list(s) for s in forbidden],
        "ok": not failures,
        "failures": failures,
        "counterexample": counterexample,
    }
