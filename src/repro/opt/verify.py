"""The optimizer's verification layer: every removal justified, every
rewritten program re-checked.

The pass pipeline (:mod:`repro.opt.pipeline`) earns zero trust by
construction — its output is accepted only when three independent layers
of evidence agree:

1.  **The removal audit** (:func:`audit_pipeline`).  Passes are
    removal-only (:func:`repro.opt.passes.removed_positions` recovers the
    exact deleted positions), so every single deleted op can be
    re-justified against the *pre-pass* program with predicates
    implemented here, independently of the pass code: a deletion stands
    only if the op's kind is subsumed by the scheme's declared
    :attr:`~repro.core.registry.SchemeInfo.ordering_contract` or one of
    the redundancy predicates (:func:`flush_is_redundant`,
    :func:`fence_is_redundant`, :func:`store_is_coalescible`) confirms it
    was a no-op at its position.  Loads and computes are never
    justifiable.  This is the layer with teeth against a plausible-but-
    wrong pass: the shipped mutant ``opt-drop-epoch-fence`` deletes
    load-bearing sfences under pmem and epoch boundaries under bep, and
    the audit names each one by provenance.

2.  **Crash-checker equivalence** (:func:`verify_workload_cell`).  The
    optimized program runs through the same exhaustive crash-state
    explorer as the naive one (:class:`repro.check.checker.CheckUnit`
    with an embedded IR-program payload) — same contract, golden, and
    structural oracles — and must be at least as consistent: optimization
    never turns a consistent program inconsistent (an input already
    violating the scheme's discipline is recorded, not blamed on the
    pipeline).  The final durable images of both programs, taken at the
    final micro-step crash point so battery-covered domains are drained,
    must match byte-for-byte over the persistent region
    (:func:`final_image_fingerprint`) wherever the scheme's contract
    promises exact durability — epoch contracts legitimately leave
    different (all epoch-consistent) prefixes durable.  A regression is ddmin-minimized
    through the shared checker path into a replayable counterexample.

3.  **Litmus gating** (:func:`verify_litmus_cell`).  The optimized form
    of each litmus test is crash-swept exactly like the battery sweeps
    the naive form, and every observed durable state must lie inside the
    allowed set of the *original* test under the scheme's declared
    persistency model — elision may shrink the reachable set, never grow
    it.  A forbidden observation is ddmin-minimized over the *removal
    set* (which deletions, re-applied to the original, still break it),
    the exact shape an optimizer bug report needs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.check.mutants import build_crash_system
from repro.check.schedule import CrashSchedule
from repro.core.registry import (
    ORDERING_EPOCH,
    ORDERING_FENCE,
    ORDERING_FLUSH,
    scheme_info,
)
from repro.mem.block import block_address
from repro.opt.ir import Op, Program, instrument_naive
from repro.opt.passes import PassContext, pass_info, removed_positions
from repro.opt.pipeline import DEFAULT_PIPELINE, run_pipeline
from repro.sim.trace import OpKind

__all__ = [
    "AuditResult",
    "audit_pipeline",
    "fence_is_redundant",
    "final_image_fingerprint",
    "flush_is_redundant",
    "removal_justified",
    "store_is_coalescible",
    "verify_litmus_cell",
    "verify_workload_cell",
]

#: ddmin oracle-call budget for minimizing a forbidden removal set.
REMOVAL_MINIMIZE_BUDGET = 64


# ----------------------------------------------------------------------
# Independent redundancy predicates
# ----------------------------------------------------------------------
#
# These deliberately re-derive, from first principles and separately from
# the pass implementations, whether an op could have had any effect at
# its position.  A pass and its predicate agreeing is evidence; a pass
# citing its own reasoning would be circular.

def flush_is_redundant(
    ops: Sequence[Op], i: int, block_size: int = 64
) -> bool:
    """A clwb at ``i`` is redundant iff this thread has not stored to its
    line since the line's previous clwb (or ever): walking back, a store
    to the same block means the flush has work to do; another flush of
    the same block — or the start of the thread — means it does not."""
    line = block_address(ops[i].addr, block_size)
    for j in range(i - 1, -1, -1):
        op = ops[j]
        if op.kind is OpKind.STORE and block_address(
            op.addr, block_size
        ) == line:
            return False
        if op.kind is OpKind.FLUSH and block_address(
            op.addr, block_size
        ) == line:
            return True
    return True


def fence_is_redundant(ops: Sequence[Op], i: int) -> bool:
    """An sfence at ``i`` is redundant iff this thread has no clwb
    outstanding since its previous sfence: walking back, a flush means the
    fence orders it; another fence — or the start — means nothing is
    outstanding."""
    for j in range(i - 1, -1, -1):
        kind = ops[j].kind
        if kind is OpKind.FLUSH:
            return False
        if kind is OpKind.FENCE:
            return True
    return True


def store_is_coalescible(ops: Sequence[Op], i: int) -> bool:
    """A store at ``i`` may be dropped iff the *immediately next* op is a
    store to the same address, size, and durability — the pair coalesces
    into one persist with no op between them that could expose the
    intermediate value.  Non-adjacent overwrites are never coalescible:
    an intervening op can be an ordering point the persistency model
    exposes."""
    if i + 1 >= len(ops):
        return False
    op, nxt = ops[i], ops[i + 1]
    return (
        nxt.kind is OpKind.STORE
        and nxt.addr == op.addr
        and nxt.size == op.size
        and nxt.durable == op.durable
    )


#: OpKind -> the ordering-contract kind whose subsumption justifies
#: removing it outright.
_CONTRACT_KIND = {
    OpKind.FLUSH: ORDERING_FLUSH,
    OpKind.FENCE: ORDERING_FENCE,
    OpKind.EPOCH: ORDERING_EPOCH,
}

#: OpKind -> the positional redundancy predicate that can justify a
#: removal when the contract does not.
_REDUNDANCY = {
    OpKind.FLUSH: lambda ops, i, bs: flush_is_redundant(ops, i, bs),
    OpKind.FENCE: lambda ops, i, bs: fence_is_redundant(ops, i),
    OpKind.STORE: lambda ops, i, bs: store_is_coalescible(ops, i),
}


def removal_justified(
    ops: Sequence[Op], i: int, ctx: PassContext
) -> Tuple[bool, str]:
    """Judge one removal against the pre-pass thread ``ops``.  Returns
    ``(justified, why)`` — ``why`` names the accepting rule or the
    objection."""
    op = ops[i]
    contract_kind = _CONTRACT_KIND.get(op.kind)
    if contract_kind is not None and ctx.scheme.subsumes_ordering(
        contract_kind
    ):
        return True, (
            f"scheme {ctx.scheme.name!r} ordering contract subsumes "
            f"{contract_kind}"
        )
    predicate = _REDUNDANCY.get(op.kind)
    if predicate is not None and predicate(ops, i, ctx.block_size):
        if op.kind is OpKind.STORE:
            return True, "coalesces into the adjacent same-address store"
        return True, "redundant at its position"
    if op.kind in (OpKind.LOAD, OpKind.COMPUTE):
        return False, f"a {op.kind.value} op is never removable"
    return False, (
        f"not subsumed by scheme {ctx.scheme.name!r}'s ordering contract "
        f"{ctx.scheme.ordering_contract!r} and not redundant at its "
        f"position"
    )


# ----------------------------------------------------------------------
# The removal audit
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AuditResult:
    """Stepwise re-application of a pipeline with every removal judged."""

    scheme: str
    program: Program
    optimized: Program
    passes: Tuple[str, ...]
    #: ``(pass, thread, position, op description, objection)`` rows for
    #: every removal no independent rule justified.  Empty == sound.
    violations: Tuple[Tuple[str, int, int, str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe_violations(self) -> List[str]:
        return [
            f"pass {name!r}: thread {tid} op {pos}: removed "
            f"[{desc}] — {why}"
            for name, tid, pos, desc, why in self.violations
        ]


def audit_pipeline(
    program: Program,
    scheme: str,
    passes: Optional[Sequence[str]] = None,
    block_size: int = 64,
) -> AuditResult:
    """Re-apply ``passes`` step by step, judging every removal against the
    program each pass actually saw (see module docstring, layer 1)."""
    info = scheme_info(scheme)
    ctx = PassContext(scheme=info, block_size=block_size)
    names = tuple(passes if passes is not None else DEFAULT_PIPELINE)
    current = program
    violations: List[Tuple[str, int, int, str, str]] = []
    for name in names:
        fn = pass_info(name).fn
        threads = []
        for tid, ops in enumerate(current.threads):
            out = tuple(fn(ops, ctx))
            for pos in removed_positions(ops, out):
                ok, why = removal_justified(ops, pos, ctx)
                if not ok:
                    violations.append(
                        (name, tid, pos, ops[pos].describe(), why)
                    )
            threads.append(out)
        current = current.with_threads(tuple(threads))
    return AuditResult(
        scheme=info.name, program=program, optimized=current,
        passes=names, violations=tuple(violations),
    )


# ----------------------------------------------------------------------
# Dynamic oracles
# ----------------------------------------------------------------------

def final_image_fingerprint(
    media, is_persistent: Callable[[int], bool]
) -> str:
    """SHA-256 over the persistent region's written blocks — the durable
    image a crash-free run leaves.  Optimization must preserve this
    bit-for-bit: elision changes *when* data persists, never what the
    completed program persisted."""
    h = hashlib.sha256()
    for baddr in sorted(media.written_blocks()):
        if not is_persistent(baddr):
            continue
        h.update(baddr.to_bytes(8, "little"))
        h.update(media.peek_block(baddr).pairs())
    return h.hexdigest()


def _run_to_completion(program: Program, scheme: str, entries, config,
                       seed_words=None) -> str:
    """Run ``program`` to its *final micro-step crash point* (firing after
    the last op) and fingerprint the durable image.

    The crash-point route matters: for schemes whose battery covers
    volatile structures (eADR and friends) a clean run's media image is
    not the durable state — the final point's ``crash_drain`` is what
    flushes the covered domain, yielding the full-store image the scheme
    actually guarantees.  It takes two runs: the first counts the visits,
    because the final index must be known before a run can crash there."""
    trace = program.to_trace()

    def crashed_system(schedule):
        return build_crash_system(scheme, entries=entries, config=config,
                                  crash_schedule=schedule,
                                  seed_words=seed_words)

    counting = CrashSchedule(stop_at=None)
    counting_system = crashed_system(counting)
    counting_system.run(trace)
    if counting.visits == 0:
        # A fully-elided program retires no ops, so no crash point ever
        # fires; with nothing in flight the clean-run media already is
        # the durable image.
        return final_image_fingerprint(
            counting_system.nvmm_media, config.mem.is_persistent
        )
    system = crashed_system(CrashSchedule(stop_at=counting.visits))
    system.run(trace)
    return final_image_fingerprint(
        system.nvmm_media, config.mem.is_persistent
    )


def verify_workload_cell(
    workload: str,
    scheme: str,
    spec=None,
    config=None,
    entries: int = 8,
    passes: Optional[Sequence[str]] = None,
    max_points: Optional[int] = None,
    sample_seed: int = 0,
    minimize: bool = True,
) -> Dict[str, Any]:
    """Verify one (workload x scheme x pipeline) cell end to end.

    Instruments the workload's program naively, runs the pipeline, audits
    every removal, and then demands dynamic equivalence: identical
    crash-free final durable images and an optimized crash exploration
    exactly as consistent as the naive one.  Returns a JSON-able cell
    with ``ok``/``failures`` plus elision stats; a checker regression is
    ddmin-minimized into ``counterexample``.
    """
    from repro.analysis.experiments import default_sim_config
    from repro.check.checker import CheckUnit, explore
    from repro.workloads.base import make_workload

    cfg = config or default_sim_config()
    info = scheme_info(scheme)
    wl = make_workload(workload, cfg.mem, spec)
    naive = instrument_naive(wl.build_program())
    result = run_pipeline(naive, scheme, passes=passes,
                          block_size=cfg.block_size)
    audit = audit_pipeline(naive, scheme, passes=passes,
                           block_size=cfg.block_size)
    failures: List[str] = audit.describe_violations()

    fp_naive = _run_to_completion(naive, scheme, entries, cfg,
                                  wl.initial_words)
    fp_opt = _run_to_completion(result.optimized, scheme, entries, cfg,
                                wl.initial_words)
    # Image equality is an oracle only where the scheme's contract
    # promises byte-exact durability — mirroring the checker's golden
    # differential.  An epoch contract legitimately leaves different
    # (all epoch-consistent) prefixes durable with and without clwbs;
    # there the epoch oracle in the exploration below is the gate.
    if info.exact_durability and fp_naive != fp_opt:
        failures.append(
            f"final durable images differ: naive {fp_naive[:16]}… vs "
            f"optimized {fp_opt[:16]}…"
        )

    base_unit = CheckUnit(
        scheme=scheme, workload=workload, spec=spec, entries=entries,
        config=config, max_points=max_points, sample_seed=sample_seed,
        program=naive.to_payload(),
    )
    opt_unit = replace(base_unit, program=result.optimized.to_payload())
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
        if minimize:
            from repro.check.minimize import minimize_counterexample

            cex = minimize_counterexample(opt_unit, first)
            counterexample = {
                "num_ops": cex.num_ops,
                "crash_point": cex.point,
                "site": cex.site,
                "violations": list(cex.violations),
            }

    elided = naive.total_ops - result.optimized.total_ops
    return {
        "workload": workload,
        "scheme": result.scheme,
        "passes": list(audit.passes),
        "ops_naive": naive.total_ops,
        "ops_optimized": result.optimized.total_ops,
        "elided": elided,
        "flush_fence_elision_pct": round(
            result.flush_fence_elision_pct, 2
        ),
        "checker_points": {"naive": naive_total, "optimized": opt_total},
        "naive_consistent": naive_ok,
        "optimized_consistent": opt_ok,
        "final_fingerprint": fp_opt,
        "fingerprints_equal": fp_naive == fp_opt,
        "fingerprint_gated": info.exact_durability,
        "ok": not failures,
        "failures": failures,
        "counterexample": counterexample,
    }


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


def verify_litmus_cell(
    test,
    scheme: str,
    config=None,
    entries: int = 8,
    passes: Optional[Sequence[str]] = None,
    minimize: bool = True,
) -> Dict[str, Any]:
    """Verify one (litmus test x scheme x pipeline) cell: lower to IR,
    optimize, audit every removal, crash-sweep the optimized program, and
    gate every observed durable state against the allowed set of the
    *original* test under the scheme's declared persistency model.
    Elision may make allowed states unreachable; it must never expose a
    forbidden one.  Returns a JSON-able cell; a forbidden observation is
    ddmin-minimized over the removal set."""
    from repro.analysis.experiments import default_sim_config
    from repro.litmus.dsl import lower_program
    from repro.litmus.models import allowed_states

    cfg = config or default_sim_config()
    info = scheme_info(scheme)
    program, addrs = lower_program(test, cfg)
    result = run_pipeline(program, scheme, passes=passes,
                          block_size=cfg.block_size)
    audit = audit_pipeline(program, scheme, passes=passes,
                           block_size=cfg.block_size)
    failures: List[str] = audit.describe_violations()

    observed, points = _sweep_states(
        result.optimized.to_trace(), scheme, entries, cfg, test, addrs
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
    if forbidden and minimize:
        counterexample = _minimize_removals(
            program, result.optimized, test, addrs, allowed,
            info.name, entries, cfg,
        )

    elided = program.total_ops - result.optimized.total_ops
    return {
        "test": test.name,
        "scheme": info.name,
        "declared_model": declared,
        "passes": list(audit.passes),
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
