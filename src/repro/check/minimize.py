"""Counterexample minimization and replayable crash-check artifacts.

When the model checker finds a crash point that violates a scheme's
contract, the raw failing trace is usually hundreds of operations — far
too large to debug.  :func:`minimize_counterexample` runs ddmin [Zeller &
Hildebrandt 2002] over the trace's operations (flattened to ``(thread,
op)`` pairs so per-thread program order is preserved and the thread count
stays constant) with the oracle "does *any* micro-step crash point of the
reduced trace violate the contract or the golden differential?".

The workload's structural invariant checker is deliberately **excluded**
from the minimization oracle: removing operations breaks the workload's
semantics, so structural checks would fail on perfectly durable images
and steer ddmin toward repros that do not exhibit the actual bug.  The
contract and golden oracles are defined for *any* trace — they compare
the durable image against what the sub-run itself claimed to persist.

The result is written as a ``repro.crashcheck/v1`` artifact (kind
``counterexample``) that :func:`replay_artifact` — and ``repro check
--replay`` — can re-execute deterministically: rebuild the system, seed
the recorded words, run the recorded ops, crash at the recorded point,
re-check, and report whether the violation reproduces.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, TypeVar)

from repro.check.checker import (
    CHECK_SCHEMA,
    CheckUnit,
    PointVerdict,
    _UnitContext,
    durability_violations,
)
from repro.check.explore import sweep
from repro.check.mutants import build_crash_system
from repro.check.schedule import CrashSchedule
from repro.core.recovery import claimed_persists
from repro.ioutil import atomic_write_json
from repro.sim.trace import OpKind, ProgramTrace, ThreadTrace, TraceOp

#: Oracle invocations allowed per minimization (each is an exhaustive
#: micro-step scan of the reduced trace, so the budget bounds total work).
DEFAULT_TEST_BUDGET = 256

T = TypeVar("T")

#: One (thread id, operation) element of a flattened trace.
FlatOp = Tuple[int, TraceOp]


@dataclass
class Counterexample:
    """A minimized failing trace plus where it crashes."""

    unit: CheckUnit
    ops: List[FlatOp]
    num_threads: int
    point: int              # 1-based micro-step visit within the minimized trace
    site: str
    violations: Tuple[str, ...]
    tests_run: int
    seed_words: Dict[int, int]

    @property
    def num_ops(self) -> int:
        return len(self.ops)


def interleave(programs: Sequence[Sequence[T]]) -> List[Tuple[int, T]]:
    """Flatten per-thread programs to ``(thread, item)`` pairs, round-robin
    across threads, so a ddmin chunk removes a contiguous window of
    *interleaved* execution."""
    longest = max((len(p) for p in programs), default=0)
    return [(tid, program[i]) for i in range(longest)
            for tid, program in enumerate(programs) if i < len(program)]


def deinterleave(items: Iterable[Tuple[int, T]], num_threads: int
                 ) -> List[List[T]]:
    """Inverse of :func:`interleave` for a (possibly reduced) subset:
    per-thread order is preserved and the thread count is kept constant
    (empty threads are legal)."""
    per: List[List[T]] = [[] for _ in range(num_threads)]
    for tid, item in items:
        per[tid].append(item)
    return per


def flatten_trace(trace: ProgramTrace) -> List[FlatOp]:
    """:func:`interleave` of a trace's threads."""
    return interleave([thread.ops for thread in trace.threads])


def rebuild_trace(ops: Sequence[FlatOp], num_threads: int) -> ProgramTrace:
    """:func:`deinterleave` back into a trace of ``num_threads`` threads."""
    return ProgramTrace([ThreadTrace(t)
                         for t in deinterleave(ops, num_threads)])


def first_failing_point(
    unit: CheckUnit, config, seed_words, trace: ProgramTrace
) -> Optional[Tuple[int, str, Tuple[str, ...]]]:
    """Exhaustive micro-step scan of ``trace`` in one sweep, stopping at
    the first crash point that violates the contract or the golden
    differential (:func:`~repro.check.checker.durability_violations`).
    ``None`` when every point is consistent."""
    found: List[Tuple[int, str, Tuple[str, ...]]] = []

    def observe(visit) -> bool:
        violations = durability_violations(
            unit.scheme, seed_words, config.mem.is_persistent,
            visit.nvmm_media, claimed_persists(unit.scheme, visit),
        )
        if violations:
            found.append((visit.point, visit.site, tuple(violations)))
        return bool(violations)

    system = build_crash_system(
        unit.scheme, mutant=unit.mutant, entries=unit.entries, config=config,
        crash_schedule=CrashSchedule(stop_at=None, sites=unit.sites),
        seed_words=seed_words,
    )
    sweep(system, trace, observe)
    return found[0] if found else None


def ddmin(
    ops: List[T],
    test: Callable[[List[T]], Optional[Tuple]],
    budget: int,
) -> Tuple[List[T], Tuple, int]:
    """Classic ddmin [Zeller & Hildebrandt 2002] to 1-minimality, bounded
    by ``budget`` oracle calls.  ``test`` returns failure info for a
    failing subset, ``None`` otherwise; the full ``ops`` list must fail.
    Returns ``(minimal subset, its failure info, oracle calls made)``."""
    tests = 0
    info = test(ops)
    tests += 1
    if info is None:
        raise ValueError("minimization requires a failing trace")
    current = list(ops)
    n = 2
    while len(current) >= 2 and tests < budget:
        chunk = max(1, len(current) // n)
        subsets = [current[i:i + chunk] for i in range(0, len(current), chunk)]
        reduced = False
        for subset in subsets:
            if tests >= budget:
                break
            tests += 1
            r = test(subset)
            if r is not None:
                current, info, n, reduced = subset, r, 2, True
                break
        if not reduced and len(subsets) > 2:
            for i in range(len(subsets)):
                if tests >= budget:
                    break
                complement = [
                    op for j, s in enumerate(subsets) if j != i for op in s
                ]
                tests += 1
                r = test(complement)
                if r is not None:
                    current, info, reduced = complement, r, True
                    n = max(n - 1, 2)
                    break
        if not reduced:
            if n >= len(current):
                break
            n = min(len(current), n * 2)
    return current, info, tests


def minimize_counterexample(
    unit: CheckUnit,
    verdict: PointVerdict,
    budget: int = DEFAULT_TEST_BUDGET,
) -> Counterexample:
    """Shrink the unit's trace to a 1-minimal failing repro.

    ``verdict`` is the failing point the checker found on the full trace;
    it seeds the search (and is the fallback if the full trace somehow no
    longer fails, which would indicate non-determinism and raises).
    """
    ctx = _UnitContext(unit)
    flat = flatten_trace(ctx.trace)
    num_threads = ctx.trace.num_threads

    def test(ops: List[FlatOp]):
        if not ops:
            return None
        return first_failing_point(unit, ctx.config, ctx.seed_words,
                                   rebuild_trace(ops, num_threads))

    minimal, (point, site, violations), tests = ddmin(flat, test, budget)
    return Counterexample(
        unit=unit, ops=minimal, num_threads=num_threads,
        point=point, site=site, violations=violations,
        tests_run=tests, seed_words=ctx.seed_words,
    )


# ----------------------------------------------------------------------
# Replayable artifact
# ----------------------------------------------------------------------

def counterexample_artifact(cex: Counterexample) -> Dict[str, Any]:
    """The JSON-serialisable ``repro.crashcheck/v1`` counterexample."""
    unit = cex.unit
    return {
        "schema": CHECK_SCHEMA,
        "kind": "counterexample",
        "scheme": unit.scheme,
        "mutant": unit.mutant,
        "workload": unit.workload,
        "spec": list(astuple(unit.spec)) if unit.spec is not None else None,
        "entries": unit.entries,
        "sites": list(unit.sites) if unit.sites is not None else None,
        "num_threads": cex.num_threads,
        "num_ops": cex.num_ops,
        "seed_words": {str(addr): value for addr, value in cex.seed_words.items()},
        "ops": [
            {
                "thread": tid,
                "kind": op.kind.value,
                "addr": op.addr,
                "size": op.size,
                "value": op.value,
                "cycles": op.cycles,
                "tag": op.tag,
            }
            for tid, op in cex.ops
        ],
        "crash_point": cex.point,
        "site": cex.site,
        "violations": list(cex.violations),
        "tests_run": cex.tests_run,
    }


def write_counterexample(cex: Counterexample, path: str) -> str:
    """Atomically write the replayable artifact; returns ``path``."""
    return atomic_write_json(path, counterexample_artifact(cex))


#: Field types of a counterexample artifact and of each of its ops.
_ARTIFACT_TYPES = {
    "scheme": str, "workload": str, "entries": int,
    "mutant": (str, type(None)), "sites": (list, type(None)),
    "seed_words": dict, "ops": list, "num_threads": int, "crash_point": int,
}
_OP_TYPES = {
    "thread": int, "kind": str, "addr": int, "size": int, "value": int,
    "cycles": int, "tag": (str, type(None)),
}


def replay_artifact(path: str, config=None) -> Dict[str, Any]:
    """Re-execute a counterexample artifact: rebuild the system, run the
    recorded ops, crash at the recorded micro-step, and re-check.
    Returns ``{"reproduced", "site", "violations", "artifact"}``.
    Raises :class:`repro.ioutil.ArtifactError` on a missing/truncated
    file, a schema/kind mismatch or a malformed payload (a missing field
    or one of the wrong type), before running anything, and after the run
    when the recorded crash point does not fire."""
    from repro.analysis.experiments import default_sim_config
    from repro.ioutil import ArtifactError, load_versioned_json, require_types

    artifact = load_versioned_json(path, CHECK_SCHEMA, kind="counterexample")
    require_types(path, artifact, _ARTIFACT_TYPES)
    for addr, value in artifact["seed_words"].items():
        if not isinstance(value, int):
            raise ArtifactError(
                f"artifact {path!r} seed_words[{addr!r}] is not an integer")
    for i, rec in enumerate(artifact["ops"]):
        require_types(path, rec, _OP_TYPES, where=f"ops[{i}]")
        if not 0 <= rec["thread"] < artifact["num_threads"]:
            raise ArtifactError(
                f"artifact {path!r} ops[{i}] has thread {rec['thread']}; "
                f"num_threads is {artifact['num_threads']}")
    unit = CheckUnit(
        scheme=artifact["scheme"],
        workload=artifact["workload"],
        entries=artifact["entries"],
        mutant=artifact["mutant"],
        sites=tuple(artifact["sites"]) if artifact["sites"] else None,
    )
    cfg = config or default_sim_config()
    seed_words = {int(a): v for a, v in artifact["seed_words"].items()}
    ops = [
        (
            rec["thread"],
            TraceOp(
                OpKind(rec["kind"]), addr=rec["addr"], size=rec["size"],
                value=rec["value"], cycles=rec["cycles"], tag=rec["tag"],
            ),
        )
        for rec in artifact["ops"]
    ]
    trace = rebuild_trace(ops, artifact["num_threads"])
    # A real crash, not the sweep: the artifact must reproduce on its own.
    system = build_crash_system(
        unit.scheme, mutant=unit.mutant, entries=unit.entries, config=cfg,
        crash_schedule=CrashSchedule(stop_at=artifact["crash_point"],
                                     sites=unit.sites),
        seed_words=seed_words,
    )
    result = system.run(trace)
    if result.crash_point is None:
        raise ArtifactError(
            f"artifact {path!r} crash_point {artifact['crash_point']} did "
            f"not fire: the recorded run has fewer crash points")
    violations = durability_violations(
        unit.scheme, seed_words, cfg.mem.is_persistent, system.nvmm_media,
        claimed_persists(unit.scheme, result),
    )
    return {
        "reproduced": bool(violations),
        "site": result.crash_point.site,
        "violations": violations,
        "artifact": artifact,
    }
