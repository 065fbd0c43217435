"""Model-checker properties: for random small programs, exhaustive
micro-step crash exploration of the gap-free schemes (bbb, eadr) finds
zero violations, and fingerprint pruning never changes a fingerprint or a
verdict."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.checker import CheckUnit, explore
from repro.check.minimize import first_failing_point
from repro.sim.config import SystemConfig
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from repro.workloads.base import WorkloadSpec

CFG = SystemConfig(num_cores=2).scaled_for_testing()

# Random programs over a small persistent footprint (8 blocks) so
# cross-core conflicts — the Fig. 6 coherence windows — are common.
# Short streams keep the exhaustive point enumeration fast (each op is
# several micro-step crash points, each a full re-run).
op_strategy = st.tuples(
    st.sampled_from(["load", "store", "store", "compute"]),
    st.integers(min_value=0, max_value=7),    # block index
    st.integers(min_value=0, max_value=56),   # offset (8-aligned below)
    st.integers(min_value=1, max_value=1 << 30),
)


def to_trace_op(kind, block, offset, value):
    addr = CFG.mem.persistent_base + block * 64 + (offset & ~7)
    if kind == "load":
        return TraceOp.load(addr)
    if kind == "store":
        return TraceOp.store(addr, value)
    return TraceOp.compute(value % 10)


program_strategy = st.lists(
    st.lists(op_strategy, min_size=1, max_size=8), min_size=1, max_size=2
)


def build_program(threads):
    return ProgramTrace(
        [ThreadTrace([to_trace_op(*op) for op in ops]) for ops in threads]
    )


@settings(max_examples=25, deadline=None)
@given(program_strategy, st.sampled_from(["bbb", "eadr"]))
def test_gap_free_schemes_survive_every_micro_step(threads, scheme):
    """No micro-step crash point of any random program loses a committed
    persist under bbb or eadr: contract + golden differential both hold."""
    trace = build_program(threads)
    unit = CheckUnit(scheme=scheme, entries=2, config=CFG)
    failing = first_failing_point(unit, CFG, {}, trace)
    assert failing is None, failing


@settings(max_examples=8, deadline=None)
@given(
    st.sampled_from([("bbb", None), ("eadr", None),
                     ("bbb", "bbb-delayed-alloc"), ("eadr", "eadr-skip-l1")]),
    st.sampled_from(["mutateNC", "ctree"]),
    st.integers(min_value=0, max_value=1000),
)
def test_pruned_run_reports_same_verdicts_as_unpruned(unit_scheme, workload,
                                                      seed):
    """Fingerprint pruning is sound: per-point fingerprints and verdicts
    of a pruned exhaustive run equal the unpruned run's, which computes
    each from scratch, over random workload seeds, a seeded heap (ctree)
    and both mutants."""
    scheme, mutant = unit_scheme
    spec = WorkloadSpec(threads=2, ops=2, elements=64, seed=seed)
    unit = CheckUnit(scheme=scheme, workload=workload, spec=spec,
                     mutant=mutant, prune=True)
    pruned, total_a, _ = explore(unit)
    plain, total_b, _ = explore(replace(unit, prune=False))
    assert total_a == total_b
    assert [(v.point, v.consistent, v.violations, v.fingerprint)
            for v in pruned] == \
        [(v.point, v.consistent, v.violations, v.fingerprint) for v in plain]
