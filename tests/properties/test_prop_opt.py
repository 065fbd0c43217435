"""Persist-optimizer properties: for random small programs, the pass
pipeline is audit-clean under every registered scheme, preserves the
final durable image wherever the scheme's contract pins one down,
never turns a checker-consistent program inconsistent, and the
deliberately unsound ``opt-drop-epoch-fence`` mutant is caught by the
removal audit under every scheme whose contract does not subsume it."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.checker import CheckUnit, explore
from repro.core.registry import (
    ORDERING_EPOCH,
    ORDERING_FENCE,
    iter_schemes,
    scheme_info,
)
from repro.opt import (
    MUTANT_PIPELINE,
    Op,
    Program,
    final_image_fingerprint,
    instrument_naive,
    run_pipeline,
)
from repro.sim.config import SystemConfig
from repro.sim.trace import OpKind

CFG = SystemConfig(num_cores=2).scaled_for_testing()
SCHEMES = [info.name for info in iter_schemes()]

# Random programs over a small persistent footprint.  Stores repeat
# blocks (so coalescing and dead flushes occur), and explicit flush /
# fence / epoch ops appear alongside what instrument_naive adds, so
# every pass has material to work on.
op_strategy = st.tuples(
    st.sampled_from(["store", "store", "load", "compute", "flush",
                     "fence", "epoch"]),
    st.integers(min_value=0, max_value=5),    # block index
    st.integers(min_value=1, max_value=1 << 20),
)


def to_op(kind, block, value, thread=0):
    # Each thread gets its own disjoint block range: the durable-image
    # equivalence guarantee is for race-free programs, where elision
    # changes timing but cannot change which racing store wins a line.
    addr = CFG.mem.persistent_base + (thread * 8 + block) * 64
    if kind == "store":
        return Op(OpKind.STORE, addr=addr, value=value, origin="prop",
                  durable=True)
    if kind == "load":
        return Op(OpKind.LOAD, addr=addr, origin="prop", durable=True)
    if kind == "flush":
        return Op(OpKind.FLUSH, addr=addr, origin="prop", durable=True)
    if kind == "fence":
        return Op(OpKind.FENCE, origin="prop")
    if kind == "epoch":
        return Op(OpKind.EPOCH, origin="prop")
    return Op(OpKind.COMPUTE, cycles=value % 10, origin="prop")


program_strategy = st.lists(
    st.lists(op_strategy, min_size=1, max_size=8), min_size=1, max_size=2
)


def build_program(threads):
    return Program(
        threads=tuple(
            tuple(to_op(*op, thread=tid) for op in ops)
            for tid, ops in enumerate(threads)
        ),
        name="prop",
    )


@settings(max_examples=20, deadline=None)
@given(program_strategy)
def test_pipeline_is_audit_clean_under_every_scheme(threads):
    """Every removal the default pipeline makes on a random instrumented
    program is independently justified — contract-subsumed or redundant —
    under every registered scheme, and the survivors are an identity
    subsequence (the pipeline only ever deletes)."""
    naive = instrument_naive(build_program(threads))
    for scheme in SCHEMES:
        result = run_pipeline(naive, scheme, block_size=CFG.block_size)
        assert result.ok, (scheme, result.describe_violations())
        assert result.optimized.total_ops <= naive.total_ops


@settings(max_examples=8, deadline=None)
@given(program_strategy)
def test_exact_schemes_keep_the_final_durable_image(threads):
    """Under every exact-durability contract, the optimized program's
    final durable image fingerprints identically to the naive one —
    elision changed the instruction stream, not what survives a crash
    at completion."""
    naive = instrument_naive(build_program(threads))
    for scheme in SCHEMES:
        if not scheme_info(scheme).exact_durability:
            continue
        result = run_pipeline(naive, scheme, block_size=CFG.block_size)
        fp_naive = final_image_fingerprint(naive, scheme, 2, CFG)
        fp_opt = final_image_fingerprint(result.optimized, scheme, 2, CFG)
        assert fp_naive == fp_opt, scheme


@settings(max_examples=5, deadline=None)
@given(program_strategy, st.sampled_from(SCHEMES))
def test_optimizing_never_breaks_a_consistent_program(threads, scheme):
    """Exhaustive micro-step crash exploration: if the naive program is
    checker-consistent under a scheme, so is the optimized one (the gate
    is one-directional — naive pmem-style instrumentation may itself be
    inconsistent under epoch disciplines)."""
    naive = instrument_naive(build_program(threads))
    result = run_pipeline(naive, scheme, block_size=CFG.block_size)
    if result.optimized.total_ops == naive.total_ops:
        return
    verdicts, _, _ = explore(CheckUnit(
        scheme=scheme, entries=2, config=CFG, program=naive,
    ))
    if not all(v.consistent for v in verdicts):
        return
    opt_verdicts, _, _ = explore(CheckUnit(
        scheme=scheme, entries=2, config=CFG,
        program=result.optimized,
    ))
    bad = [v for v in opt_verdicts if not v.consistent]
    assert not bad, (scheme, bad[0].violations)


def test_mutant_drop_epoch_fence_is_caught():
    """The removal audit flags the opt-drop-epoch-fence mutant on a
    program with load-bearing fences and epochs under every scheme whose
    contract does not subsume both kinds — and accepts it where the
    contract makes the mutant accidentally sound."""
    base = CFG.mem.persistent_base
    ops = []
    for i in range(2):
        addr = base + 64 * (i + 1)
        ops.extend([
            Op(OpKind.STORE, addr=addr, value=i + 1, origin="probe",
               durable=True),
            Op(OpKind.FLUSH, addr=addr, origin="probe", durable=True),
            Op(OpKind.FENCE, origin="probe"),
            Op(OpKind.EPOCH, origin="probe"),
        ])
    probe = Program(threads=(tuple(ops),), name="probe")
    caught_somewhere = False
    for scheme in SCHEMES:
        info = scheme_info(scheme)
        audit = run_pipeline(probe, scheme, passes=MUTANT_PIPELINE)
        expected_caught = not (info.subsumes_ordering(ORDERING_FENCE)
                               and info.subsumes_ordering(ORDERING_EPOCH))
        assert (not audit.ok) == expected_caught, (
            scheme, audit.describe_violations())
        caught_somewhere = caught_somewhere or not audit.ok
    assert caught_somewhere
