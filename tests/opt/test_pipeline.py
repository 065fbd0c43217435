"""Tests for the optimizer pipeline (repro.opt.pipeline)."""

import pytest

from repro.core.registry import iter_schemes
from repro.opt import (
    DEFAULT_PIPELINE,
    PASSES,
    Op,
    Program,
    instrument_naive,
    run_pipeline,
)
from repro.sim.config import SystemConfig
from repro.sim.trace import OpKind
from repro.workloads.base import WorkloadSpec, make_workload

CFG = SystemConfig(num_cores=2).scaled_for_testing()
SPEC = WorkloadSpec(threads=2, ops=4, elements=64, seed=3)

FULL = next(s.name for s in iter_schemes()
            if s.subsumes_ordering("flush") and s.subsumes_ordering("fence")
            and s.subsumes_ordering("epoch"))
KEEPS_ALL = next(s.name for s in iter_schemes()
                 if not s.subsumes_ordering("flush")
                 and not s.subsumes_ordering("fence"))


def instrumented():
    wl = make_workload("hashmap", CFG.mem, SPEC)
    return instrument_naive(wl.build_program())


class TestRunPipeline:
    def test_full_contract_elides_all_instrumentation(self):
        naive = instrumented()
        result = run_pipeline(naive, FULL, block_size=CFG.block_size)
        assert result.flush_fence_elision_pct == 100.0
        assert result.optimized.count(OpKind.FLUSH) == 0
        assert result.optimized.count(OpKind.FENCE) == 0
        # Loads/stores/computes are never elision targets.
        assert result.optimized.count(OpKind.LOAD) == \
            naive.count(OpKind.LOAD)

    def test_flush_keeping_scheme_keeps_the_instrumentation(self):
        naive = instrumented()
        result = run_pipeline(naive, KEEPS_ALL, block_size=CFG.block_size)
        # instrument_naive emits no dead clwbs or no-op sfences, so the
        # independent passes find nothing and elision stays at zero.
        assert result.flush_fence_elision_pct == 0.0
        assert result.optimized.total_ops == naive.total_ops

    def test_per_pass_accounting_sums_to_the_total_removal(self):
        # Per-pass counts come from single-pass pipelines, chained.
        naive = instrumented()
        result = run_pipeline(naive, FULL, block_size=CFG.block_size)
        program, removed = naive, 0
        for name in DEFAULT_PIPELINE:
            step = run_pipeline(program, FULL, passes=(name,),
                                block_size=CFG.block_size)
            assert step.passes == (name,) and step.ok
            removed += program.total_ops - step.optimized.total_ops
            program = step.optimized
        assert program == result.optimized
        assert removed == naive.total_ops - result.optimized.total_ops
        assert result.passes == DEFAULT_PIPELINE

    def test_elision_pct_of_absent_kind_is_zero(self):
        program = Program(threads=((Op(OpKind.COMPUTE, cycles=1),),))
        result = run_pipeline(program, FULL)
        assert result.flush_fence_elision_pct == 0.0

    def test_unknown_pass_fails_fast(self):
        with pytest.raises(ValueError, match="unknown optimizer pass"):
            run_pipeline(instrumented(), FULL, passes=("no-such-pass",))

    def test_result_carries_a_clean_audit(self):
        result = run_pipeline(instrumented(), FULL,
                              block_size=CFG.block_size)
        assert result.ok
        assert result.violations == ()
        assert result.describe_violations() == []


class TestPassTable:
    def test_custom_pass_is_a_table_entry(self, monkeypatch):
        def drop_computes(ops, ctx):
            return tuple(op for op in ops if op.kind is not OpKind.COMPUTE)

        monkeypatch.setitem(PASSES, "drop-computes", drop_computes)
        compute = Op(OpKind.COMPUTE, cycles=1, origin="t/0")
        program = Program(threads=((compute, Op(OpKind.FENCE)),))
        result = run_pipeline(program, FULL, passes=("drop-computes",))
        assert result.optimized.threads == ((program.threads[0][1],),)
        # The audit judges a custom pass like any other: a compute is
        # never removable.
        assert not result.ok
        assert "never removable" in result.describe_violations()[0]
        assert "drop-computes" in result.describe_violations()[0]

    def test_pass_that_rebuilds_ops_is_rejected(self, monkeypatch):
        def rebuild(ops, ctx):
            return tuple(Op(op.kind, addr=op.addr) for op in ops)

        monkeypatch.setitem(PASSES, "rebuild", rebuild)
        with pytest.raises(ValueError, match="identity-subsequence"):
            run_pipeline(instrumented(), FULL, passes=("rebuild",))
