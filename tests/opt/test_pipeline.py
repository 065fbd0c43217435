"""Tests for the optimizer pipeline (repro.opt.pipeline)."""

import pytest

from repro.core.registry import iter_schemes
from repro.opt import (
    DEFAULT_PIPELINE,
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
        naive = instrumented()
        result = run_pipeline(naive, FULL, block_size=CFG.block_size)
        removed = sum(app.removed for app in result.passes)
        assert removed == naive.total_ops - result.optimized.total_ops
        assert [app.name for app in result.passes] == list(DEFAULT_PIPELINE)

    def test_removed_of_matches_kind_counts(self):
        result = run_pipeline(instrumented(), FULL,
                              block_size=CFG.block_size)
        assert result.removed_of("flush") == \
            result.input_counts["flush"] - result.output_counts["flush"]

    def test_elision_pct_of_absent_kind_is_zero(self):
        program = Program(threads=((Op(OpKind.COMPUTE, cycles=1),),))
        result = run_pipeline(program, FULL)
        assert result.flush_fence_elision_pct == 0.0

    def test_unknown_pass_fails_fast(self):
        with pytest.raises(ValueError, match="unknown optimizer pass"):
            run_pipeline(instrumented(), FULL, passes=("no-such-pass",))
