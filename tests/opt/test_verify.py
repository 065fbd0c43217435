"""Tests for the optimizer's verification layer (repro.opt.verify) and
the removal audit that runs inside the pipeline (repro.opt.pipeline)."""

from collections import Counter

import pytest

from repro.core.registry import (
    ORDERING_EPOCH,
    ORDERING_FENCE,
    iter_schemes,
    scheme_info,
)
from repro.opt import (
    DEFAULT_PIPELINE,
    MUTANT_PIPELINE,
    PASSES,
    Op,
    OptimizedLitmus,
    PassContext,
    Program,
    compare_cell,
    fence_is_redundant,
    flush_is_redundant,
    optimize_litmus,
    removal_justified,
    run_pipeline,
    store_is_coalescible,
    verify_litmus_cell,
    verify_workload_cell,
)
from repro.sim.config import SystemConfig
from repro.sim.trace import OpKind
from repro.workloads.base import WorkloadSpec

CFG = SystemConfig(num_cores=2).scaled_for_testing()
PBASE = CFG.mem.persistent_base
SPEC = WorkloadSpec(threads=2, ops=3, elements=64, seed=3)

FULL = next(s.name for s in iter_schemes()
            if s.subsumes_ordering(ORDERING_FENCE)
            and s.subsumes_ordering(ORDERING_EPOCH))
STRICT_KEEPER = next(
    s.name for s in iter_schemes()
    if not s.subsumes_ordering(ORDERING_FENCE) and s.exact_durability)


def store(addr, value=1):
    return Op(OpKind.STORE, addr=addr, value=value, durable=True)


def flush(addr):
    return Op(OpKind.FLUSH, addr=addr, durable=True)


FENCE = Op(OpKind.FENCE)
EPOCH = Op(OpKind.EPOCH)


class TestRedundancyPredicates:
    def test_flush_redundant_without_prior_store(self):
        ops = (flush(PBASE), store(PBASE), flush(PBASE), flush(PBASE))
        assert flush_is_redundant(ops, 0)
        assert not flush_is_redundant(ops, 2)
        assert flush_is_redundant(ops, 3)

    def test_flush_line_granularity(self):
        ops = (store(PBASE + 8), flush(PBASE), flush(PBASE + 64))
        # Same 64-byte line as the store: load-bearing.
        assert not flush_is_redundant(ops, 1, block_size=64)
        assert flush_is_redundant(ops, 2, block_size=64)

    def test_fence_redundant_without_outstanding_flush(self):
        ops = (FENCE, store(PBASE), flush(PBASE), FENCE, FENCE)
        assert fence_is_redundant(ops, 0)
        assert not fence_is_redundant(ops, 3)
        assert fence_is_redundant(ops, 4)

    def test_store_coalescible_only_when_adjacent(self):
        a, b = store(PBASE, 1), store(PBASE, 2)
        assert store_is_coalescible((a, b), 0)
        assert not store_is_coalescible((a, FENCE, b), 0)
        assert not store_is_coalescible((a, b), 1)  # last op
        volatile = Op(OpKind.STORE, addr=PBASE, value=2)
        assert not store_is_coalescible((a, volatile), 0)


class TestRemovalJustified:
    def ctx(self, scheme):
        return PassContext(scheme=scheme_info(scheme),
                           block_size=CFG.block_size)

    def test_contract_subsumption_justifies(self):
        ops = (store(PBASE), flush(PBASE), FENCE)
        ok, why = removal_justified(ops, 1, self.ctx(FULL))
        assert ok and "ordering contract" in why

    def test_load_bearing_fence_rejected_with_reason(self):
        ops = (store(PBASE), flush(PBASE), FENCE)
        ok, why = removal_justified(ops, 2, self.ctx(STRICT_KEEPER))
        assert not ok and "not subsumed" in why

    def test_loads_and_computes_never_removable(self):
        ops = (Op(OpKind.LOAD, addr=PBASE), Op(OpKind.COMPUTE, cycles=1))
        for i in range(2):
            ok, why = removal_justified(ops, i, self.ctx(FULL))
            assert not ok and "never removable" in why


class TestAudit:
    def probe(self):
        return Program(threads=((
            store(PBASE + 64), flush(PBASE + 64), FENCE, EPOCH,
        ),), name="probe")

    def test_default_pipeline_is_audit_clean_everywhere(self):
        for info in iter_schemes():
            audit = run_pipeline(self.probe(), info.name,
                                 block_size=CFG.block_size)
            assert audit.ok, (info.name, audit.describe_violations())

    def test_mutant_caught_exactly_where_the_contract_says(self):
        for info in iter_schemes():
            audit = run_pipeline(self.probe(), info.name,
                                 passes=MUTANT_PIPELINE)
            expected_caught = not (
                info.subsumes_ordering(ORDERING_FENCE)
                and info.subsumes_ordering(ORDERING_EPOCH)
            )
            assert (not audit.ok) == expected_caught, info.name

    def test_violation_rows_name_the_op_by_provenance(self):
        audit = run_pipeline(self.probe(), STRICT_KEEPER,
                             passes=MUTANT_PIPELINE)
        assert not audit.ok
        text = audit.describe_violations()[0]
        assert "opt-drop-epoch-fence" in text
        assert "thread 0" in text


class TestWorkloadCell:
    @pytest.mark.parametrize("scheme", [FULL, STRICT_KEEPER])
    def test_cell_verifies_clean(self, scheme):
        cell = verify_workload_cell("mutateNC", scheme, spec=SPEC,
                                    config=CFG, entries=2)
        assert cell["ok"], cell["failures"]
        assert cell["fingerprints_equal"]
        assert cell["optimized_consistent"]
        assert cell["counterexample"] is None

    def test_full_contract_cell_elides_everything(self):
        cell = verify_workload_cell("mutateNC", FULL, spec=SPEC,
                                    config=CFG, entries=2)
        assert cell["flush_fence_elision_pct"] == 100.0
        assert cell["ops_optimized"] < cell["ops_naive"]
        # Fewer ops -> fewer micro-step crash points to explore.
        assert cell["checker_points"]["optimized"] < \
            cell["checker_points"]["naive"]

    def test_bep_images_match_once_finalize_has_drained(self):
        # bep's last crash point is the WPQ write of the final drain in
        # its finalize, and a crash there loses the block being written.
        # The final image is taken after the completed run.  The spec is
        # opt --smoke's.
        spec = WorkloadSpec(threads=2, ops=6, elements=128, seed=11)
        cell = verify_workload_cell("hashmap", "bep", spec=spec)
        assert cell["fingerprints_equal"]
        assert not cell["fingerprint_gated"]


class TestOnePassLoop:
    """Each pass runs once per thread of the one program a cell
    optimizes: the audit judges the removals of that application."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for name, fn in list(PASSES.items()):
            def counted(ops, ctx, name=name, fn=fn):
                calls[name] += 1
                return fn(ops, ctx)
            monkeypatch.setitem(PASSES, name, counted)
        return calls

    def test_verify_workload_cell(self, calls):
        verify_workload_cell("mutateNC", FULL, spec=SPEC, config=CFG,
                             entries=2)
        assert calls == {name: SPEC.threads for name in DEFAULT_PIPELINE}

    def test_compare_cell(self, calls):
        compare_cell("hashmap", STRICT_KEEPER, SPEC, entries=2)
        assert calls == {name: SPEC.threads for name in DEFAULT_PIPELINE}

    def test_smoke_opt_does_each_cell_once(self, monkeypatch):
        """The smoke gate optimizes each workload cell once (its checker
        sweep verifies step 1's cells) and each litmus cell once (its
        re-gate consumes that optimization)."""
        import repro.opt.report as report
        import repro.opt.verify as verify
        from repro.litmus.corpus import smoke_corpus
        from repro.sim.system import System
        from repro.workloads.base import WORKLOAD_NAMES

        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        pipeline = counted("run_pipeline", run_pipeline)
        for module in (report, verify):
            monkeypatch.setattr(module, "run_pipeline", pipeline)
            monkeypatch.setattr(module, "optimize_workload", counted(
                "optimize_workload", verify.optimize_workload))
        monkeypatch.setattr(System, "run", counted("run", System.run))
        out = report.smoke_opt()
        assert out["ok"], out["failures"]
        schemes = len(out["checker_cells"])
        cells = schemes * len(WORKLOAD_NAMES)
        assert counts["optimize_workload"] == len(out["grid"]) == cells
        # One pipeline per workload cell, per litmus cell, per mutant probe.
        assert counts["run_pipeline"] == \
            cells + schemes * len(smoke_corpus()) + schemes
        # Two final images per workload cell, two explorations per checker
        # cell, one sweep per re-gated litmus cell.
        assert counts["run"] == \
            2 * cells + 2 * schemes + len(out["litmus_cells"])


class TestLitmusCell:
    def test_smoke_cells_verify_clean(self):
        from repro.litmus.corpus import smoke_corpus

        test = smoke_corpus()[0]
        for scheme in (FULL, STRICT_KEEPER):
            cell = verify_litmus_cell(optimize_litmus(test, scheme, CFG),
                                      entries=2)
            assert cell["ok"], cell["failures"]
            assert cell["forbidden"] == []
            assert cell["observed_states"] >= 1

    def test_mutant_pipeline_flagged_by_the_audit(self):
        # A test whose program carries a load-bearing sfence (a clwb
        # outstanding before it) — the mutant's deletion of it cannot be
        # justified under a fence-keeping scheme.
        from repro.litmus.corpus import smoke_corpus

        test = next(t for t in smoke_corpus()
                    if t.name == "mp-flush-fence")
        from repro.litmus.dsl import lower_program

        program, addrs = lower_program(test, CFG)
        audit = run_pipeline(program, STRICT_KEEPER, passes=MUTANT_PIPELINE,
                             block_size=CFG.block_size)
        cell = verify_litmus_cell(
            OptimizedLitmus(test, CFG, program, addrs, audit), entries=2)
        assert not cell["ok"]
        assert any("opt-drop-epoch-fence" in f for f in cell["failures"])
