"""Unit tests for trace records (repro.sim.trace)."""

import pytest

from repro.sim.trace import OpKind, ProgramTrace, ThreadTrace, TraceOp


class TestTraceOpBuilders:
    def test_load(self):
        op = TraceOp.load(0x100, size=4)
        assert op.kind is OpKind.LOAD and op.addr == 0x100 and op.size == 4

    def test_store(self):
        op = TraceOp.store(0x100, 42, tag="x")
        assert op.kind is OpKind.STORE and op.value == 42 and op.tag == "x"

    def test_flush_fence_compute_epoch(self):
        assert TraceOp.flush(0x40).kind is OpKind.FLUSH
        assert TraceOp.fence().kind is OpKind.FENCE
        assert TraceOp.compute(7).cycles == 7
        assert TraceOp.epoch().kind is OpKind.EPOCH

    def test_ops_are_immutable(self):
        op = TraceOp.load(0x100)
        with pytest.raises(Exception):
            op.addr = 0x200


class TestThreadTrace:
    def test_append_and_len(self):
        t = ThreadTrace()
        t.append(TraceOp.load(0))
        t.extend([TraceOp.store(8, 1), TraceOp.fence()])
        assert len(t) == 3

    def test_indexing_and_iteration(self):
        ops = [TraceOp.load(0), TraceOp.store(8, 1)]
        t = ThreadTrace(ops)
        assert t[1].kind is OpKind.STORE
        assert [o.kind for o in t] == [OpKind.LOAD, OpKind.STORE]

    def test_count(self):
        t = ThreadTrace([TraceOp.fence(), TraceOp.fence(), TraceOp.load(0)])
        assert t.count(OpKind.FENCE) == 2

    def test_count_cache_tracks_append_and_extend(self):
        t = ThreadTrace([TraceOp.load(0)])
        assert t.count(OpKind.LOAD) == 1
        t.append(TraceOp.load(8))
        t.extend([TraceOp.store(16, 1), TraceOp.load(24)])
        assert t.count(OpKind.LOAD) == 3
        assert t.count(OpKind.STORE) == 1


class TestProgramTrace:
    def test_requires_threads(self):
        with pytest.raises(ValueError):
            ProgramTrace([])

    def test_totals(self):
        p = ProgramTrace(
            [
                ThreadTrace([TraceOp.store(0, 1), TraceOp.load(0)]),
                ThreadTrace([TraceOp.store(8, 2)]),
            ]
        )
        assert p.num_threads == 2
        assert p.total_ops() == 3
        assert sum(t.count(OpKind.STORE) for t in p.threads) == 2

    def test_persistent_store_fraction(self):
        p = ProgramTrace(
            [ThreadTrace([TraceOp.store(0x10, 1), TraceOp.store(0x1000, 2)])]
        )
        assert p.persistent_store_fraction(lambda a: a >= 0x1000) == 0.5

    def test_fraction_of_storeless_trace_is_zero(self):
        p = ProgramTrace([ThreadTrace([TraceOp.load(0)])])
        assert p.persistent_store_fraction(lambda a: True) == 0.0

    def test_single_helper(self):
        p = ProgramTrace.single([TraceOp.load(0)])
        assert p.num_threads == 1


class TestWithEpochs:
    def test_inserts_epoch_every_n_stores(self):
        from repro.sim.trace import with_epochs

        ops = [TraceOp.store(i * 8, i) for i in range(6)]
        trace = with_epochs(ProgramTrace.single(ops), every_n_stores=2)
        kinds = [op.kind for op in trace.threads[0]]
        assert kinds.count(OpKind.EPOCH) == 3
        assert kinds[2] is OpKind.EPOCH  # after the second store

    def test_non_store_ops_do_not_count(self):
        from repro.sim.trace import with_epochs

        ops = [TraceOp.load(0), TraceOp.store(8, 1), TraceOp.compute(5),
               TraceOp.store(16, 2)]
        trace = with_epochs(ProgramTrace.single(ops), every_n_stores=2)
        assert trace.threads[0].count(OpKind.EPOCH) == 1

    def test_original_trace_unchanged(self):
        from repro.sim.trace import with_epochs

        original = ProgramTrace.single([TraceOp.store(0, 1)])
        with_epochs(original, 1)
        assert original.threads[0].count(OpKind.EPOCH) == 0

    def test_invalid_epoch_length(self):
        import pytest

        from repro.sim.trace import with_epochs

        with pytest.raises(ValueError):
            with_epochs(ProgramTrace.single([TraceOp.store(0, 1)]), 0)

    def test_bep_runs_an_annotated_workload(self):
        """End to end: a Table IV workload annotated for BEP."""
        from repro.sim.config import SystemConfig
        from repro.api import build_system
        from repro.sim.trace import with_epochs
        from repro.workloads.base import WorkloadSpec, registry

        cfg = SystemConfig(num_cores=2).scaled_for_testing()
        workload = registry(cfg.mem, WorkloadSpec(threads=2, ops=15))["hashmap"]
        trace = with_epochs(workload.build(), every_n_stores=8)
        result = build_system("bep", config=cfg).run(trace, finalize=False)
        assert result.stats.epoch_barriers > 0
