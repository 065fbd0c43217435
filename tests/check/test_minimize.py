"""Tests for counterexample minimization and replay (repro.check.minimize)."""

import pytest

from repro.check.checker import CheckUnit, explore
from repro.check.minimize import (
    ddmin,
    flatten_trace,
    minimize_counterexample,
    rebuild_trace,
    replay_artifact,
    write_counterexample,
)
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from repro.workloads.base import WorkloadSpec

TINY = WorkloadSpec(threads=2, ops=3, elements=64, seed=11)


class TestFlatten:
    def test_roundtrip_preserves_per_thread_order(self):
        t0 = [TraceOp.store(64 * i, i) for i in range(3)]
        t1 = [TraceOp.load(64 * i) for i in range(2)]
        trace = ProgramTrace([ThreadTrace(t0), ThreadTrace(t1)])
        flat = flatten_trace(trace)
        assert len(flat) == 5
        rebuilt = rebuild_trace(flat, 2)
        assert rebuilt.threads[0].ops == t0
        assert rebuilt.threads[1].ops == t1

    def test_rebuild_allows_empty_threads(self):
        trace = rebuild_trace([(1, TraceOp.fence())], 3)
        assert trace.num_threads == 3
        assert len(trace.threads[0].ops) == 0
        assert len(trace.threads[1].ops) == 1


class TestDdmin:
    def test_finds_minimal_pair(self):
        items = list(range(20))

        def test_fn(subset):
            return ("bad",) if {3, 7} <= set(subset) else None

        minimal, info, tests = ddmin(items, test_fn, budget=256)
        assert sorted(minimal) == [3, 7]
        assert info == ("bad",)
        assert tests <= 256

    def test_single_failing_element(self):
        def test_fn(subset):
            return ("bad",) if 5 in subset else None

        minimal, _, _ = ddmin(list(range(16)), test_fn, budget=256)
        assert minimal == [5]

    def test_passing_input_rejected(self):
        with pytest.raises(ValueError):
            ddmin([1, 2], lambda s: None, budget=10)

    def test_budget_bounds_oracle_calls(self):
        calls = []

        def test_fn(subset):
            calls.append(1)
            return ("bad",) if {3, 7} <= set(subset) else None

        ddmin(list(range(64)), test_fn, budget=9)
        assert len(calls) <= 9


class TestMinimizeMutant:
    @pytest.fixture(scope="class")
    def cex(self):
        unit = CheckUnit(scheme="bbb", mutant="bbb-delayed-alloc", spec=TINY)
        verdicts, _, _ = explore(unit)
        first_bad = next(v for v in verdicts if not v.consistent)
        return minimize_counterexample(unit, first_bad)

    def test_minimized_to_at_most_six_ops(self, cex):
        assert 1 <= cex.num_ops <= 6

    def test_violations_recorded(self, cex):
        assert cex.violations
        assert cex.point >= 1

    def test_artifact_roundtrip_reproduces(self, cex, tmp_path):
        path = str(tmp_path / "cex.json")
        write_counterexample(cex, path)
        out = replay_artifact(path)
        assert out["reproduced"]
        assert out["violations"]
        assert out["artifact"]["num_ops"] == cex.num_ops

    def test_replay_rejects_non_artifact(self, tmp_path):
        from repro.ioutil import atomic_write_json

        path = str(tmp_path / "not-cex.json")
        atomic_write_json(path, {"schema": "other/v1"})
        with pytest.raises(ValueError):
            replay_artifact(path)
