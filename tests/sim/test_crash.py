"""Op-boundary crash sweeps: one ``explore.sweep`` run under a ``SITE_OP``
crash schedule reads the durable image of every op boundary, and each
must match a fresh system crashed there with ``stop_at=k``."""

import random

import pytest

from repro.api import RunOptions, build_system
from repro.check.explore import sample_points, sweep
from repro.check.schedule import SITE_OP, CrashSchedule
from repro.core.recovery import check_exact_durability, check_prefix_consistency
from repro.sim.trace import TraceOp
from tests.conftest import (conflict_addresses, crash_after, paddr,
                            single_thread_trace)


def op_sweep(scheme, config, trace, check, points=None):
    """``{k: violations}`` of ``check`` after each op ``k`` in ``points``
    (default: every op), from one run."""
    verdicts = {}

    def observe(visit):
        assert visit.crash_op == visit.point
        verdicts[visit.point] = check(
            visit.nvmm_media, visit.committed_persists).violations

    schedule = CrashSchedule(sites=(SITE_OP,))
    system = build_system(scheme, config=config,
                          options=RunOptions(crash_schedule=schedule))
    assert sweep(system, trace, observe, points)
    return verdicts


def real_crash(scheme, config, trace, check, k):
    """The violations of ``check`` after a real crash following op ``k``."""
    system = build_system(scheme, config=config, options=crash_after(k))
    result = system.run(trace)
    assert result.crashed and result.crash_op == k
    return check(system.nvmm_media, result.committed_persists).violations


@pytest.fixture
def trace(small_config):
    ops = [TraceOp.store(paddr(small_config, i), i + 1) for i in range(6)]
    return single_thread_trace(*ops)


@pytest.fixture
def conflict_trace(small_config):
    """Directed set-conflict scenario: a 'head' block is evicted (and thus
    persisted in replacement order) while the older 'node' store is still
    cached (Section II-A's corruption)."""
    node = paddr(small_config, 1)
    head = paddr(small_config, 0)
    ops = [TraceOp.store(node, 0x1111), TraceOp.store(head, 0x2222)]
    # Loads that evict the head block from the LLC (writeback persists
    # head) while node stays cached.
    for addr in conflict_addresses(small_config, head, small_config.llc.assoc):
        ops.append(TraceOp.load(addr))
    return single_thread_trace(*ops)


class TestCrashPoints:
    def test_all_points_by_default(self, trace):
        assert sample_points(trace.total_ops()) == list(range(1, 7))

    def test_sampling_is_deterministic(self):
        a = sample_points(6, sample=3, seed=7)
        b = sample_points(6, sample=3, seed=7)
        assert a == b and len(a) == 3
        assert a == sorted(a)

    def test_sample_larger_than_space_returns_all(self):
        assert sample_points(6, sample=100) == list(range(1, 7))

    def test_module_global_random_state_is_untouched(self):
        state = random.getstate()
        sample_points(6, sample=3, seed=7)
        assert random.getstate() == state


class TestSweep:
    def test_bbb_sweep_is_fully_consistent(self, small_config, trace):
        verdicts = op_sweep("bbb", small_config, trace,
                            check_exact_durability)
        assert sorted(verdicts) == list(range(1, 7))
        assert not any(verdicts.values())

    def test_outcomes_carry_crash_op(self, small_config, trace):
        # op_sweep asserts each visit's crash_op is its op-boundary index.
        verdicts = op_sweep("bbb", small_config, trace,
                            check_exact_durability,
                            points=sample_points(6, sample=2, seed=0))
        assert len(verdicts) == 2
        assert all(1 <= k <= 6 for k in verdicts)

    def test_sampled_sweep_is_subset_of_exhaustive(self, small_config,
                                                   conflict_trace):
        """Every sampled point's verdict equals the exhaustive sweep's
        verdict at the same crash op."""
        full = op_sweep("none", small_config, conflict_trace,
                        check_prefix_consistency)
        points = sample_points(conflict_trace.total_ops(), sample=3, seed=5)
        sampled = op_sweep("none", small_config, conflict_trace,
                           check_prefix_consistency, points)
        assert sorted(sampled) == points
        assert all(sampled[k] == full[k] for k in points)

    def test_no_persistency_sweep_detects_violations(self, small_config,
                                                     conflict_trace):
        """The per-core prefix check must fail for some crash point."""
        verdicts = op_sweep("none", small_config, conflict_trace,
                            check_prefix_consistency)
        assert any(
            "persist order violated" in v
            for violations in verdicts.values()
            for v in violations
        )

    @pytest.mark.parametrize("scheme, check, fixture", [
        ("bbb", check_exact_durability, "trace"),
        ("none", check_prefix_consistency, "conflict_trace"),
    ])
    def test_every_point_matches_a_real_crash(self, small_config, request,
                                              scheme, check, fixture):
        program = request.getfixturevalue(fixture)
        verdicts = op_sweep(scheme, small_config, program, check)
        assert len(verdicts) == program.total_ops()
        for k, violations in verdicts.items():
            assert violations == real_crash(scheme, small_config, program,
                                            check, k), k


def test_crash_at_op_keyword_is_gone(small_config, trace):
    system = build_system("bbb", config=small_config)
    with pytest.raises(TypeError):
        system.run(trace, crash_at_op=1)
