"""Tests for the optimizer passes and their table (repro.opt.passes)."""

import pytest

from repro.core.registry import iter_schemes
from repro.opt import (
    DEFAULT_PIPELINE,
    MUTANT_PIPELINE,
    PASSES,
    Op,
    Program,
    removed_positions,
    run_pipeline,
)
from repro.sim.config import SystemConfig
from repro.sim.trace import OpKind

CFG = SystemConfig(num_cores=2).scaled_for_testing()
PBASE = CFG.mem.persistent_base

# A scheme per contract class, selected by capability (never by name).
FULL = next(s.name for s in iter_schemes()
            if s.subsumes_ordering("flush") and s.subsumes_ordering("fence")
            and s.subsumes_ordering("epoch"))
KEEPS_FLUSH = next(s.name for s in iter_schemes()
                   if not s.subsumes_ordering("flush"))


def apply_one(program, name, scheme):
    """``program`` after the single pass ``name`` under ``scheme``."""
    return run_pipeline(program, scheme, passes=(name,),
                        block_size=CFG.block_size).optimized


def prog(*ops):
    return Program(threads=(tuple(ops),), name="t")


def store(addr, value=1):
    return Op(OpKind.STORE, addr=addr, value=value, durable=True)


def flush(addr):
    return Op(OpKind.FLUSH, addr=addr, durable=True)


FENCE = Op(OpKind.FENCE)
EPOCH = Op(OpKind.EPOCH)


class TestRegistry:
    def test_default_names_exclude_mutants(self):
        assert "opt-drop-epoch-fence" not in DEFAULT_PIPELINE
        assert "elide-flush" in DEFAULT_PIPELINE
        assert MUTANT_PIPELINE == ("opt-drop-epoch-fence",)
        assert set(PASSES) == set(DEFAULT_PIPELINE) | set(MUTANT_PIPELINE)

    def test_unknown_pass_raises_with_valid_names(self):
        with pytest.raises(ValueError, match="elide-flush"):
            run_pipeline(prog(FENCE), FULL, passes=("no-such-pass",))


class TestRemovedPositions:
    def test_recovers_deletions_by_identity(self):
        a, b, c = store(PBASE), FENCE, EPOCH
        assert removed_positions((a, b, c), (a, c)) == [1]
        assert removed_positions((a, b, c), (a, b, c)) == []

    def test_rejects_reorder_and_rebuild(self):
        a, b = store(PBASE), FENCE
        with pytest.raises(ValueError, match="identity-subsequence"):
            removed_positions((a, b), (b, a))
        with pytest.raises(ValueError, match="identity-subsequence"):
            # Equal value but a different object: a rebuilt op is not
            # a removal, and the audit could not trust its provenance.
            removed_positions((a, b), (store(PBASE), b))


class TestIndependentPasses:
    def test_coalesce_drops_adjacent_same_address_store(self):
        s1, s2 = store(PBASE, 1), store(PBASE, 2)
        out = apply_one(prog(s1, s2), "coalesce-stores", KEEPS_FLUSH)
        assert out.threads[0] == (s2,)

    def test_coalesce_keeps_separated_stores(self):
        s1, s2 = store(PBASE, 1), store(PBASE, 2)
        out = apply_one(prog(s1, FENCE, s2), "coalesce-stores",
                        KEEPS_FLUSH)
        assert out.threads[0] == (s1, FENCE, s2)

    def test_drop_dead_flush(self):
        s = store(PBASE)
        f1, f2, f3 = flush(PBASE), flush(PBASE), flush(PBASE + 64)
        out = apply_one(prog(s, f1, f2, f3), "drop-dead-flush",
                        KEEPS_FLUSH)
        # f2 is a duplicate clwb, f3 flushes a line never stored to.
        assert out.threads[0] == (s, f1)

    def test_weaken_fence(self):
        s, f = store(PBASE), flush(PBASE)
        out = apply_one(prog(FENCE, s, f, FENCE, FENCE), "weaken-fence",
                        KEEPS_FLUSH)
        # Only the fence with an outstanding clwb survives.
        assert [op.kind for op in out.threads[0]] == \
            [OpKind.STORE, OpKind.FLUSH, OpKind.FENCE]


class TestContractGatedPasses:
    def test_elide_respects_contract(self):
        s, f = store(PBASE), flush(PBASE)
        p = prog(s, f, FENCE, EPOCH)
        for name in ("elide-flush", "elide-fence", "elide-epoch"):
            assert apply_one(p, name, FULL).total_ops < p.total_ops

    def test_elision_noop_when_contract_keeps_the_kind(self):
        s, f = store(PBASE), flush(PBASE)
        p = prog(s, f, FENCE)
        assert apply_one(p, "elide-flush", KEEPS_FLUSH).threads == \
            p.threads

    def test_mutant_drops_fences_regardless_of_contract(self):
        p = prog(store(PBASE), flush(PBASE), FENCE, EPOCH)
        out = apply_one(p, "opt-drop-epoch-fence", KEEPS_FLUSH)
        assert [op.kind for op in out.threads[0]] == \
            [OpKind.STORE, OpKind.FLUSH]
