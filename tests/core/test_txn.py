"""Tests for the failure-atomic transaction layer (repro.core.txn).

The bank-transfer scenario: N accounts, each transaction moves money
between two of them.  The invariant — total balance is conserved — holds
at every crash point *after recovery* under BBB with the plain (no
flush/fence) code, and is violated without persist ordering.
"""

import random

import pytest

from repro.core.txn import RecoveryResult, TransactionContext, recover
from repro.api import build_system
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from repro.workloads.alloc import PersistentHeap
from tests.conftest import conflict_addresses, crash_after


ACCOUNTS = 6
INITIAL = 100


def build_bank(config, transfers=10, barriers=False, seed=3):
    """Returns (ctx, accounts, trace) for a bank-transfer program."""
    pheap = PersistentHeap(config.mem)
    ctx = TransactionContext(pheap, barriers=barriers)
    accounts = [ctx.alloc_word(INITIAL) for _ in range(ACCOUNTS)]
    rng = random.Random(seed)
    ops = []
    for _ in range(transfers):
        src, dst = rng.sample(range(ACCOUNTS), 2)
        amount = rng.randrange(1, 30)
        writes = {
            accounts[src]: ctx.shadow[accounts[src]] - amount,
            accounts[dst]: ctx.shadow[accounts[dst]] + amount,
        }
        ops.extend(ctx.begin())
        for addr, value in writes.items():
            ops.extend(ctx.txn_store(addr, value))
        ops.extend(ctx.commit())
    return ctx, accounts, ProgramTrace([ThreadTrace(ops)])


def recovered_total(system, ctx, accounts):
    result = recover(system.nvmm_media, ctx.layout, accounts)
    return sum(result.state.values()), result


class TestProtocolBuilding:
    def test_transaction_emits_undo_then_data(self, small_config):
        ctx, accounts, trace = build_bank(small_config, transfers=1)
        tags = [op.tag for op in trace.threads[0] if op.tag]
        first_data = tags.index("txn-data")
        assert "undo-addr" in tags[:first_data]
        assert "log-count" in tags[:first_data]
        assert tags[-1] == "commit"

    def test_barriers_variant_adds_flush_fence(self, small_config):
        from repro.sim.trace import OpKind

        _, _, plain = build_bank(small_config, transfers=1, barriers=False)
        _, _, fenced = build_bank(small_config, transfers=1, barriers=True)
        assert plain.threads[0].count(OpKind.FENCE) == 0
        assert fenced.threads[0].count(OpKind.FENCE) > 4

    def test_misuse_raises(self, small_config):
        pheap = PersistentHeap(small_config.mem)
        ctx = TransactionContext(pheap)
        addr = ctx.alloc_word(1)
        with pytest.raises(RuntimeError):
            ctx.txn_store(addr, 2)          # no begin
        ctx.begin()
        with pytest.raises(RuntimeError):
            ctx.begin()                     # nested
        with pytest.raises(KeyError):
            ctx.txn_store(0xDEAD000, 1)     # unmanaged address
        ctx.commit()
        with pytest.raises(RuntimeError):
            ctx.commit()                    # double commit


class TestAtomicityUnderBBB:
    def test_complete_run_balances(self, small_config):
        ctx, accounts, trace = build_bank(small_config)
        system = build_system("bbb", config=small_config)
        for addr, value in ctx.initial_words().items():
            from repro.mem.block import BlockData, block_address, block_offset
            d = BlockData()
            d.write_word(block_offset(addr, 64), value, 8)
            system.nvmm_media.write_block(block_address(addr, 64), d)
        system.run(trace)
        total, _ = recovered_total(system, ctx, accounts)
        assert total == ACCOUNTS * INITIAL

    @pytest.mark.parametrize("scheme", ["bbb", "eadr"])
    def test_every_crash_point_recovers_atomically(self, small_config, scheme):
        """The headline: plain undo-log code, zero fences, atomic at every
        crash point under a closed PoV/PoP gap."""
        ctx, accounts, trace = build_bank(small_config, transfers=6)
        seeds = ctx.initial_words()
        for crash_at in range(1, trace.total_ops() + 1, 3):
            system = build_system(scheme, config=small_config,
                                  options=crash_after(crash_at))
            _seed(system, seeds)
            system.run(trace)
            total, result = recovered_total(system, ctx, accounts)
            assert total == ACCOUNTS * INITIAL, (crash_at, result.state)

    def test_recovery_rolls_back_in_flight_txn(self, small_config):
        ctx, accounts, trace = build_bank(small_config, transfers=2)
        seeds = ctx.initial_words()
        # Crash right after the first data store of the second txn: the
        # log holds one undo record that recovery must apply.
        ops = list(trace.threads[0])
        data_indices = [i for i, op in enumerate(ops) if op.tag == "txn-data"]
        crash_at = data_indices[2] + 1  # first data store of txn 2
        system = build_system("bbb", config=small_config,
                              options=crash_after(crash_at))
        _seed(system, seeds)
        system.run(ProgramTrace([ThreadTrace(ops)]))
        total, result = recovered_total(system, ctx, accounts)
        assert result.rolled_back >= 1
        assert total == ACCOUNTS * INITIAL


class TestTornWithoutOrdering:
    def test_replacement_order_persistence_tears_transactions(self, small_config):
        """Volatile caches + eviction pressure on the data block *between
        the debit and the credit*: the debit persists (evicted) while the
        undo log stays cached — recovery cannot roll back and money
        vanishes."""
        pheap = PersistentHeap(small_config.mem)
        ctx = TransactionContext(pheap)
        accounts = [ctx.alloc_word(INITIAL) for _ in range(ACCOUNTS)]
        seeds = ctx.initial_words()
        ops = []
        ops.extend(ctx.begin())
        ops.extend(ctx.txn_store(accounts[0], INITIAL - 25))  # debit
        # Mid-transaction eviction of the account block.
        for addr in conflict_addresses(small_config, accounts[0],
                                       small_config.llc.assoc):
            ops.append(TraceOp.load(addr))
        ops.extend(ctx.txn_store(accounts[1], INITIAL + 25))  # credit
        ops.extend(ctx.commit())
        torn = False
        for crash_at in range(1, len(ops) + 1):
            system = build_system("none", config=small_config,
                                  options=crash_after(crash_at))
            _seed(system, seeds)
            system.run(ProgramTrace([ThreadTrace(ops)]))
            total, _ = recovered_total(system, ctx, accounts)
            if total != ACCOUNTS * INITIAL:
                torn = True
                break
        assert torn, "expected an unordered persist to tear a transaction"

    def test_same_mid_txn_pressure_is_safe_under_bbb(self, small_config):
        """Identical program, BBB: every crash point conserves the total."""
        pheap = PersistentHeap(small_config.mem)
        ctx = TransactionContext(pheap)
        accounts = [ctx.alloc_word(INITIAL) for _ in range(ACCOUNTS)]
        seeds = ctx.initial_words()
        ops = []
        ops.extend(ctx.begin())
        ops.extend(ctx.txn_store(accounts[0], INITIAL - 25))
        for addr in conflict_addresses(small_config, accounts[0],
                                       small_config.llc.assoc):
            ops.append(TraceOp.load(addr))
        ops.extend(ctx.txn_store(accounts[1], INITIAL + 25))
        ops.extend(ctx.commit())
        for crash_at in range(1, len(ops) + 1):
            system = build_system("bbb", config=small_config,
                                  options=crash_after(crash_at))
            _seed(system, seeds)
            system.run(ProgramTrace([ThreadTrace(ops)]))
            total, result = recovered_total(system, ctx, accounts)
            assert total == ACCOUNTS * INITIAL, (crash_at, result.state)

    def test_fig3_style_barriers_fix_adr_hardware(self, small_config):
        """The same ADR-only system is atomic once the programmer inserts
        the flush+fence pairs (barriers=True)."""
        ctx, accounts, trace = build_bank(small_config, transfers=4, barriers=True)
        seeds = ctx.initial_words()
        for crash_at in range(1, trace.total_ops() + 1, 5):
            system = build_system("none", config=small_config,
                                  options=crash_after(crash_at))
            _seed(system, seeds)
            system.run(trace)
            total, result = recovered_total(system, ctx, accounts)
            assert total == ACCOUNTS * INITIAL, (crash_at, result.state)


def _seed(system, seeds):
    from repro.mem.block import BlockData, block_address, block_offset

    by_block = {}
    for addr, value in seeds.items():
        baddr = block_address(addr, 64)
        by_block.setdefault(baddr, BlockData()).write_word(
            block_offset(addr, 64), value, 8
        )
    for baddr, data in by_block.items():
        system.nvmm_media.write_block(baddr, data)
