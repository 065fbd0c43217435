"""Directed coherence scenarios from Fig. 6 and Table II of the paper.

Two cores; block X is placed in a chosen MESI state (and optionally in
core 1's bbPB), then core 2 issues the remote request.  After each scenario
the tests assert the bbPB actions of Table II: blocks move between bbPBs
without draining, interventions leave the block in place, and the block
"will drain to memory only once" even when written by multiple cores.
"""

import pytest

from repro.core.invariants import check_all
from repro.mem.block import E, I, M, S, BlockData
from repro.api import build_system
from tests.conftest import conflict_addresses, paddr


@pytest.fixture
def system(two_core_config):
    return build_system("bbb", config=two_core_config, entries=8)


@pytest.fixture
def h(system):
    return system.hierarchy


@pytest.fixture
def buf(system):
    return system.scheme.buffers


def baddr_of(config, addr):
    return addr & ~(config.block_size - 1)


class TestFig6aInvalidationToMBlock:
    """Core 1 holds X in M state and in its bbPB; core 2 writes X (RdX)."""

    def setup_case(self, h, two_core_config):
        self.x = paddr(two_core_config, 0)
        h.store(0, self.x, 8, 0xAA, 0)  # M + bbPB at core 0
        return self.x

    def test_block_moves_to_requesting_bbpb(self, system, h, buf, two_core_config):
        x = self.setup_case(h, two_core_config)
        bx = baddr_of(two_core_config, x)
        assert buf[0].contains(bx)
        h.store(1, x + 8, 8, 0xBB, 100)
        assert not buf[0].contains(bx)
        assert buf[1].contains(bx)
        check_all(system)

    def test_no_drain_on_move(self, system, h, buf, two_core_config):
        x = self.setup_case(h, two_core_config)
        h.store(1, x + 8, 8, 0xBB, 100)
        assert system.stats.bbpb_drains == 0
        assert system.stats.bbpb_moves == 1

    def test_l1_states_after_move(self, h, two_core_config):
        x = self.setup_case(h, two_core_config)
        h.store(1, x + 8, 8, 0xBB, 100)
        assert h.l1_state(0, x) is I
        assert h.l1_state(1, x) is M

    def test_moved_entry_carries_both_writes(self, buf, h, two_core_config):
        """The new bbPB entry holds the full block value, so the single
        eventual drain durably covers core 0's store too."""
        x = self.setup_case(h, two_core_config)
        bx = baddr_of(two_core_config, x)
        h.store(1, x + 8, 8, 0xBB, 100)
        entry = buf[1].entry(bx)
        assert entry.data.read_word(0, 8) == 0xAA
        assert entry.data.read_word(8, 8) == 0xBB

    def test_ping_pong_block_drains_once_with_final_value(
        self, system, h, buf, two_core_config
    ):
        x = self.setup_case(h, two_core_config)
        bx = baddr_of(two_core_config, x)
        for i in range(1, 6):
            h.store(i % 2, x, 8, i, i * 100)
        # Settle: exactly one durable write for the whole ping-pong.
        system.scheme.finalize(10_000)
        assert system.stats.bbpb_drains == 1
        assert h.nvmm.media.read_word(x, 8) == 5


class TestFig6bInvalidationToSBlock:
    """Block shared by both cores, still in core 0's bbPB after a downgrade;
    core 2 upgrades."""

    def setup_case(self, h, two_core_config):
        x = paddr(two_core_config, 0)
        h.store(0, x, 8, 0xAA, 0)      # core 0: M + bbPB
        h.load(1, x, 8, 50)            # intervention: both S, bbPB keeps X
        return x

    def test_shared_state_with_bbpb_residency(self, h, buf, two_core_config):
        x = self.setup_case(h, two_core_config)
        assert h.l1_state(0, x) is S and h.l1_state(1, x) is S
        assert buf[0].contains(baddr_of(two_core_config, x))

    def test_upgrade_moves_bbpb_entry(self, system, h, buf, two_core_config):
        x = self.setup_case(h, two_core_config)
        bx = baddr_of(two_core_config, x)
        h.store(1, x + 8, 8, 0xBB, 100)  # Upgrade from S
        assert not buf[0].contains(bx)
        assert buf[1].contains(bx)
        assert h.l1_state(0, x) is I
        assert h.l1_state(1, x) is M
        assert system.stats.bbpb_drains == 0
        check_all(system)


class TestFig6cInterventionToMBlock:
    """Core 1 holds X in M and in bbPB; core 2 reads X."""

    def test_block_stays_in_original_bbpb(self, system, h, buf, two_core_config):
        x = paddr(two_core_config, 0)
        h.store(0, x, 8, 0xAA, 0)
        bx = baddr_of(two_core_config, x)
        value, _ = h.load(1, x, 8, 100)
        assert value == 0xAA
        assert buf[0].contains(bx)       # stays put (Fig. 6c)
        assert not buf[1].contains(bx)
        assert h.l1_state(0, x) is S and h.l1_state(1, x) is S
        assert system.stats.bbpb_drains == 0
        check_all(system)

    def test_no_memory_writeback_on_downgrade(self, system, h, two_core_config):
        """Traditional MESI would write the M block back on an M->S
        downgrade; BBB's memory-side view skips it (bandwidth saving)."""
        x = paddr(two_core_config, 0)
        h.store(0, x, 8, 0xAA, 0)
        h.load(1, x, 8, 100)
        assert system.stats.nvmm_writes == 0


class TestTableIIRemainingRows:
    def test_e_state_with_bbpb_remote_inv(self, system, h, buf, two_core_config):
        """E + in-bbPB arises when the L1 copy was refetched after eviction
        while the bbPB entry survived; a remote write must still evict the
        bbPB entry (Table II row E/Y -> Invalidate)."""
        x = paddr(two_core_config, 0)
        bx = baddr_of(two_core_config, x)
        h.store(0, x, 8, 0xAA, 0)
        # Evict X from core 0's L1 (fill its set), leaving the bbPB entry.
        sets = two_core_config.l1d.num_sets
        for i in range(1, two_core_config.l1d.assoc + 1):
            h.load(0, x + i * sets * two_core_config.block_size, 8, i * 10)
        assert h.l1_state(0, x) is I
        assert buf[0].contains(bx)
        h.store(1, x, 8, 0xBB, 1_000)
        assert not buf[0].contains(bx)
        assert buf[1].contains(bx)
        check_all(system)

    def test_local_write_coalesces(self, system, h, buf, two_core_config):
        x = paddr(two_core_config, 0)
        h.store(0, x, 8, 1, 0)
        h.store(0, x + 8, 8, 2, 10)
        assert system.stats.bbpb_allocations == 1
        assert system.stats.bbpb_coalesces == 1
        assert len(buf[0]) == 1

    def test_local_read_unmodified(self, system, h, buf, two_core_config):
        x = paddr(two_core_config, 0)
        h.store(0, x, 8, 1, 0)
        h.load(0, x, 8, 10)
        assert buf[0].contains(baddr_of(two_core_config, x))
        assert system.stats.bbpb_drains == 0

    def test_not_in_bbpb_rows_are_unmodified_mesi(self, system, h, buf, two_core_config):
        """Blocks outside the persistent region never touch the bbPB."""
        from tests.conftest import daddr

        x = daddr(two_core_config, 0)
        h.store(0, x, 8, 1, 0)
        h.load(1, x, 8, 10)
        h.store(1, x, 8, 2, 20)
        assert len(buf[0]) == 0 and len(buf[1]) == 0
        assert h.l1_state(1, x) is M


class TestProcessorSideInvalidation:
    def test_remote_invalidation_drains_through_without_a_move(
        self, two_core_config
    ):
        """A processor-side bbPB cannot pluck the record out of its queue:
        it drains through the block, which moves nothing."""
        system = build_system("bbb-proc", config=two_core_config, entries=8)
        h = system.hierarchy
        x = paddr(two_core_config, 0)
        bx = baddr_of(two_core_config, x)
        h.store(0, x, 8, 0xAA, 0)
        assert system.scheme.buffers[0].contains(bx)
        delay = system.scheme.on_remote_invalidation(0, bx, 1, 100)
        assert not delay
        assert not system.scheme.buffers[0].contains(bx)
        assert system.stats.bbpb_drains == 1
        assert system.stats.bbpb_removes == 0
        assert system.stats.bbpb_moves == 0
        assert h.inflight_bbpb_moves == {}


class TestDirtyInclusionForcedDrain:
    def test_allocation_without_llc_entry_violates_inclusion(
        self, system, h, two_core_config
    ):
        """A bbPB may only allocate a block the LLC holds (Invariant 4):
        the scheme checks the block's directory entry as it allocates."""
        bx = baddr_of(two_core_config, paddr(two_core_config, 0))
        assert h.directory.entry(bx) is None
        with pytest.raises(RuntimeError, match=(
                f"bbPB allocates 0x{bx:x} but the block is not LLC-resident "
                r"— dirty-inclusion \(Invariant 4\) violated")):
            system.scheme.on_persisting_store(0, bx, BlockData(), 0)

    def test_llc_eviction_force_drains_bbpb_block(self, system, h, buf, two_core_config):
        x = paddr(two_core_config, 0)
        bx = baddr_of(two_core_config, x)
        h.store(0, x, 8, 0x42, 0)
        assert buf[0].contains(bx)
        for i, addr in enumerate(
            conflict_addresses(two_core_config, x, two_core_config.llc.assoc)
        ):
            h.load(1, addr, 8, (i + 1) * 1000)
        assert h.llc_block(x) is None
        assert not buf[0].contains(bx)          # forced out (Invariant 4b)
        assert system.stats.bbpb_forced_drains == 1
        assert h.nvmm.media.read_word(x, 8) == 0x42
        check_all(system)

    def test_persistent_dirty_writeback_silently_dropped(
        self, system, h, two_core_config
    ):
        """After the forced drain the LLC writeback is redundant and must be
        dropped (write-endurance saving, Section III-E)."""
        x = paddr(two_core_config, 0)
        h.store(0, x, 8, 0x42, 0)
        for i, addr in enumerate(
            conflict_addresses(two_core_config, x, two_core_config.llc.assoc)
        ):
            h.load(1, addr, 8, (i + 1) * 1000)
        assert system.stats.llc_writebacks_dropped >= 1
        # Exactly one media write for block X: the forced drain.
        assert h.nvmm.media.write_counts[baddr_of(two_core_config, x)] == 1
