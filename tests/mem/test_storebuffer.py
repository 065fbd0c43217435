"""Unit tests for the store buffer (repro.mem.storebuffer)."""

import pytest

from repro.mem.storebuffer import StoreBuffer


class TestCapacity:
    def test_requires_positive_capacity(self):
        with pytest.raises(ValueError):
            StoreBuffer(0)

    def test_full_flag(self):
        sb = StoreBuffer(2)
        sb.push(0x100, 1, 8, False)
        assert not sb.full
        sb.push(0x108, 2, 8, False)
        assert sb.full

    def test_push_when_full_raises(self):
        sb = StoreBuffer(1)
        sb.push(0x100, 1, 8, False)
        with pytest.raises(RuntimeError):
            sb.push(0x108, 2, 8, False)


class TestOrdering:
    def test_fifo_pop(self):
        sb = StoreBuffer(4)
        sb.push(0x100, 1, 8, False)
        sb.push(0x108, 2, 8, False)
        assert sb.pop_oldest().value == 1
        assert sb.pop_oldest().value == 2
        assert sb.pop_oldest() is None

    def test_seq_is_monotonic(self):
        sb = StoreBuffer(4)
        e1 = sb.push(0x100, 1, 8, False)
        e2 = sb.push(0x108, 2, 8, False)
        assert e2.seq > e1.seq


class TestForwarding:
    def test_forward_exact_match(self):
        sb = StoreBuffer(4)
        sb.push(0x100, 0xABCD, 8, False)
        assert sb.forward(0x100, 8) == 0xABCD

    def test_forward_youngest_wins(self):
        sb = StoreBuffer(4)
        sb.push(0x100, 1, 8, False)
        sb.push(0x100, 2, 8, False)
        assert sb.forward(0x100, 8) == 2

    def test_forward_contained_subword(self):
        sb = StoreBuffer(4)
        sb.push(0x100, 0x0102030405060708, 8, False)
        # bytes 2..3 of the little-endian value
        assert sb.forward(0x102, 2) == 0x0506

    def test_partial_overlap_declines(self):
        sb = StoreBuffer(4)
        sb.push(0x100, 1, 4, False)
        assert sb.forward(0x102, 4) is None  # spans beyond the store

    def test_no_match_returns_none(self):
        sb = StoreBuffer(4)
        sb.push(0x100, 1, 8, False)
        assert sb.forward(0x200, 8) is None


class TestCrashDrain:
    def test_volatile_sb_drains_nothing(self):
        sb = StoreBuffer(4, battery_backed=False)
        sb.push(0x100, 1, 8, True)
        assert sb.drain_order_on_crash() == []

    def test_battery_backed_sb_drains_in_program_order(self):
        sb = StoreBuffer(4, battery_backed=True)
        sb.push(0x100, 1, 8, True)
        sb.push(0x108, 2, 8, False)
        sb.push(0x110, 3, 8, True)
        drained = sb.drain_order_on_crash()
        assert [e.value for e in drained] == [1, 2, 3]

    def test_clear(self):
        sb = StoreBuffer(4)
        sb.push(0x100, 1, 8, False)
        sb.clear()
        assert len(sb) == 0
