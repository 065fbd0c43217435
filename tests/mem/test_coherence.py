"""Unit tests for the directory bookkeeping (repro.mem.coherence)."""

import pytest

from repro.mem.coherence import Directory, DirectoryEntry


@pytest.fixture
def directory():
    return Directory()


class TestEntryLifecycle:
    def test_entry_absent_initially(self, directory):
        assert directory.entry(0x40) is None

    def test_ensure_creates(self, directory):
        ent = directory.ensure(0x40)
        assert isinstance(ent, DirectoryEntry)
        assert directory.entry(0x40) is ent

    def test_ensure_idempotent(self, directory):
        assert directory.ensure(0x40) is directory.ensure(0x40)

    def test_drop(self, directory):
        directory.ensure(0x40)
        dropped = directory.drop(0x40)
        assert dropped is not None
        assert directory.entry(0x40) is None

    def test_drop_absent_returns_none(self, directory):
        assert directory.drop(0x40) is None

    def test_len(self, directory):
        directory.ensure(0x40)
        directory.ensure(0x80)
        assert len(directory) == 2


class TestPresence:
    def test_record_exclusive_sets_owner_and_sole_sharer(self, directory):
        directory.record_exclusive(0x40, core=1)
        ent = directory.entry(0x40)
        assert ent.owner == 1
        assert ent.sharers == {1}

    def test_record_shared_adds_sharer(self, directory):
        directory.record_shared(0x40, 0)
        directory.record_shared(0x40, 1)
        assert directory.entry(0x40).sharers == {0, 1}

    def test_shared_while_other_owner_raises(self, directory):
        directory.record_exclusive(0x40, 0)
        with pytest.raises(RuntimeError):
            directory.record_shared(0x40, 1)

    def test_owner_may_re_record_shared(self, directory):
        directory.record_exclusive(0x40, 0)
        directory.record_shared(0x40, 0)  # no-op, same core
        assert directory.entry(0x40).owner == 0

    def test_downgrade_clears_owner_keeps_sharer(self, directory):
        directory.record_exclusive(0x40, 0)
        directory.record_downgrade(0x40)
        ent = directory.entry(0x40)
        assert ent.owner is None
        assert 0 in ent.sharers

    def test_l1_eviction_removes_presence(self, directory):
        directory.record_exclusive(0x40, 0)
        directory.record_l1_eviction(0x40, 0)
        ent = directory.entry(0x40)
        assert ent.owner is None and not ent.sharers
        assert not ent.is_cached_anywhere()

    def test_l1_eviction_of_sharer_keeps_others(self, directory):
        directory.record_shared(0x40, 0)
        directory.record_shared(0x40, 1)
        directory.record_l1_eviction(0x40, 0)
        assert directory.entry(0x40).sharers == {1}

    def test_eviction_without_entry_is_noop(self, directory):
        directory.record_l1_eviction(0x40, 0)  # must not raise
