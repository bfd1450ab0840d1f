"""Tests for the transactional coherence directory."""

from __future__ import annotations

import pytest

from repro.cache.directory import Directory


@pytest.fixture
def directory():
    return Directory()


class TestConflictCases:
    """The paper's three conflict cases (Section IV-D)."""

    def test_write_after_write(self, directory):
        directory.record_access(0x40, tx_id=1, is_write=True)
        conflict = directory.check_access(0x40, tx_id=2, is_write=True)
        assert conflict is not None
        assert conflict.victims == frozenset({1})
        assert conflict.kind == "waw"

    def test_read_after_write_exclusive_vs_sharers(self, directory):
        """GetM against Tx-Sharers: requester writes what others read."""
        directory.record_access(0x40, tx_id=1, is_write=False)
        directory.record_access(0x40, tx_id=2, is_write=False)
        conflict = directory.check_access(0x40, tx_id=3, is_write=True)
        assert conflict is not None
        assert conflict.victims == frozenset({1, 2})

    def test_write_after_read_shared_vs_owner(self, directory):
        """GetS against a Tx-Owner."""
        directory.record_access(0x40, tx_id=1, is_write=True)
        conflict = directory.check_access(0x40, tx_id=2, is_write=False)
        assert conflict is not None
        assert conflict.victims == frozenset({1})
        assert conflict.kind == "war"

    def test_no_conflict_among_readers(self, directory):
        directory.record_access(0x40, tx_id=1, is_write=False)
        assert directory.check_access(0x40, tx_id=2, is_write=False) is None

    def test_own_accesses_never_conflict(self, directory):
        directory.record_access(0x40, tx_id=1, is_write=True)
        assert directory.check_access(0x40, tx_id=1, is_write=True) is None
        assert directory.check_access(0x40, tx_id=1, is_write=False) is None

    def test_nontx_requester_conflicts_with_owner(self, directory):
        directory.record_access(0x40, tx_id=1, is_write=True)
        conflict = directory.check_access(0x40, tx_id=None, is_write=False)
        assert conflict is not None and conflict.victims == frozenset({1})

    def test_untracked_line_no_conflict(self, directory):
        assert directory.check_access(0x40, tx_id=1, is_write=True) is None

    def test_write_conflicts_skip_the_requester(self, directory):
        # A sole sharer upgrading to a write conflicts with nobody.
        directory.record_access(0x40, 1, False)
        assert directory.check_access(0x40, 1, True) is None
        # Other sharers are victims; the requester's own sharing is not.
        directory.record_access(0x40, 2, False)
        conflict = directory.check_access(0x40, 1, True)
        assert conflict.victims == frozenset({2}) and conflict.kind == "raw"
        # A foreign owner and sharers together: write-after-write.
        directory.record_access(0x40, 3, True)
        conflict = directory.check_access(0x40, 4, True)
        assert conflict.victims == frozenset({1, 2, 3})
        assert conflict.kind == "waw"
        assert directory.check_access(0x40, 3, False) is None


class TestLifecycle:
    def test_clear_transaction_removes_all_fields(self, directory):
        directory.record_access(0x40, 1, True)
        directory.record_access(0x80, 1, False)
        directory.record_access(0x80, 2, False)
        cleared = directory.clear_transaction(1)
        assert cleared == 2
        assert directory.check_access(0x40, 3, True) is None
        # tx 2's sharing of 0x80 must survive:
        conflict = directory.check_access(0x80, 3, True)
        assert conflict is not None and conflict.victims == frozenset({2})

    def test_clear_unknown_transaction(self, directory):
        assert directory.clear_transaction(42) == 0

    def test_entry_removed_when_no_tx_left(self, directory):
        directory.record_access(0x40, 1, False)
        directory.clear_transaction(1)
        assert len(directory) == 0

    def test_evict_line_returns_entry(self, directory):
        directory.record_access(0x40, 1, True)
        directory.record_access(0x40, 2, False)
        entry = directory.evict_line(0x40)
        assert entry.tx_owner == 1
        assert entry.tx_sharers == {2}
        assert directory.check_access(0x40, 3, True) is None

    def test_evict_unknown_line(self, directory):
        assert directory.evict_line(0x40) is None

    def test_evict_updates_reverse_index(self, directory):
        directory.record_access(0x40, 1, True)
        directory.evict_line(0x40)
        assert directory.lines_of(1) == set()

    def test_lines_of(self, directory):
        directory.record_access(0x40, 1, True)
        directory.record_access(0x80, 1, False)
        assert directory.lines_of(1) == {0x40, 0x80}

    def test_transactions_on(self, directory):
        directory.record_access(0x40, 1, True)
        directory.record_access(0x40, 2, False)
        assert set(directory.transactions_on(0x40)) == {1, 2}
        assert list(directory.transactions_on(0x999)) == []
