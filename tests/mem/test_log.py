"""Tests for the hardware log areas."""

from __future__ import annotations

import random
from functools import partial
import tracemalloc

import pytest

from repro.errors import LogOverflowError
from repro.mem.address import MemoryKind, Region
from repro.mem.log import HEADER_BYTES, HardwareLog, LogRecord, PAYLOAD_BYTES, RecordKind
from repro.params import LINE_SIZE


def make_log(size=1 << 16):
    return HardwareLog(Region(MemoryKind.DRAM, 0x1000, size), "test")


class TestAppend:
    def test_append_data_record(self):
        log = make_log()
        record = log.append_data(RecordKind.UNDO, 1, 0x40, {0x40: 7, 0x48: 8})
        assert record.kind is RecordKind.UNDO
        assert record.tx_id == 1
        assert dict(record.words) == {0x40: 7, 0x48: 8}
        assert len(log) == 1

    def test_append_mark(self):
        log = make_log()
        mark = log.append_mark(RecordKind.COMMIT, 3)
        assert mark.size_bytes == HEADER_BYTES
        assert log.committed_tx_ids() == [3]

    def test_data_record_size(self):
        log = make_log()
        record = log.append_data(RecordKind.REDO, 1, 0x40, {0x40: 1})
        assert record.size_bytes == HEADER_BYTES + PAYLOAD_BYTES

    def test_wrong_kind_rejected(self):
        log = make_log()
        with pytest.raises(ValueError):
            log.append_data(RecordKind.COMMIT, 1, 0x40, {})
        with pytest.raises(ValueError):
            log.append_mark(RecordKind.UNDO, 1)

    def test_sequence_monotonic(self):
        log = make_log()
        first = log.append_data(RecordKind.UNDO, 1, 0x40, {0x40: 1})
        second = log.append_data(RecordKind.UNDO, 1, 0x80, {0x80: 2})
        assert second.sequence > first.sequence

    def test_used_bytes_accounting(self):
        log = make_log()
        log.append_data(RecordKind.UNDO, 1, 0x40, {0x40: 1})
        log.append_mark(RecordKind.COMMIT, 1)
        assert log.used_bytes == HEADER_BYTES + PAYLOAD_BYTES + HEADER_BYTES


class TestQueries:
    def test_records_of_transaction(self):
        log = make_log()
        log.append_data(RecordKind.UNDO, 1, 0x40, {0x40: 1})
        log.append_data(RecordKind.UNDO, 2, 0x80, {0x80: 2})
        log.append_data(RecordKind.UNDO, 1, 0xC0, {0xC0: 3})
        records = log.records_of(1)
        assert [r.line_addr for r in records] == [0x40, 0xC0]

    def test_marks_iterate_in_append_order(self):
        log = make_log()
        assert list(log) == []
        log.append_mark(RecordKind.ABORT, 1)
        log.append_mark(RecordKind.COMMIT, 1)
        assert [(r.kind, r.tx_id) for r in log] == [
            (RecordKind.ABORT, 1),
            (RecordKind.COMMIT, 1),
        ]
        assert list(log)[-1].kind is RecordKind.COMMIT

    def test_iteration_returns_appended_records(self):
        log = make_log()
        appended = [
            log.append_data(RecordKind.REDO, 1, i * 64, {i * 64: i})
            for i in range(5)
        ]
        assert list(log) == appended
        assert [r.line_addr for r in list(log)[-2:]] == [192, 256]


class TestReclamation:
    def test_reclaim_frees_bytes(self):
        log = make_log()
        log.append_data(RecordKind.UNDO, 1, 0x40, {0x40: 1})
        used = log.used_bytes
        freed = log.reclaim(1)
        assert freed == used
        assert log.used_bytes == 0
        assert log.records_of(1) == []

    def test_reclaim_preserves_other_transactions(self):
        log = make_log()
        log.append_data(RecordKind.UNDO, 1, 0x40, {0x40: 1})
        log.append_data(RecordKind.UNDO, 2, 0x80, {0x80: 2})
        log.reclaim(1)
        assert [r.tx_id for r in log.records_of(2)] == [2]

    def test_reclaim_unknown_tx_is_noop(self):
        log = make_log()
        assert log.reclaim(99) == 0

    def test_compaction_on_pressure(self):
        """A full log reclaims completed transactions instead of failing."""
        record_bytes = HEADER_BYTES + PAYLOAD_BYTES
        log = make_log(size=record_bytes * 4)
        for i in range(3):
            log.append_data(RecordKind.REDO, 1, i * 64, {i * 64: i})
        log.append_mark(RecordKind.COMMIT, 1)
        # The log is nearly full, but tx 1 is committed and reclaimable.
        log.append_data(RecordKind.REDO, 2, 0x400, {0x400: 9})
        assert [r.tx_id for r in log.records_of(2)] == [2]

    def test_overflow_of_live_data_expands_via_os_trap(self):
        """Section IV-E: the OS is trapped to grow the area."""
        record_bytes = HEADER_BYTES + PAYLOAD_BYTES
        log = make_log(size=record_bytes * 2)
        log.append_data(RecordKind.REDO, 1, 0, {0: 0})
        log.append_data(RecordKind.REDO, 1, 64, {64: 1})
        log.append_data(RecordKind.REDO, 1, 128, {128: 2})
        assert log.expansions == 1
        assert log.capacity_bytes == record_bytes * 4

    def test_overflow_raises_when_expansion_disabled(self):
        from repro.mem.address import MemoryKind, Region

        record_bytes = HEADER_BYTES + PAYLOAD_BYTES
        log = HardwareLog(
            Region(MemoryKind.DRAM, 0x1000, record_bytes * 2),
            "fixed",
            allow_expansion=False,
        )
        log.append_data(RecordKind.REDO, 1, 0, {0: 0})
        log.append_data(RecordKind.REDO, 1, 64, {64: 1})
        with pytest.raises(LogOverflowError):
            log.append_data(RecordKind.REDO, 1, 128, {128: 2})


class TestWipe:
    def test_wipe_clears_everything(self):
        log = make_log()
        log.append_data(RecordKind.UNDO, 1, 0x40, {0x40: 1})
        log.append_mark(RecordKind.COMMIT, 1)
        log.wipe()
        assert len(log) == 0
        assert log.used_bytes == 0
        assert log.committed_tx_ids() == []


class ReferenceLog:
    """The log as a plain list of :class:`LogRecord`, reclaimed one
    transaction at a time: the straightforward model the columns must
    match."""

    def __init__(self, capacity_bytes, allow_expansion=True):
        self.records = []
        self.capacity_bytes = capacity_bytes
        self.allow_expansion = allow_expansion
        self.used_bytes = 0
        self.expansions = 0
        self.sequence = 0
        self.pre_compact = None

    @staticmethod
    def is_data(record):
        return record.kind in (RecordKind.UNDO, RecordKind.REDO)

    def append(self, kind, tx_id, line_addr, words):
        self.sequence += 1
        record = LogRecord(
            kind, tx_id, line_addr, tuple(sorted(words.items())), self.sequence
        )
        if self.used_bytes + record.size_bytes > self.capacity_bytes:
            if self.pre_compact is not None:
                self.pre_compact()
            self.compact()
            while self.used_bytes + record.size_bytes > self.capacity_bytes:
                if not self.allow_expansion:
                    raise LogOverflowError("reference log exhausted")
                self.capacity_bytes *= 2
                self.expansions += 1
        self.records.append(record)
        self.used_bytes += record.size_bytes
        return record

    def records_of(self, tx_id):
        return [r for r in self.records if self.is_data(r) and r.tx_id == tx_id]

    def tx_ids_of(self, kind):
        return [r.tx_id for r in self.records if r.kind is kind]

    def data_tx_ids(self):
        return list(dict.fromkeys(r.tx_id for r in self.records if self.is_data(r)))

    def reclaim(self, tx_id):
        doomed = self.records_of(tx_id)
        self.records = [r for r in self.records if r not in doomed]
        freed = sum(r.size_bytes for r in doomed)
        self.used_bytes -= freed
        return freed

    def compact(self):
        marked = set(self.tx_ids_of(RecordKind.COMMIT))
        marked |= set(self.tx_ids_of(RecordKind.ABORT))
        for tx_id in sorted(marked):
            self.reclaim(tx_id)
        live = set(self.data_tx_ids())
        kept = [r for r in self.records if self.is_data(r) or r.tx_id in live]
        self.used_bytes -= sum(r.size_bytes for r in self.records) - sum(
            r.size_bytes for r in kept
        )
        self.records = kept

    def wipe(self):
        self.records = []
        self.used_bytes = 0


def assert_same(log, ref, tx_pool):
    assert list(log) == ref.records
    assert len(log) == len(ref.records)
    for tx_id in tx_pool:
        assert log.records_of(tx_id) == ref.records_of(tx_id)
    assert log.committed_tx_ids() == ref.tx_ids_of(RecordKind.COMMIT)
    assert log.aborted_tx_ids() == ref.tx_ids_of(RecordKind.ABORT)
    assert log.data_tx_ids() == ref.data_tx_ids()
    assert log.used_bytes == ref.used_bytes
    assert log.capacity_bytes == ref.capacity_bytes
    assert log.expansions == ref.expansions


class TestColumnsMatchReference:
    """Random operation streams: the columnar log against :class:`ReferenceLog`.

    Capacity starts at six data records, so compaction (after the
    ``pre_compact`` hook) and, when allowed, expansion happen often; tx
    ids come from a small pool, so ids recur after reclamation.
    """

    TX_POOL = range(1, 9)

    @pytest.mark.parametrize("allow_expansion", [True, False])
    @pytest.mark.parametrize("seed", [2020, 7, 11])
    def test_random_streams(self, seed, allow_expansion):
        rng = random.Random(seed)
        capacity = (HEADER_BYTES + PAYLOAD_BYTES) * 6
        log = HardwareLog(
            Region(MemoryKind.NVM, 0x1000, capacity), "test", allow_expansion
        )
        ref = ReferenceLog(capacity, allow_expansion)
        # The hook must run at the same moment, on the same contents.
        hook_views, ref_hook_views = [], []
        log.pre_compact = lambda: hook_views.append(list(log))
        ref.pre_compact = lambda: ref_hook_views.append(list(ref.records))
        overflows = 0
        for _ in range(3000):
            op = rng.random()
            tx_id = rng.choice(self.TX_POOL)
            if op < 0.82:
                if op < 0.7:
                    kind = rng.choice((RecordKind.UNDO, RecordKind.REDO))
                    line = rng.randrange(64) * LINE_SIZE
                    words = {
                        line + 8 * slot: rng.randrange(-(1 << 63), 1 << 63)
                        for slot in rng.sample(range(8), rng.randrange(9))
                    }
                    append = partial(log.append_data, kind, tx_id, line, words)
                else:
                    kind = rng.choice((RecordKind.COMMIT, RecordKind.ABORT))
                    line, words = 0, {}
                    append = partial(log.append_mark, kind, tx_id)
                try:
                    got = append()
                except LogOverflowError:
                    overflows += 1
                    with pytest.raises(LogOverflowError):
                        ref.append(kind, tx_id, line, words)
                else:
                    assert got == ref.append(kind, tx_id, line, words)
            elif op < 0.9:
                assert log.reclaim(tx_id) == ref.reclaim(tx_id)
            elif op < 0.95:
                # A recovery's reclamation: every marked transaction, or
                # every unmarked one, dropped in one pass.
                committed = set(ref.tx_ids_of(RecordKind.COMMIT))
                marked = committed | set(ref.tx_ids_of(RecordKind.ABORT))
                if rng.random() < 0.5:
                    doomed = marked
                else:
                    doomed = [t for t in ref.data_tx_ids() if t not in committed]
                freed = sum(ref.reclaim(t) for t in sorted(doomed))
                assert log.reclaim_all(doomed) == freed
            elif op < 0.98:
                doomed = rng.choices(self.TX_POOL, k=3)  # may repeat an id
                freed = sum(ref.reclaim(t) for t in doomed)
                assert log.reclaim_all(doomed) == freed
            else:
                log.wipe()
                ref.wipe()
            assert_same(log, ref, self.TX_POOL)
        assert hook_views == ref_hook_views
        assert len(hook_views) >= 5
        assert log.expansions > 0 if allow_expansion else overflows > 0

    def test_value_outside_64_bits_stores_no_record(self):
        log = make_log()
        log.append_data(RecordKind.REDO, 1, 0x40, {0x40: -1})
        before = list(log)
        with pytest.raises(OverflowError):
            log.append_data(RecordKind.REDO, 1, 0x80, {0x80: 5, 0x88: 1 << 64})
        assert list(log) == before
        assert log.records_of(1) == before
        log.append_data(RecordKind.REDO, 2, 0xC0, {0xC0: 9})
        assert dict(list(log)[-1].words) == {0xC0: 9}


class TestFootprint:
    def test_bytes_per_one_word_record(self):
        """Columns cost about 60 B per one-word data record under
        tracemalloc; one ``LogRecord`` of nested tuples cost about 350 B."""
        count = 20_000
        log = make_log(size=1 << 30)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(count):
                addr = 0x10000 + i * LINE_SIZE
                log.append_data(RecordKind.REDO, 1 + i // 100, addr, {addr: 10**12 + i})
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(log) == count
        assert used / count <= 80
