"""Tests for the hardware log areas."""

from __future__ import annotations

import random
from functools import partial
import tracemalloc

import pytest

from repro.errors import LogOverflowError
from repro.mem.address import MemoryKind, Region
from repro.mem import log as log_module
from repro.mem.log import (
    HEADER_BYTES,
    PAYLOAD_BYTES,
    RECLAIM_FLOOR,
    HardwareLog,
    LogRecord,
    RecordKind,
)
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

    def test_full_log_traps_instead_of_reclaiming(self):
        """Capacity pressure reclaims nothing: a committed transaction's
        records stay until background reclamation finds them durable, and
        the OS is trapped for room."""
        record_bytes = HEADER_BYTES + PAYLOAD_BYTES
        log = make_log(size=record_bytes * 4)
        for i in range(3):
            log.append_data(RecordKind.REDO, 1, i * 64, {i * 64: i})
        log.append_mark(RecordKind.COMMIT, 1)
        log.append_data(RecordKind.REDO, 2, 0x400, {0x400: 9})
        assert log.expansions == 1
        assert [r.line_addr for r in log.records_of(1)] == [0, 64, 128]
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


class TestBackgroundReclamation:
    """:meth:`HardwareLog.reclaim_durable`, case by case."""

    @staticmethod
    def commit(log, tx_id, line, words):
        log.append_data(RecordKind.REDO, tx_id, line, words)
        log.append_mark(RecordKind.COMMIT, tx_id)

    def test_drained_record_and_its_mark_go(self):
        log = make_log()
        self.commit(log, 1, 0x40, {0x40: 1, 0x48: 2})
        log.note_drained([0x40])
        assert log.reclaim_durable() == HEADER_BYTES + PAYLOAD_BYTES + HEADER_BYTES
        assert len(log) == 0 and log.used_bytes == 0

    def test_undrained_record_stays(self):
        log = make_log()
        self.commit(log, 1, 0x40, {0x40: 1})
        log.note_drained([0x80])
        assert log.reclaim_durable() == 0
        assert len(log) == 2

    def test_drain_before_the_commit_mark_does_not_count(self):
        log = make_log()
        log.append_data(RecordKind.REDO, 1, 0x40, {0x40: 1})
        log.note_drained([0x40])
        log.append_mark(RecordKind.COMMIT, 1)
        assert log.reclaim_durable() == 0
        assert len(log) == 2

    def test_later_record_covers_only_the_words_it_carries(self):
        log = make_log()
        self.commit(log, 1, 0x40, {0x40: 1, 0x48: 1})
        self.commit(log, 2, 0x40, {0x40: 2})
        assert log.reclaim_durable() == 0
        self.commit(log, 3, 0x40, {0x48: 3, 0x50: 3})
        log.reclaim_durable()
        assert [r.tx_id for r in log] == [2, 2, 3, 3]

    def test_unmarked_and_aborted_records_stay(self):
        log = make_log()
        log.append_data(RecordKind.REDO, 1, 0x40, {0x40: 1})
        log.append_data(RecordKind.REDO, 2, 0x40, {0x40: 2})
        log.append_mark(RecordKind.COMMIT, 2)
        log.append_mark(RecordKind.ABORT, 2)
        self.commit(log, 3, 0x40, {0x40: 3})
        log.note_drained([0x40])
        log.reclaim_durable()
        assert [(r.kind, r.tx_id) for r in log] == [
            (RecordKind.REDO, 1),
            (RecordKind.REDO, 2),
            (RecordKind.COMMIT, 2),
            (RecordKind.ABORT, 2),
        ]

    def test_unmarked_records_cover_nothing(self):
        log = make_log()
        self.commit(log, 1, 0x40, {0x40: 1})
        log.append_data(RecordKind.REDO, 2, 0x40, {0x40: 2})
        assert log.reclaim_durable() == 0

    def test_marks_without_data_go(self):
        log = make_log()
        log.append_mark(RecordKind.ABORT, 1)
        self.commit(log, 2, 0x40, {0x40: 2})
        log.reclaim_durable()
        assert [(r.kind, r.tx_id) for r in log] == [
            (RecordKind.REDO, 2),
            (RecordKind.COMMIT, 2),
        ]

    def test_surviving_rows_stay_indexed(self):
        log = make_log()
        self.commit(log, 1, 0x40, {0x40: 1})
        log.append_data(RecordKind.REDO, 2, 0x80, {0x80: 2})
        log.append_data(RecordKind.REDO, 2, 0x40, {0x40: 2})
        log.append_mark(RecordKind.COMMIT, 2)
        log.note_drained([0x40])
        log.reclaim_durable()
        assert [r.line_addr for r in log.records_of(2)] == [0x80]
        assert log.data_tx_ids() == [2]
        assert log.reclaim(2) == HEADER_BYTES + PAYLOAD_BYTES

    def test_passes_wait_for_the_log_to_double(self):
        log = make_log(size=1 << 24)
        for tx_id in range(1, RECLAIM_FLOOR // 2):
            self.commit(log, tx_id, 0x40, {0x40: tx_id})
        assert len(log) == RECLAIM_FLOOR - 2
        assert log.reclaim_when_grown() == 0
        self.commit(log, RECLAIM_FLOOR // 2, 0x40, {0x40: 0})
        assert log.reclaim_when_grown() > 0
        assert len(log) == 2  # only the newest commit is left
        later = range(10_001, 10_001 + RECLAIM_FLOOR // 2)
        for tx_id in later:
            log.append_data(RecordKind.REDO, tx_id, 0x80, {0x80: tx_id})
        assert log.reclaim_when_grown() == 0  # not grown enough yet
        for tx_id in later:
            log.append_mark(RecordKind.COMMIT, tx_id)
        assert len(log) > RECLAIM_FLOOR
        assert log.reclaim_when_grown() > 0
        assert [r.tx_id for r in log] == [RECLAIM_FLOOR // 2] * 2 + [later[-1]] * 2


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
    transaction at a time and by the background rule record by record:
    the straightforward model the columns must match."""

    def __init__(self, capacity_bytes, allow_expansion=True):
        self.records = []
        self.capacity_bytes = capacity_bytes
        self.allow_expansion = allow_expansion
        self.used_bytes = 0
        self.expansions = 0
        self.sequence = 0
        self.drained_at = {}
        self.next_reclaim = log_module.RECLAIM_FLOOR

    @staticmethod
    def is_data(record):
        return record.kind in (RecordKind.UNDO, RecordKind.REDO)

    def append(self, kind, tx_id, line_addr, words):
        self.sequence += 1
        record = LogRecord(
            kind, tx_id, line_addr, tuple(sorted(words.items())), self.sequence
        )
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

    def drop(self, doomed):
        self.records = [r for r in self.records if r not in doomed]
        freed = sum(r.size_bytes for r in doomed)
        self.used_bytes -= freed
        return freed

    def reclaim(self, tx_id):
        return self.drop(self.records_of(tx_id))

    def note_drained(self, lines):
        for line in lines:
            self.drained_at[line] = self.sequence

    def reclaim_durable(self):
        """A redo record that recovery replays goes once a drain of its
        line came at or after it and its commit mark, or once every word
        it carries is in a later replayed record; marks go with their
        transaction's last data record."""
        aborted = set(self.tx_ids_of(RecordKind.ABORT))
        committed_at = {
            r.tx_id: r.sequence
            for r in self.records
            if r.kind is RecordKind.COMMIT and r.tx_id not in aborted
        }
        replayed = [
            r
            for r in self.records
            if r.kind is RecordKind.REDO and r.tx_id in committed_at
        ]
        doomed = []
        for i, record in enumerate(replayed):
            drained = self.drained_at.get(record.line_addr, 0) >= max(
                committed_at[record.tx_id], record.sequence
            )
            later = {addr for r in replayed[i + 1 :] for addr, _ in r.words}
            if drained or all(addr in later for addr, _ in record.words):
                doomed.append(record)
        left = {r.tx_id for r in self.records if self.is_data(r) and r not in doomed}
        doomed += [
            r
            for r in self.records
            if not self.is_data(r) and r.tx_id not in left
        ]
        self.drained_at = {}
        freed = self.drop(doomed)
        self.next_reclaim = max(log_module.RECLAIM_FLOOR, 2 * len(self.records))
        return freed

    def reclaim_when_grown(self):
        if len(self.records) < self.next_reclaim:
            return 0
        return self.reclaim_durable()

    def wipe(self):
        self.records = []
        self.used_bytes = 0
        self.drained_at = {}
        self.next_reclaim = log_module.RECLAIM_FLOOR


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

    Capacity starts at six data records, so expansion (or, when it is not
    allowed, overflow) happens often; tx ids come from a small pool, so ids
    recur after reclamation.  Records carry zero to eight words of one of
    sixteen lines, so later records often rewrite some, all or none of an
    older record's words; drains and background passes come at random.
    """

    TX_POOL = range(1, 9)

    @pytest.mark.parametrize("allow_expansion", [True, False])
    @pytest.mark.parametrize("seed", [2020, 7, 11])
    def test_random_streams(self, seed, allow_expansion, monkeypatch):
        # A low floor, so that the grown-log trigger fires in a short stream.
        monkeypatch.setattr(log_module, "RECLAIM_FLOOR", 12)
        rng = random.Random(seed)
        capacity = (HEADER_BYTES + PAYLOAD_BYTES) * 6
        log = HardwareLog(
            Region(MemoryKind.NVM, 0x1000, capacity), "test", allow_expansion
        )
        ref = ReferenceLog(capacity, allow_expansion)
        overflows = 0
        passes = freed_by_passes = 0
        for _ in range(3000):
            op = rng.random()
            tx_id = rng.choice(self.TX_POOL)
            if op < 0.74:
                if op < 0.58:
                    kind = rng.choice((RecordKind.UNDO, RecordKind.REDO, RecordKind.REDO))
                    line = rng.randrange(16) * LINE_SIZE
                    words = {
                        line + 8 * slot: rng.randrange(-(1 << 63), 1 << 63)
                        for slot in rng.sample(range(8), rng.randrange(9))
                    }
                    append = partial(log.append_data, kind, tx_id, line, words)
                else:
                    kind = rng.choice(
                        (RecordKind.COMMIT, RecordKind.COMMIT, RecordKind.ABORT)
                    )
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
            elif op < 0.79:
                assert log.reclaim(tx_id) == ref.reclaim(tx_id)
            elif op < 0.82:
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
            elif op < 0.84:
                doomed = rng.choices(self.TX_POOL, k=3)  # may repeat an id
                freed = sum(ref.reclaim(t) for t in doomed)
                assert log.reclaim_all(doomed) == freed
            elif op < 0.91:
                lines = [rng.randrange(16) * LINE_SIZE for _ in range(rng.randrange(4))]
                log.note_drained(lines)
                ref.note_drained(lines)
            elif op < 0.995:
                if op < 0.95:
                    freed = ref.reclaim_durable()
                    assert log.reclaim_durable() == freed
                else:
                    freed = ref.reclaim_when_grown()
                    assert log.reclaim_when_grown() == freed
                passes += 1
                freed_by_passes += freed
            else:
                log.wipe()
                ref.wipe()
            assert_same(log, ref, self.TX_POOL)
        assert passes > 100 and freed_by_passes > 0
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
