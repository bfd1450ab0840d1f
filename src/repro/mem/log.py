"""Hardware log areas appended by the memory controllers.

Two instances exist: the DRAM log (undo records for LLC-overflowed volatile
lines, or redo records under the Figure 10 ablation) and the NVM log (redo
records for persistent lines).  The controller serialises concurrent appends
to the end of the area (Section IV-B), so the log is modelled as an ordered
sequence of records plus a byte cursor for space accounting.

Records carry real line contents so that abort rollback and post-crash
recovery genuinely restore data, making consistency a testable property.

A log can hold tens of thousands of records on overflow workloads, so it
is stored column by column in typed arrays, not as one object per record:
about 60 B per one-word data record instead of about 350 B.
:class:`LogRecord` tuples are built only on demand.  Reclamation drops a
whole set of transactions in one pass over the columns.

The NVM log is also reclaimed in the background (Section IV-C), by
:meth:`HardwareLog.reclaim_durable`: a committed redo record goes once
every word it carries has a newer durable copy, and a mark goes once its
transaction has no data records left.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_left
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Set, Tuple

from ..errors import LogOverflowError
from ..params import LINE_SIZE
from .address import Region

#: Bytes per record header: transaction id, address, kind, sequence.
HEADER_BYTES = 16
#: Bytes of payload in a data record (one cache line image).
PAYLOAD_BYTES = LINE_SIZE
#: Full size of a data record, precomputed for the append hot path.
_DATA_RECORD_BYTES = HEADER_BYTES + PAYLOAD_BYTES


class RecordKind(enum.Enum):
    UNDO = "undo"
    REDO = "redo"
    COMMIT = "commit"
    ABORT = "abort"


#: Kind column codes: a record's kind is ``_KINDS[code]``.  Data kinds come
#: first, so ``code < _FIRST_MARK`` tests for a data record.  Codes are
#: found with ``_KINDS.index``, which compares by identity first: hashing
#: an enum member calls Python code.
_KINDS = (RecordKind.UNDO, RecordKind.REDO, RecordKind.COMMIT, RecordKind.ABORT)
_FIRST_MARK = _COMMIT = _KINDS.index(RecordKind.COMMIT)
_ABORT = _KINDS.index(RecordKind.ABORT)
_REDO = _KINDS.index(RecordKind.REDO)

#: Rows a log holds before its first background reclamation pass; each
#: later pass waits until the log has doubled since the previous one.
RECLAIM_FLOOR = 1024


class LogRecord(NamedTuple):
    """One appended record, as the log's queries return it.

    ``words`` maps word addresses inside the line to their logged values —
    old values for UNDO, new values for REDO; empty for marks.

    The log does not keep these: it stores its records as columns and
    builds a ``LogRecord`` for the append return value, the observers,
    iteration and :meth:`HardwareLog.records_of`.
    """

    kind: RecordKind
    tx_id: int
    line_addr: int
    words: Tuple[Tuple[int, int], ...]
    sequence: int

    @property
    def size_bytes(self) -> int:
        if self.kind is RecordKind.COMMIT or self.kind is RecordKind.ABORT:
            return HEADER_BYTES
        return HEADER_BYTES + PAYLOAD_BYTES


def _splice(column: array, cut: int, runs: List[Tuple[int, int]]) -> array:
    """``column[:cut]`` followed by each ``column[start:stop]`` of ``runs``."""
    kept = column[:cut]
    for start, stop in runs:
        kept += column[start:stop]
    return kept


class HardwareLog:
    """An append-only log confined to one reserved region.

    Record ``i`` is row ``i`` of the record columns (kind code, tx id, line
    address, sequence number); its words are
    ``_addrs``/``_values[_offsets[i]:_offsets[i + 1]]``.  Values are
    stored as signed 64-bit words; appending any other value raises
    ``OverflowError`` and stores no record.  ``_by_tx`` maps each
    transaction with live data records to their row numbers, in append
    order, so rollback and ``records_of`` do not scan (the overflow list
    plays this role in hardware); its keys are ordered by each
    transaction's first live row.

    When an append would overflow the reserved area, the controller
    "traps the operating system to expand the log area" (Section IV-E);
    that is modelled by doubling the capacity and counting the trap.  Set
    ``allow_expansion=False`` to get a hard :class:`LogOverflowError`
    instead (useful for sizing studies).  Records leave only through
    reclamation: at commit or abort, in the background
    (:meth:`reclaim_durable`) or at recovery, never under capacity
    pressure.
    """

    def __init__(
        self, region: Region, name: str, allow_expansion: bool = True
    ) -> None:
        self._name = name
        self._capacity_bytes = region.size
        self._allow_expansion = allow_expansion
        self._sequence = 0
        self.wipe()
        #: OS traps taken to grow the area.
        self.expansions = 0
        #: Observers notified after every append (fault injectors and crash
        #: oracles watch the NVM log through this).
        self._observers: List[Callable[[LogRecord], None]] = []
        #: Optional event tracer (see :mod:`repro.obs`): every append is
        #: emitted as a ``log.append`` event when attached.
        self.tracer = None

    @property
    def name(self) -> str:
        return self._name

    @property
    def used_bytes(self) -> int:
        return self._cursor_bytes

    @property
    def capacity_bytes(self) -> int:
        return self._capacity_bytes

    def __len__(self) -> int:
        return len(self._kinds)

    def __iter__(self) -> Iterator[LogRecord]:
        return map(self._record, range(len(self._kinds)))

    def _record(self, row: int) -> LogRecord:
        start = self._offsets[row]
        stop = self._offsets[row + 1]
        return LogRecord(
            _KINDS[self._kinds[row]],
            self._tx_ids[row],
            self._lines[row],
            tuple(zip(self._addrs[start:stop], self._values[start:stop])),
            self._sequences[row],
        )

    # -- appends -----------------------------------------------------------

    def append_data(
        self,
        kind: RecordKind,
        tx_id: int,
        line_addr: int,
        words: Dict[int, int],
    ) -> LogRecord:
        code = _KINDS.index(kind)
        if code >= _FIRST_MARK:
            raise ValueError(f"append_data takes UNDO/REDO, got {kind}")
        return self._append(code, tx_id, line_addr, tuple(sorted(words.items())))

    def append_mark(self, kind: RecordKind, tx_id: int) -> LogRecord:
        code = _KINDS.index(kind)
        if code < _FIRST_MARK:
            raise ValueError(f"append_mark takes COMMIT/ABORT, got {kind}")
        return self._append(code, tx_id, 0, ())

    def _append(
        self,
        code: int,
        tx_id: int,
        line_addr: int,
        words: Tuple[Tuple[int, int], ...],
    ) -> LogRecord:
        self._sequence += 1
        record = LogRecord(_KINDS[code], tx_id, line_addr, words, self._sequence)
        is_data = code < _FIRST_MARK
        size = _DATA_RECORD_BYTES if is_data else HEADER_BYTES
        while self._cursor_bytes + size > self._capacity_bytes:
            if not self._allow_expansion:
                raise LogOverflowError(
                    f"{self._name} log exhausted "
                    f"({self._cursor_bytes}/{self._capacity_bytes} bytes)"
                )
            self._capacity_bytes *= 2
            self.expansions += 1
        addrs = self._addrs
        values = self._values
        end = len(addrs)
        try:
            for addr, value in words:
                values.append(value)
                addrs.append(addr)
        except OverflowError:
            # Not a signed 64-bit word: leave the columns as they were.
            del addrs[end:], values[end:]
            raise
        row = len(self._kinds)
        self._offsets.append(len(addrs))
        self._kinds.append(code)
        self._tx_ids.append(tx_id)
        self._lines.append(line_addr)
        self._sequences.append(self._sequence)
        self._cursor_bytes += size
        if is_data:
            # Index before notifying observers: an observer may model a
            # power failure by raising, and the record is already durable.
            rows = self._by_tx.get(tx_id)
            if rows is None:
                self._by_tx[tx_id] = array("q", (row,))
            else:
                rows.append(row)
        if self.tracer is not None:
            self.tracer.emit(
                "log.append",
                tx_id=tx_id,
                log=self._name,
                record=record.kind.value,
                line_addr=line_addr,
                sequence=self._sequence,
            )
        for observer in self._observers:
            observer(record)
        return record

    def add_observer(self, observer: Callable[[LogRecord], None]) -> None:
        """Call ``observer`` with every record after it is appended.

        Observers may raise :class:`~repro.errors.PowerFailure` to model a
        crash immediately after the append — the record is already durable
        (for the NVM log) when they run.
        """
        self._observers.append(observer)

    # -- queries -----------------------------------------------------------

    def records_of(self, tx_id: int) -> List[LogRecord]:
        """Data records appended by ``tx_id``, in append order."""
        return [self._record(row) for row in self._by_tx.get(tx_id, ())]

    def committed_tx_ids(self) -> List[int]:
        return self._marked(_COMMIT)

    def aborted_tx_ids(self) -> List[int]:
        return self._marked(_ABORT)

    def _marked(self, mark: int) -> List[int]:
        return [tx for code, tx in zip(self._kinds, self._tx_ids) if code == mark]

    def data_tx_ids(self) -> List[int]:
        """Transactions that still have live data records in the area."""
        return list(self._by_tx)

    # -- reclamation -------------------------------------------------------

    def reclaim(self, tx_id: int) -> int:
        """Drop a completed transaction's data records; returns bytes freed.

        Mirrors the deferred background log reclamation of Section IV-C.
        """
        return self.reclaim_all((tx_id,))

    def reclaim_all(self, tx_ids: Iterable[int], marks: bool = False) -> int:
        """Drop the data records of every transaction in ``tx_ids`` in one
        pass; returns bytes freed.

        Leaves exactly what :meth:`reclaim` called on each id in turn would
        leave.  With ``marks``, every commit and abort mark goes too.
        """
        by_tx = self._by_tx
        doomed: List[int] = []
        for tx_id in tx_ids:
            rows = by_tx.pop(tx_id, None)
            if rows is not None:
                doomed += rows
        freed = len(doomed) * _DATA_RECORD_BYTES
        if marks:
            mark_rows = [r for r, code in enumerate(self._kinds) if code >= _FIRST_MARK]
            freed += len(mark_rows) * HEADER_BYTES
            doomed += mark_rows
        if doomed:
            doomed.sort()
            self._rebuild(doomed)
            self._reindex(doomed[0])
            self._cursor_bytes -= freed
        return freed

    def note_drained(self, lines: Iterable[int]) -> None:
        """Record that ``lines`` were just written to NVM in place, each
        carrying the values of every commit whose mark is already logged.

        Each line is stamped with the current sequence number.  The caller
        leaves out a drain that predates values already committed, such as
        a line drained during a commit before that commit filled it.
        """
        stamp = self._sequence
        drained_at = self._drained_at
        for line_addr in lines:
            drained_at[line_addr] = stamp

    def reclaim_when_grown(self) -> int:
        """Run :meth:`reclaim_durable` once the log has reached
        :data:`RECLAIM_FLOOR` rows and doubled since the last pass; returns
        bytes freed."""
        if len(self._kinds) < self._next_reclaim:
            return 0
        return self.reclaim_durable()

    def reclaim_durable(self) -> int:
        """Drop every record recovery no longer needs, in one pass; returns
        bytes freed.

        Only redo records that recovery would replay may go: their
        transaction has a commit mark and no abort mark.  One goes once
        each of its words has a newer durable copy, either a drain of its
        line noted since the record and its commit mark were appended
        (:meth:`note_drained`), or a later replayed record that carries the
        same word.  Coverage is per word: recovery replays in log order, so
        a later record for the line that lacks some of the words leaves
        them to the older one.  A commit or abort mark goes once its
        transaction has no data records left.

        Drain stamps are consumed: a record a stamp covers goes now, and a
        record appended or committed later is newer than the stamp.
        """
        kinds = self._kinds
        tx_ids = self._tx_ids
        sequences = self._sequences
        mark_rows = [row for row, code in enumerate(kinds) if code >= _FIRST_MARK]
        replayed = {
            tx_ids[row]: sequences[row] for row in mark_rows if kinds[row] == _COMMIT
        }
        for row in mark_rows:
            if kinds[row] == _ABORT:
                replayed.pop(tx_ids[row], None)
        drained_at = self._drained_at
        lines = self._lines
        offsets = self._offsets
        addrs = self._addrs
        covered: Set[int] = set()
        doomed: List[int] = []
        for row in range(len(kinds) - 1, -1, -1):  # newest first
            committed_at = replayed.get(tx_ids[row])
            if committed_at is None or kinds[row] != _REDO:
                continue
            words = addrs[offsets[row] : offsets[row + 1]]
            stamp = drained_at.get(lines[row], 0)
            if (
                stamp >= committed_at and stamp >= sequences[row]
            ) or covered.issuperset(words):
                doomed.append(row)
            covered.update(words)
        self._drained_at = {}
        freed = len(doomed) * _DATA_RECORD_BYTES
        gone = set(doomed)
        by_tx = self._by_tx
        for row in mark_rows:
            if gone.issuperset(by_tx.get(tx_ids[row], ())):
                doomed.append(row)
                freed += HEADER_BYTES
        if doomed:
            doomed.sort()
            self._rebuild(doomed)
            self._by_tx = {}
            self._reindex(0)
            self._cursor_bytes -= freed
        self._next_reclaim = max(RECLAIM_FLOOR, 2 * len(self._kinds))
        return freed

    def _rebuild(self, doomed: List[int]) -> None:
        """Delete the rows in ``doomed`` (sorted) from every column.

        Rows before the first doomed one keep their numbers, so only the
        columns' tails are copied.
        """
        cut = doomed[0]
        runs: List[Tuple[int, int]] = []
        start = cut
        for row in doomed:
            if row > start:
                runs.append((start, row))
            start = row + 1
        if start < len(self._kinds):
            runs.append((start, len(self._kinds)))
        offsets = self._offsets
        word_runs = [(offsets[start], offsets[stop]) for start, stop in runs]
        self._addrs = _splice(self._addrs, offsets[cut], word_runs)
        self._values = _splice(self._values, offsets[cut], word_runs)
        kept = offsets[: cut + 1]
        for start, stop in runs:
            shift = kept[-1] - offsets[start]
            kept.extend(map(shift.__add__, offsets[start + 1 : stop + 1]))
        self._offsets = kept
        self._kinds = _splice(self._kinds, cut, runs)
        self._tx_ids = _splice(self._tx_ids, cut, runs)
        self._lines = _splice(self._lines, cut, runs)
        self._sequences = _splice(self._sequences, cut, runs)

    def _reindex(self, cut: int) -> None:
        """Renumber the ``_by_tx`` rows from ``cut`` on, after
        :meth:`_rebuild` deleted rows from ``cut`` on.  A transaction
        without an entry gets one when its first live row is reached."""
        kinds = self._kinds
        tx_ids = self._tx_ids
        by_tx = self._by_tx
        for rows in by_tx.values():
            if rows[-1] >= cut:
                del rows[bisect_left(rows, cut) :]
        for row in range(cut, len(kinds)):
            if kinds[row] < _FIRST_MARK:
                rows = by_tx.get(tx_ids[row])
                if rows is None:
                    by_tx[tx_ids[row]] = array("q", (row,))
                else:
                    rows.append(row)

    def wipe(self) -> None:
        """Lose all contents (crash of a volatile log)."""
        self._kinds = array("b")
        self._tx_ids = array("q")
        self._lines = array("q")
        self._sequences = array("q")
        self._offsets = array("q", (0,))
        self._addrs = array("q")
        self._values = array("q")
        self._by_tx: Dict[int, array] = {}
        self._cursor_bytes = 0
        #: Line address -> sequence number at its last drain to NVM since
        #: the last background pass (see :meth:`note_drained`).
        self._drained_at: Dict[int, int] = {}
        self._next_reclaim = RECLAIM_FLOOR
