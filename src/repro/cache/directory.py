"""The coherence directory, extended with transactional fields.

Section IV-D: "UHTM introduces new fields in the directory entry: Tx-bit,
Tx-Owner, and Tx-Sharer. ... These fields store the transaction IDs, instead
of core IDs to handle a context switch."

The directory holds an entry per line that has transactional readers or a
transactional writer while the line is on-chip.  Conflict checks implement
the paper's three cases: an exclusive request (GetM) against an existing
``Tx-Owner`` is write-after-write; against ``Tx-Sharer`` entries it is
read-after-write [the requester writes what others read]; a shared request
(GetS) against a ``Tx-Owner`` is write-after-read.  Entries are cleared when
their transaction commits or aborts, and are migrated out (to signatures or
exact overflow sets, per design) when the line leaves the LLC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set


@dataclass(slots=True)
class DirectoryEntry:
    """Transactional tracking for one on-chip line.

    Slotted: one entry lives per transactionally touched on-chip line, and
    entries churn on every commit/abort/eviction, so skipping the
    per-instance ``__dict__`` cuts allocation cost.
    """

    line_addr: int
    tx_owner: Optional[int] = None
    tx_sharers: Set[int] = field(default_factory=set)

    @property
    def tx_bit(self) -> bool:
        return self.tx_owner is not None or bool(self.tx_sharers)


@dataclass(frozen=True)
class DirectoryConflict:
    """A precise on-chip conflict: the requester collided with ``victims``."""

    line_addr: int
    #: Transactions the requested access collides with.
    victims: frozenset
    #: "raw", "waw", or "war" — for statistics only.
    kind: str


class Directory:
    """Sparse map from line address to transactional directory entry."""

    def __init__(self) -> None:
        self._entries: Dict[int, DirectoryEntry] = {}
        #: Reverse index: tx id -> lines it is registered on, so commit and
        #: abort clear a transaction's fields without scanning the directory.
        self._lines_of_tx: Dict[int, Set[int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, line_addr: int) -> Optional[DirectoryEntry]:
        return self._entries.get(line_addr)

    # -- conflict checks ------------------------------------------------------

    def check_access(
        self, line_addr: int, tx_id: Optional[int], is_write: bool
    ) -> Optional[DirectoryConflict]:
        """Check an incoming access against the entry's Tx fields.

        ``tx_id`` is ``None`` for non-transactional accesses.  Returns a
        conflict naming every transaction the access collides with, or
        ``None``.  The access is *not* recorded; call :meth:`record_access`
        after resolution decides it may proceed.
        """
        entry = self._entries.get(line_addr)
        if entry is None:
            return None
        owner = entry.tx_owner
        if owner == tx_id:
            owner = None
        if not is_write:
            # A read conflicts only with a foreign Tx-Owner.
            if owner is None:
                return None
            return DirectoryConflict(line_addr, frozenset((owner,)), "war")
        sharers = entry.tx_sharers
        if owner is None and (not sharers or (len(sharers) == 1 and tx_id in sharers)):
            return None
        victims = set() if owner is None else {owner}
        victims.update({t for t in sharers if t != tx_id})
        kind = "raw" if owner is None else "waw"
        return DirectoryConflict(line_addr, frozenset(victims), kind)

    # -- recording ------------------------------------------------------------

    def record_access(self, line_addr: int, tx_id: int, is_write: bool) -> None:
        """Set Tx-Owner / add to Tx-Sharer for a permitted access.

        A repeat access returns early: a transaction named in an entry
        always has the line in its ``_lines_of_tx`` set, so there is
        nothing left to record.
        """
        entry = self._entries.get(line_addr)
        if entry is None:
            entry = DirectoryEntry(line_addr)
            self._entries[line_addr] = entry
        elif entry.tx_owner == tx_id if is_write else tx_id in entry.tx_sharers:
            return
        if is_write:
            entry.tx_owner = tx_id
        else:
            entry.tx_sharers.add(tx_id)
        lines = self._lines_of_tx.get(tx_id)
        if lines is None:
            self._lines_of_tx[tx_id] = {line_addr}
        else:
            lines.add(line_addr)

    # -- clearing ---------------------------------------------------------------

    def clear_transaction(self, tx_id: int) -> int:
        """Drop all of a transaction's fields (commit or abort); returns
        the number of lines touched."""
        lines = self._lines_of_tx.pop(tx_id, None)
        if not lines:
            return 0
        for line_addr in lines:
            entry = self._entries.get(line_addr)
            if entry is None:
                continue
            if entry.tx_owner == tx_id:
                entry.tx_owner = None
            entry.tx_sharers.discard(tx_id)
            if not entry.tx_bit:
                del self._entries[line_addr]
        return len(lines)

    def evict_line(self, line_addr: int) -> Optional[DirectoryEntry]:
        """Remove and return a line's entry when it leaves the LLC.

        The caller migrates the returned owner/sharers into the design's
        overflow tracking (signatures, exact sets, or a capacity abort).
        """
        entry = self._entries.pop(line_addr, None)
        if entry is None:
            return None
        if entry.tx_owner is not None:
            self._discard_line_of(entry.tx_owner, line_addr)
        for tx_id in sorted(entry.tx_sharers):
            self._discard_line_of(tx_id, line_addr)
        return entry

    def _discard_line_of(self, tx_id: int, line_addr: int) -> None:
        lines = self._lines_of_tx.get(tx_id)
        if lines is not None:
            lines.discard(line_addr)
            if not lines:
                del self._lines_of_tx[tx_id]

    # -- queries ----------------------------------------------------------------

    def lines_of(self, tx_id: int) -> Set[int]:
        return set(self._lines_of_tx.get(tx_id, ()))

    def transactions_on(self, line_addr: int) -> Iterable[int]:
        entry = self._entries.get(line_addr)
        if entry is None:
            return ()
        present: List[int] = []
        if entry.tx_owner is not None:
            present.append(entry.tx_owner)
        present.extend(entry.tx_sharers)
        return present
