"""The DRAM cache between the LLC and NVM (Jeong et al., MICRO'18).

Under redo logging for persistent data, committed new values are flushed to
this DRAM cache instead of to slow NVM; in-place NVM updates happen later,
when lines drain out of the DRAM cache in the background.  Uncommitted
early-evicted lines also land here so a transactional read never has to
search the NVM log (the "read-indirection" problem undo logging avoids for
DRAM data).

Entries carry an owner transaction, a committed flag, and an invalidate bit;
aborting a transaction just sets invalidate bits via the overflow list
(Section IV-C).  Only committed, valid lines may drain to NVM.

A transaction may spill a line whose committed new values have not drained
yet.  Its speculative words then merge over the committed ones, so the
entry keeps the committed image aside (``committed_words``); aborting the
speculative owner restores that image instead of dropping the line, which
would lose a commit from the architectural view.  Restoring keeps the line
where it was; draining the committed image to NVM before the merge would
also be correct, but it would add in-place NVM writes the hardware does not
make.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..params import LINE_SIZE, MemoryConfig
from .backend import BackingStore

#: Victim-heap items allowed per resident entry before a rebuild.
HEAP_SLACK = 4


@dataclass(slots=True)
class DramCacheEntry:
    line_addr: int
    words: Dict[int, int] = field(default_factory=dict)
    tx_id: Optional[int] = None
    committed: bool = False
    invalid: bool = False
    #: The committed image under an uncommitted owner's merged words, or
    #: ``None`` when the entry holds no committed words or is committed.
    committed_words: Optional[Dict[int, int]] = None
    #: LRU stamp: strictly increases on every insert or LRU refresh, so
    #: ascending ``lru_seq`` is exactly the cache's LRU order.
    lru_seq: int = 0


class DramCache:
    """An LRU-managed buffer of NVM-bound lines, with invalidate bits.

    Victim selection — the least-recently-used entry that is invalid or
    committed — used to be a front-to-back scan of the whole LRU list, which
    went quadratic whenever the front filled up with uncommitted lines.  It
    is now a lazy min-heap of ``(lru_seq, line)`` candidates: entries are
    pushed whenever they become (or are refreshed while) evictable, and
    stale items (removed lines, reordered lines, lines no longer evictable)
    are skipped by validity checks at pop time.  Since ascending ``lru_seq``
    equals LRU order, the heap minimum is the same victim the scan found.
    Lookups push but never pop, so once the heap holds more than
    :data:`HEAP_SLACK` items per entry it is rebuilt from the live
    candidates; those are all queued already, so victim order is unchanged.
    """

    def __init__(self, config: MemoryConfig, nvm: BackingStore) -> None:
        self._capacity_lines = max(1, config.dram_cache_bytes // LINE_SIZE)
        self._nvm = nvm
        self._entries: "OrderedDict[int, DramCacheEntry]" = OrderedDict()
        self._seq = 0
        self._evictable: List[Tuple[int, int]] = []
        self.fills = 0
        self.hits = 0
        self.drains = 0
        self.invalidations = 0
        #: Times the cache held more uncommitted lines than its capacity —
        #: hardware would stall the pipeline here; we count instead.
        self.overcommits = 0

    @property
    def capacity_lines(self) -> int:
        return self._capacity_lines

    def __len__(self) -> int:
        return len(self._entries)

    def _stamp(self, entry: DramCacheEntry) -> None:
        """Give ``entry`` the freshest LRU stamp; queue it if evictable."""
        self._seq += 1
        entry.lru_seq = self._seq
        if entry.invalid or entry.committed:
            self._queue(entry.lru_seq, entry.line_addr)

    def _queue(self, seq: int, line_addr: int) -> None:
        """Push a victim candidate; drop the stale ones once they pile up."""
        heap = self._evictable
        heapq.heappush(heap, (seq, line_addr))
        if len(heap) > HEAP_SLACK * (len(self._entries) + 1):
            heap[:] = [
                (e.lru_seq, e.line_addr)
                for e in self._entries.values()
                if e.invalid or e.committed
            ]
            heapq.heapify(heap)

    # -- lookups -----------------------------------------------------------

    def lookup(self, line_addr: int) -> Optional[DramCacheEntry]:
        """Return the valid entry for ``line_addr`` and refresh its LRU slot."""
        entry = self._entries.get(line_addr)
        if entry is None or entry.invalid:
            return None
        self._entries.move_to_end(line_addr)
        self._stamp(entry)
        self.hits += 1
        return entry

    def contains(self, line_addr: int) -> bool:
        entry = self._entries.get(line_addr)
        return entry is not None and not entry.invalid

    # -- fills and commits ---------------------------------------------------

    def fill(
        self,
        line_addr: int,
        words: Dict[int, int],
        tx_id: Optional[int],
        committed: bool,
    ) -> List[int]:
        """Insert or update a line; returns the lines it drained to NVM.

        Draining models the background in-place NVM update; the returned
        lines let the controller account NVM write bandwidth and reclaim
        the redo records the drains made redundant, off any thread's
        critical path.
        """
        self.fills += 1
        entry = self._entries.get(line_addr)
        if entry is not None and not entry.invalid:
            if committed:
                entry.committed_words = None
            elif entry.committed:
                entry.committed_words = dict(entry.words)
            entry.words.update(words)
            entry.tx_id = tx_id
            entry.committed = committed
            self._entries.move_to_end(line_addr)
            self._stamp(entry)
            return []
        replacing_invalid = entry is not None
        entry = DramCacheEntry(line_addr, dict(words), tx_id, committed)
        self._entries[line_addr] = entry
        if replacing_invalid:
            # Assignment over an existing (invalid) key keeps its position
            # in the OrderedDict; a fresh key already lands at the MRU end.
            self._entries.move_to_end(line_addr)
        self._stamp(entry)
        return self._enforce_capacity()

    def invalidate(self, line_addr: int, tx_id: int) -> bool:
        """Set the invalidate bit on an uncommitted entry (abort path).

        An entry that merged the words over a committed image gets that
        image back, committed, instead of the invalidate bit.
        """
        entry = self._entries.get(line_addr)
        if entry is None or entry.tx_id != tx_id or entry.committed:
            return False
        if entry.committed_words is not None:
            entry.words = entry.committed_words
            entry.committed_words = None
            entry.tx_id = None
            entry.committed = True
            self.invalidations += 1
            self._queue(entry.lru_seq, line_addr)
        elif not entry.invalid:
            entry.invalid = True
            self.invalidations += 1
            self._queue(entry.lru_seq, line_addr)
        return True

    # -- draining ------------------------------------------------------------

    def _enforce_capacity(self) -> List[int]:
        drained: List[int] = []
        while len(self._entries) > self._capacity_lines:
            victim = self._pick_victim()
            if victim is None:
                # Everything resident is uncommitted; hardware would stall.
                self.overcommits += 1
                break
            if self._drain(victim):
                drained.append(victim)
        return drained

    def _pick_victim(self) -> Optional[int]:
        heap = self._evictable
        entries = self._entries
        while heap:
            seq, line_addr = heap[0]
            entry = entries.get(line_addr)
            if (
                entry is None
                or entry.lru_seq != seq
                or not (entry.invalid or entry.committed)
            ):
                heapq.heappop(heap)  # stale candidate
                continue
            return line_addr
        return None

    def _drain(self, line_addr: int) -> int:
        entry = self._entries.pop(line_addr)
        if entry.invalid:
            return 0
        self._nvm.store_line(entry.words)
        self.drains += 1
        return 1

    def drain_all(self) -> int:
        """Flush every committed line to NVM (quiesce, e.g. before checks)."""
        drained = 0
        for line_addr in list(self._entries):
            entry = self._entries[line_addr]
            if entry.invalid:
                del self._entries[line_addr]
            elif entry.committed:
                drained += self._drain(line_addr)
        return drained

    def wipe(self) -> None:
        """Lose all contents (the DRAM cache is volatile)."""
        self._entries.clear()
        self._evictable.clear()

    def resident_lines(self) -> List[Tuple[int, bool, bool]]:
        """(line, committed, invalid) triples, LRU order — for tests."""
        return [
            (e.line_addr, e.committed, e.invalid) for e in self._entries.values()
        ]
