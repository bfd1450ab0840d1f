"""A generic set-associative tag array with LRU replacement."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..params import CacheGeometry, LINE_SIZE
from .coherence import MesiState

#: Set-index shift for the fixed simulator line size (64 B -> 6).
_LINE_SHIFT = LINE_SIZE.bit_length() - 1


@dataclass(slots=True)
class CacheLineMeta:
    """Metadata for one resident line.

    Slotted: hundreds of thousands of these are allocated per run (one per
    fill), so skipping the per-instance ``__dict__`` measurably cuts both
    allocation time and memory traffic.
    """

    line_addr: int
    dirty: bool = False
    #: MESI state of this copy (meaningful for L1 copies; LLC copies of
    #: lines with L1 holders defer to the L1 states).
    mesi: MesiState = MesiState.SHARED


class SetAssociativeArray:
    """Tag storage for one cache level (or one core's slice of it).

    Buckets are plain insertion-ordered dicts used as LRU queues: the first
    key is the LRU line, a touch is delete + reinsert (skipped when the line
    is already most-recent), and eviction pops the first key.  Set indexing
    is a shift-and-mask when the set count is a power of two (the common
    geometry), falling back to divide/modulo otherwise.
    """

    def __init__(self, geometry: CacheGeometry, name: str) -> None:
        self.geometry = geometry
        self.name = name
        num_sets = geometry.num_sets
        self._sets: List[Dict[int, CacheLineMeta]] = [
            {} for _ in range(num_sets)
        ]
        self._num_sets = num_sets
        #: ``num_sets - 1`` when the geometry allows true bitmask indexing,
        #: else ``None`` (modulo fallback).  Earlier revisions stored the raw
        #: set *count* here, which only worked because it was used as a
        #: modulus — it was never a mask.
        self._set_mask: Optional[int] = (
            num_sets - 1 if num_sets & (num_sets - 1) == 0 else None
        )
        self._ways = geometry.ways
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _set_of(self, line_addr: int) -> Dict[int, CacheLineMeta]:
        mask = self._set_mask
        if mask is not None:
            return self._sets[(line_addr >> _LINE_SHIFT) & mask]
        return self._sets[(line_addr // LINE_SIZE) % self._num_sets]

    def lookup(self, line_addr: int, touch: bool = True) -> Optional[CacheLineMeta]:
        """Probe for a line; refresh its LRU position on a hit."""
        mask = self._set_mask
        if mask is not None:
            bucket = self._sets[(line_addr >> _LINE_SHIFT) & mask]
        else:
            bucket = self._sets[(line_addr // LINE_SIZE) % self._num_sets]
        meta = bucket.get(line_addr)
        if meta is None:
            self.misses += 1
            return None
        if touch:
            del bucket[line_addr]
            bucket[line_addr] = meta
        self.hits += 1
        return meta

    def peek(self, line_addr: int) -> Optional[CacheLineMeta]:
        """Probe without touching LRU state or hit/miss counters."""
        mask = self._set_mask
        if mask is not None:
            return self._sets[(line_addr >> _LINE_SHIFT) & mask].get(line_addr)
        return self._sets[(line_addr // LINE_SIZE) % self._num_sets].get(
            line_addr
        )

    def fill(
        self, line_addr: int
    ) -> Tuple[CacheLineMeta, Sequence[CacheLineMeta]]:
        """Insert a line (must not be resident); returns (meta, victims).

        The fused form of :meth:`install` + a follow-up probe: fill paths
        need the fresh metadata immediately, and re-probing the set for a
        line just installed was pure overhead.  Callers fill only after a
        probe missed, so residency is not re-checked here; :meth:`install`
        keeps the guard for direct users.  The no-eviction common case
        returns a shared empty tuple instead of allocating a list.
        """
        mask = self._set_mask
        if mask is not None:
            bucket = self._sets[(line_addr >> _LINE_SHIFT) & mask]
        else:
            bucket = self._sets[(line_addr // LINE_SIZE) % self._num_sets]
        ways = self._ways
        if len(bucket) < ways:
            meta = CacheLineMeta(line_addr)
            bucket[line_addr] = meta
            return meta, ()
        evicted: List[CacheLineMeta] = []
        while len(bucket) >= ways:
            victim_addr = next(iter(bucket))  # LRU end
            evicted.append(bucket.pop(victim_addr))
            self.evictions += 1
        meta = CacheLineMeta(line_addr)
        bucket[line_addr] = meta
        return meta, evicted

    def install(self, line_addr: int) -> List[CacheLineMeta]:
        """Insert a line (must not be resident); returns evicted victims."""
        assert (
            self.peek(line_addr) is None
        ), f"{self.name}: double install {line_addr:#x}"
        return list(self.fill(line_addr)[1])

    def remove(self, line_addr: int) -> Optional[CacheLineMeta]:
        """Invalidate a line, returning its metadata if present."""
        return self._set_of(line_addr).pop(line_addr, None)

    def resident_count(self) -> int:
        return sum(len(bucket) for bucket in self._sets)

    def resident_lines(self) -> List[int]:
        lines: List[int] = []
        for bucket in self._sets:
            lines.extend(bucket.keys())
        return lines

    def clear(self) -> None:
        for bucket in self._sets:
            bucket.clear()

    def occupancy_by_predicate(self, predicate) -> int:
        return sum(
            1
            for bucket in self._sets
            for meta in bucket.values()
            if predicate(meta)
        )
