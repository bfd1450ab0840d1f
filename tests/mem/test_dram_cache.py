"""Tests for the DRAM cache in front of NVM."""

from __future__ import annotations

import heapq
import random

import pytest

from repro.mem.address import MemoryKind
from repro.mem.backend import BackingStore
from repro.mem.dram_cache import HEAP_SLACK, DramCache
from repro.params import LINE_SIZE, LatencyConfig, MemoryConfig


@pytest.fixture
def nvm():
    return BackingStore(MemoryKind.NVM, LatencyConfig())


def make_cache(nvm, lines=4):
    config = MemoryConfig(
        dram_cache_bytes=lines * LINE_SIZE, dram_cache_ways=min(lines, 16)
    )
    return DramCache(config, nvm)


class TestFillAndLookup:
    def test_fill_then_lookup(self, nvm):
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 7}, tx_id=1, committed=True)
        entry = cache.lookup(0x40)
        assert entry is not None
        assert entry.words[0x40] == 7

    def test_lookup_miss(self, nvm):
        assert make_cache(nvm).lookup(0x40) is None

    def test_fill_updates_existing(self, nvm):
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 1}, 1, committed=False)
        cache.fill(0x40, {0x48: 2}, 1, committed=True)
        entry = cache.lookup(0x40)
        assert entry.words == {0x40: 1, 0x48: 2}
        assert entry.committed


class TestEvictionAndDrain:
    def test_committed_lines_drain_to_nvm(self, nvm):
        cache = make_cache(nvm, lines=2)
        cache.fill(0x00, {0x00: 1}, 1, committed=True)
        cache.fill(0x40, {0x40: 2}, 1, committed=True)
        cache.fill(0x80, {0x80: 3}, 1, committed=True)  # evicts 0x00
        assert nvm.load(0x00) == 1
        assert cache.lookup(0x00) is None
        assert cache.drains == 1

    def test_uncommitted_lines_are_pinned(self, nvm):
        cache = make_cache(nvm, lines=2)
        cache.fill(0x00, {0x00: 1}, 1, committed=False)
        cache.fill(0x40, {0x40: 2}, 1, committed=False)
        cache.fill(0x80, {0x80: 3}, 2, committed=False)
        # Nothing drains: uncommitted data must not reach NVM in place.
        assert nvm.load(0x00) == 0
        assert cache.overcommits == 1

    def test_drain_all(self, nvm):
        cache = make_cache(nvm)
        cache.fill(0x00, {0x00: 1}, 1, committed=True)
        cache.fill(0x40, {0x40: 2}, 2, committed=False)
        drained = cache.drain_all()
        assert drained == 1
        assert nvm.load(0x00) == 1
        assert nvm.load(0x40) == 0  # uncommitted stays put


class TestInvalidation:
    def test_invalidate_uncommitted(self, nvm):
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 9}, tx_id=5, committed=False)
        assert cache.invalidate(0x40, tx_id=5)
        assert cache.lookup(0x40) is None
        assert cache.invalidations == 1

    def test_invalidate_wrong_tx_refused(self, nvm):
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 9}, tx_id=5, committed=False)
        assert not cache.invalidate(0x40, tx_id=6)
        assert cache.lookup(0x40) is not None

    def test_invalidate_committed_refused(self, nvm):
        """Committed data is durable; the abort path must never drop it."""
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 9}, tx_id=5, committed=True)
        assert not cache.invalidate(0x40, tx_id=5)

    def test_invalidated_line_never_drains(self, nvm):
        cache = make_cache(nvm, lines=2)
        cache.fill(0x00, {0x00: 1}, 1, committed=False)
        cache.invalidate(0x00, 1)
        cache.fill(0x40, {0x40: 2}, 2, committed=True)
        cache.fill(0x80, {0x80: 3}, 2, committed=True)
        cache.drain_all()
        assert nvm.load(0x00) == 0

    def test_invalidate_restores_the_committed_image(self, nvm):
        """Speculative words merged over a committed line: the abort puts
        the committed image back instead of dropping the line."""
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 1}, 1, committed=True)
        cache.fill(0x40, {0x40: 2, 0x48: 3}, 2, committed=False)
        assert not cache.lookup(0x40).committed
        assert cache.invalidate(0x40, 2)
        entry = cache.lookup(0x40)
        assert entry.words == {0x40: 1}
        assert entry.committed and not entry.invalid
        assert cache.drain_all() == 1
        assert (nvm.load(0x40), nvm.load(0x48)) == (1, 0)

    def test_commit_over_a_committed_image_keeps_the_merge(self, nvm):
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 1, 0x48: 1}, 1, committed=True)
        cache.fill(0x40, {0x40: 2}, 2, committed=False)
        cache.fill(0x40, {0x50: 2}, 2, committed=True)
        assert not cache.invalidate(0x40, 2)
        assert cache.lookup(0x40).words == {0x40: 2, 0x48: 1, 0x50: 2}

    def test_restored_line_drains_under_capacity_pressure(self, nvm):
        cache = make_cache(nvm, lines=2)
        cache.fill(0x00, {0x00: 1}, 1, committed=True)
        cache.fill(0x00, {0x00: 9}, 2, committed=False)
        cache.invalidate(0x00, 2)
        cache.fill(0x40, {0x40: 2}, 3, committed=True)
        cache.fill(0x80, {0x80: 3}, 3, committed=True)  # evicts 0x00
        assert nvm.load(0x00) == 1
        assert cache.lookup(0x00) is None


class _DrainLog:
    """An NVM stand-in that records which line each drain stores."""

    def __init__(self):
        self.drained = []

    def store_line(self, words):
        self.drained.append(min(words) & ~(LINE_SIZE - 1))


class _UncompactedCache(DramCache):
    """The victim heap without compaction: the reference drain order."""

    def _queue(self, seq, line_addr):
        heapq.heappush(self._evictable, (seq, line_addr))


class TestVictimHeap:
    @staticmethod
    def _ops(rng):
        """Rounds of a lookup-only phase over a hot set, then a mixed phase.

        During the lookup phase the cold lines stay least recently used,
        so nothing pops stale candidates off an uncompacted heap; the
        mixed phase fills, commits and invalidates lines, driving drains.
        """
        for _ in range(3):
            for _ in range(4000):
                yield "lookup", rng.randrange(4, 20) * LINE_SIZE, 0
            for _ in range(400):
                kind = rng.choice(
                    ("fill", "fill_committed", "invalidate", "lookup")
                )
                line = rng.randrange(32)
                yield kind, line * LINE_SIZE, 1 + line % 3  # one writer per line

    def test_lookups_keep_heap_bounded_and_drain_order(self):
        """A lookup-heavy loop keeps the heap small and drains as before.

        Each lookup of an evictable entry pushes a candidate, so without
        compaction the heap grows by one per hit.  The compacted cache
        must drain the same lines in the same order and keep the same
        resident set after every operation.
        """
        config = MemoryConfig(
            dram_cache_bytes=16 * LINE_SIZE, dram_cache_ways=16
        )
        compacted = DramCache(config, _DrainLog())
        reference = _UncompactedCache(config, _DrainLog())
        for cache in (compacted, reference):
            for i in range(16):
                cache.fill(i * LINE_SIZE, {i * LINE_SIZE: i}, 1, committed=True)
        largest = 0
        for kind, line, tx in self._ops(random.Random(7)):
            for cache in (compacted, reference):
                if kind == "lookup":
                    cache.lookup(line)
                elif kind == "invalidate":
                    cache.invalidate(line, tx)
                else:
                    cache.fill(line, {line: tx}, tx, kind == "fill_committed")
            assert len(compacted._evictable) <= HEAP_SLACK * (len(compacted) + 1)
            assert compacted.resident_lines() == reference.resident_lines()
            largest = max(largest, len(reference._evictable))
        assert compacted._nvm.drained == reference._nvm.drained
        assert len(compacted._nvm.drained) > 100
        assert largest > 2000  # the reference heap grew with the lookups


class TestVolatility:
    def test_wipe_loses_everything(self, nvm):
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 9}, 1, committed=True)
        cache.wipe()
        assert cache.lookup(0x40) is None
        assert nvm.load(0x40) == 0  # never drained → lost (redo log recovers)
