"""Tests for the signature hash families."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.signatures import hashing
from repro.signatures.bloom import BloomFilter
from repro.signatures.hashing import H3HashFamily, MultiplicativeHashFamily


@pytest.mark.parametrize("family_cls", [H3HashFamily, MultiplicativeHashFamily])
class TestHashFamilyContract:
    def test_indices_in_range(self, family_cls):
        family = family_cls(functions=4, buckets=128)
        for value in (0, 1, 64, 0x12345678, 2**40):
            for index in family.indices(value):
                assert 0 <= index < 128

    def test_right_number_of_functions(self, family_cls):
        family = family_cls(functions=3, buckets=64)
        assert len(list(family.indices(0xABC))) == 3

    def test_deterministic(self, family_cls):
        family = family_cls(functions=4, buckets=256)
        assert list(family.indices(1234)) == list(family.indices(1234))

    def test_same_seed_same_family(self, family_cls):
        a = family_cls(functions=4, buckets=256, seed=9)
        b = family_cls(functions=4, buckets=256, seed=9)
        assert list(a.indices(777)) == list(b.indices(777))

    def test_different_seeds_differ(self, family_cls):
        a = family_cls(functions=4, buckets=4096, seed=1)
        b = family_cls(functions=4, buckets=4096, seed=2)
        diffs = sum(
            list(a.indices(v)) != list(b.indices(v)) for v in range(0, 6400, 64)
        )
        assert diffs > 90  # nearly all inputs should map differently

    def test_validation(self, family_cls):
        with pytest.raises(ValueError):
            family_cls(functions=0, buckets=64)
        with pytest.raises(ValueError):
            family_cls(functions=2, buckets=0)


@pytest.mark.parametrize("family_cls", [H3HashFamily, MultiplicativeHashFamily])
class TestUniformity:
    def test_line_addresses_spread_over_buckets(self, family_cls):
        """Line-aligned addresses (the real input) must not cluster."""
        buckets = 64
        family = family_cls(functions=1, buckets=buckets)
        counts = [0] * buckets
        n = 4096
        base = 0x1000_0000
        for i in range(n):
            counts[list(family.indices(base + i * 64))[0]] += 1
        expected = n / buckets
        # Loose 3-sigma-ish bound on the max bucket.
        assert max(counts) < expected * 2
        assert min(counts) > expected / 3

    def test_functions_are_mutually_independent_ish(self, family_cls):
        """Two hash functions should rarely agree on an index."""
        buckets = 1024
        family = family_cls(functions=2, buckets=buckets)
        agreements = 0
        for i in range(2000):
            h1, h2 = family.indices(0x2000_0000 + i * 64)
            agreements += h1 == h2
        # Expected agreements ≈ 2000/1024 ≈ 2; allow generous slack.
        assert agreements < 30


class TestIndexMemo:
    """The per-family memo of index tuples: bounded, small, answer-neutral.

    Memo tuples share one ``int`` object per index value through the
    family's intern table, which brings an entry from about 260 B to about
    160 B under tracemalloc (Python 3.11).
    """

    def test_footprint_per_distinct_address(self):
        """Inserting then probing a new line address costs at most 320 B.

        The cost is the memo entry (the value, its index tuple and the dict
        slot) plus a share of the family's intern table, about 210 B over
        4096 lines; the filter's byte array does not grow.  The bound
        fails a memo that also keeps a 4096-bit mask per address (about
        850 B).
        """
        lines = 4096
        family = MultiplicativeHashFamily(4, 4096, seed=11)
        bloom = BloomFilter(4096, 4, family)
        base = 0x4000_0000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(lines):
                line = base + i * 64
                bloom.insert(line)
                assert bloom.maybe_contains(line)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown / lines <= 320

    def test_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(hashing, "MEMO_CAPACITY", 8)
        family = MultiplicativeHashFamily(4, 4096)
        for value in range(0, 64 * 50, 64):
            family.indices_for(value)
            assert len(family._memo) <= 8

    def test_answers_survive_memo_overflow(self, monkeypatch):
        monkeypatch.setattr(hashing, "MEMO_CAPACITY", 8)
        family = MultiplicativeHashFamily(4, 512, seed=3)
        bloom = BloomFilter(512, 4, family)
        inserted = [0x1000 + i * 64 for i in range(40)]
        probes = [0x1000 + i * 64 for i in range(200)]
        bloom.insert_all(inserted)
        answers = [bloom.maybe_contains(p) for p in probes]
        fresh = MultiplicativeHashFamily(4, 512, seed=3)
        assert [family.indices_for(p) for p in probes] == [
            tuple(fresh.indices(p)) for p in probes
        ]
        bits = {i for value in inserted for i in fresh.indices(value)}
        assert answers == [
            all(i in bits for i in fresh.indices(p)) for p in probes
        ]
        assert any(answers[len(inserted):])  # some aliasing was exercised

    @pytest.mark.parametrize(
        "family_cls", [H3HashFamily, MultiplicativeHashFamily]
    )
    def test_indices_are_shared(self, family_cls, monkeypatch):
        buckets = 4096
        family = family_cls(4, buckets, seed=5)
        probes = [0x2000_0000 + i * 64 for i in range(3000)]
        first_seen = {}
        for p in probes:
            for index in family.indices_for(p):
                assert first_seen.setdefault(index, index) is index
        # 12,000 indices over at most 4096 values: most recur across entries.
        assert len(first_seen) <= buckets
        interned = family._interned
        assert len(interned) <= buckets
        monkeypatch.setattr(hashing, "MEMO_CAPACITY", 64)
        fresh = family_cls(4, buckets, seed=5)
        for p in [0x3000_0000 + i * 64 for i in range(200)] + probes:
            assert family.indices_for(p) == tuple(fresh.indices(p))
            assert len(family._memo) <= 64
        assert family._interned is interned  # not cleared with the memo
        assert len(interned) <= buckets

    def test_footprint_amortised(self):
        """16,384 new line addresses cost at most 180 B each, amortised.

        A memo entry whose indices are shared ints measures about 160 B;
        with four private ints per entry it measured about 260 B.
        """
        lines = 16384
        family = MultiplicativeHashFamily(4, 4096, seed=11)
        bloom = BloomFilter(4096, 4, family)
        base = 0x4000_0000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(lines):
                line = base + i * 64
                bloom.insert(line)
                assert bloom.maybe_contains(line)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown / lines <= 180
