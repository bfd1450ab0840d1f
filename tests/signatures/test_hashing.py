"""Tests for the signature hash families."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.signatures import hashing
from repro.signatures.bloom import BankedBloomFilter, BloomFilter
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
    """The per-family page memo of line indices: bounded, small, answer-neutral.

    A 4 KB page of 64 lines is one typed array of ``64 * k`` slots, so a
    memoised line costs about 10 B under tracemalloc (Python 3.11) where a
    dict entry and its index tuple cost about 160 B.
    """

    def test_footprint_per_distinct_address(self):
        """Inserting then probing a new line address costs at most 320 B.

        The cost is the line's share of its memo page (the array and its
        dict slot), about 10 B over 4096 lines; the filter's byte array
        does not grow.  The bound fails a memo that also keeps a 4096-bit
        mask per address (about 850 B).
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

    @pytest.mark.parametrize("functions", [1, 4])
    @pytest.mark.parametrize("banked", [False, True], ids=["flat", "banked"])
    @pytest.mark.parametrize(
        "family_cls", [H3HashFamily, MultiplicativeHashFamily]
    )
    def test_answers_match_fresh_family(
        self, family_cls, banked, functions, monkeypatch
    ):
        """Keys and probe answers equal a memo-free family's, everywhere.

        The probes straddle a page boundary, fill the first and last line
        of 16 pages under a 4-page cap (so the memo clears several times),
        mix in unaligned values, then repeat after the clears.
        """
        monkeypatch.setattr(hashing, "MEMO_PAGES", 4)
        bits = 512
        buckets = bits // functions if banked else bits
        family = family_cls(functions, buckets, seed=3)
        fresh = family_cls(functions, buckets, seed=3)
        bloom = (BankedBloomFilter if banked else BloomFilter)(
            bits, functions, family
        )

        def offsets(value):
            indices = list(fresh.indices(value))
            if banked:
                return [i + bank * buckets for bank, i in enumerate(indices)]
            return indices

        lines = [0x10_0000 + i * 64 for i in range(-70, 70)]
        lines += [
            0x20_0000 + page * 4096 + slot * 64
            for page in range(16)
            for slot in (0, 63)
        ]
        unaligned = [line + off for line in lines[::7] for off in (1, 8, 63)]
        inserted = lines[::3]
        bloom.insert_all(inserted)
        probes = lines + unaligned + lines
        answers = [bloom.maybe_contains(p) for p in probes]
        for p in probes:
            assert tuple(family.indices_for(p)) == tuple(fresh.indices(p)), hex(p)
            assert tuple(bloom.probe_key(p)) == tuple(offsets(p)), hex(p)
        set_bits = {i for value in inserted for i in offsets(value)}
        assert answers == [all(i in set_bits for i in offsets(p)) for p in probes]

    def test_pages_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(hashing, "MEMO_PAGES", 8)
        family = MultiplicativeHashFamily(4, 4096)
        for value in range(0, 4096 * 50, 64):
            family.indices_for(value)
            assert len(family._pages) <= 8
        assert len(family._pages) >= 1

    def test_unaligned_values_skip_memo(self):
        family = MultiplicativeHashFamily(4, 4096, seed=5)
        for value in range(0x1000_0001, 0x1000_0001 + 64 * 100, 64):
            assert list(family.indices_for(value)) == list(family.indices(value))
        assert family._pages == {}

    def test_long_scan_never_clears(self):
        """120,000 contiguous lines stay memoised through insert and probe.

        ``long-scan`` touches about 100,000 distinct lines per family over
        its seed list; a memo that clears before that recomputes them.
        """
        lines = 120_000
        family = MultiplicativeHashFamily(4, 4096, seed=11)
        fresh = MultiplicativeHashFamily(4, 4096, seed=11)
        bloom = BloomFilter(4096, 4, family)
        base = 0x4000_0000
        values = range(base, base + lines * 64, 64)
        for value in values:
            bloom.insert(value)
        pages = dict(family._pages)
        assert len(pages) == lines // 64
        for value in values:
            assert bloom.maybe_contains(value)
            assert tuple(family.indices_for(value)) == tuple(fresh.indices(value))
        assert len(family._pages) == len(pages)
        assert all(family._pages[n] is page for n, page in pages.items())

    def test_footprint_amortised(self):
        """16,384 new line addresses cost at most 16 B each, amortised.

        A line's share of its memo page measures about 10 B with 2-byte
        slots and about 18 B with 4-byte ones; a dict entry holding a tuple
        of shared ints measured about 160 B.
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
        assert grown / lines <= 16
