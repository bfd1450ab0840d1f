"""Tests for the signature hash families."""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro.signatures.bloom import BankedBloomFilter, BloomFilter
from repro.signatures.hashing import H3HashFamily, MultiplicativeHashFamily
from repro.sim.rng import RngStreams


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


def reference_indices(functions, buckets, seed, value):
    """The multiplicative family's definition, one function at a time."""
    rng = RngStreams(seed).stream("signatures.multipliers")
    mask = (1 << 64) - 1
    out = []
    for _ in range(functions):
        multiplier = (rng.getrandbits(64) | 1) & mask
        h = ((value & mask) * multiplier) & mask
        h ^= h >> 33
        h = (h * 0xFF51AFD7ED558CCD) & mask
        h ^= h >> 33
        out.append(h % buckets)
    return out


class TestPackedIndices:
    """The packed pass equals the scalar definition and keeps no state."""

    @pytest.mark.parametrize("functions", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("buckets", [1, 3, 1000, 1024, 4096, 65536])
    def test_matches_scalar_reference(self, functions, buckets):
        rng = random.Random(functions * 100_003 + buckets)
        near_top = 1 << 44
        values = [0, 1, 2**63 - 1, 2**63, 2**64 - 1]
        values += [rng.getrandbits(40) * 64 + rng.randrange(1, 64) for _ in range(40)]
        values += [near_top + line * 64 for line in range(-20, 20)]
        values += [rng.getrandbits(44) << 6 for _ in range(40)]
        family = MultiplicativeHashFamily(functions, buckets, seed=31)
        for value in values:
            assert list(family.indices(value)) == reference_indices(
                functions, buckets, 31, value
            ), hex(value)

    @pytest.mark.parametrize("functions", [1, 4])
    @pytest.mark.parametrize("banked", [False, True], ids=["flat", "banked"])
    @pytest.mark.parametrize(
        "family_cls", [H3HashFamily, MultiplicativeHashFamily]
    )
    def test_answers_match_fresh_family(self, family_cls, banked, functions):
        """Keys and probe answers equal a fresh family's, everywhere.

        The probes straddle a page boundary, take the first and last line
        of 16 pages, mix in unaligned values, then repeat.
        """
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
            assert tuple(family.indices(p)) == tuple(fresh.indices(p)), hex(p)
            assert tuple(bloom.probe_key(p)) == tuple(offsets(p)), hex(p)
        set_bits = {i for value in inserted for i in offsets(value)}
        assert answers == [all(i in set_bits for i in offsets(p)) for p in probes]

    def test_footprint_per_distinct_address(self):
        """Inserting then probing a new line address costs at most 320 B.

        The filter's byte array does not grow, and the family keeps nothing
        per value.  The bound fails a family or filter that keeps a
        4096-bit mask per address (about 850 B).
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

    def test_hashing_new_lines_leaves_nothing_behind(self):
        """16,384 new line addresses, inserted and probed, retain no memory.

        The packed pass builds its temporaries per call and frees them; a
        per-line memo of indices (about 10 B a line as typed-array pages)
        would leave about 160 KB here.
        """
        lines = 16384
        family = MultiplicativeHashFamily(4, 4096, seed=11)
        bloom = BloomFilter(4096, 4, family)
        base = 0x4000_0000
        bloom.insert(base - 64)  # first-call allocations happen outside
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for i in range(lines):
                line = base + i * 64
                family.indices(line)
                bloom.insert(line)
                assert bloom.maybe_contains(line)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown <= 1024
