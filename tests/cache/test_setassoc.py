"""Tests for the set-associative tag array."""

from __future__ import annotations

import pytest

from repro.cache.coherence import MesiState
from repro.cache.setassoc import CacheLineMeta, SetAssociativeArray
from repro.params import CacheGeometry, LINE_SIZE


def make_array(sets=4, ways=2):
    geometry = CacheGeometry(size_bytes=sets * ways * LINE_SIZE, ways=ways)
    return SetAssociativeArray(geometry, "test")


class TestLookupInstall:
    def test_miss_then_hit(self):
        array = make_array()
        assert array.lookup(0x1000) is None
        array.install(0x1000)
        assert array.lookup(0x1000) is not None
        assert array.hits == 1
        assert array.misses == 1

    def test_peek_does_not_count(self):
        array = make_array()
        array.install(0x1000)
        array.peek(0x1000)
        array.peek(0x2000)
        assert array.hits == 0
        assert array.misses == 0

    def test_double_install_asserts(self):
        array = make_array()
        array.install(0x1000)
        with pytest.raises(AssertionError):
            array.install(0x1000)

    def test_remove(self):
        array = make_array()
        array.install(0x1000)
        meta = array.remove(0x1000)
        assert meta is not None
        assert array.peek(0x1000) is None
        assert array.remove(0x1000) is None


class TestReplacement:
    def test_lru_eviction_order(self):
        array = make_array(sets=1, ways=2)
        array.install(0 * LINE_SIZE)
        array.install(1 * LINE_SIZE)
        victims = array.install(2 * LINE_SIZE)
        assert [v.line_addr for v in victims] == [0]

    def test_lookup_refreshes_lru(self):
        array = make_array(sets=1, ways=2)
        array.install(0 * LINE_SIZE)
        array.install(1 * LINE_SIZE)
        array.lookup(0)  # 0 becomes MRU
        victims = array.install(2 * LINE_SIZE)
        assert [v.line_addr for v in victims] == [LINE_SIZE]

    def test_set_indexing_isolates_sets(self):
        array = make_array(sets=4, ways=1)
        # These addresses map to different sets: no evictions.
        for i in range(4):
            assert array.install(i * LINE_SIZE) == []
        # Same set as line 0 (stride = sets * line):
        victims = array.install(4 * LINE_SIZE)
        assert [v.line_addr for v in victims] == [0]

    def test_eviction_counter(self):
        array = make_array(sets=1, ways=1)
        array.install(0)
        array.install(LINE_SIZE)
        assert array.evictions == 1


class TestMeta:
    def test_meta_holds_no_transactional_state(self):
        # Tx-Owner / Tx-Sharers live in the directory only.
        assert CacheLineMeta.__slots__ == ("line_addr", "dirty", "mesi")
        meta = CacheLineMeta(0)
        assert not meta.dirty
        assert meta.mesi is MesiState.SHARED

    def test_resident_introspection(self):
        array = make_array()
        array.install(0)
        array.install(LINE_SIZE)
        assert array.resident_count() == 2
        assert sorted(array.resident_lines()) == [0, LINE_SIZE]

    def test_occupancy_by_predicate(self):
        array = make_array()
        array.install(0)
        array.peek(0).dirty = True
        array.install(LINE_SIZE)
        assert array.occupancy_by_predicate(lambda m: m.dirty) == 1

    def test_clear(self):
        array = make_array()
        array.install(0)
        array.clear()
        assert array.resident_count() == 0


def _set_index(array, line_addr):
    """The set a line maps to (the array inlines the computation)."""
    bucket = array._set_of(line_addr)
    return next(i for i, s in enumerate(array._sets) if s is bucket)


class TestSetIndexGeometry:
    """Regression pin for the ``_set_mask`` bug class.

    For non-power-of-two set counts a mask of ``num_sets - 1`` is wrong:
    with 6 sets, line 6 maps to set 0 by modulo but ``6 & 5 == 4``.  The
    array must use the mask only when ``num_sets`` is a power of two and
    fall back to true modulo otherwise.
    """

    @pytest.mark.parametrize("array_cls", [SetAssociativeArray])
    @pytest.mark.parametrize("num_sets", [3, 5, 6, 7, 12])
    def test_non_power_of_two_uses_modulo(self, array_cls, num_sets):
        geometry = CacheGeometry(
            size_bytes=num_sets * 2 * LINE_SIZE, ways=2
        )
        array = array_cls(geometry, "geom")
        assert array._set_mask is None
        for line in range(4 * num_sets):
            assert _set_index(array, line * LINE_SIZE) == line % num_sets

    @pytest.mark.parametrize("array_cls", [SetAssociativeArray])
    @pytest.mark.parametrize("num_sets", [1, 2, 4, 8, 64])
    def test_power_of_two_mask_equals_modulo(self, array_cls, num_sets):
        geometry = CacheGeometry(
            size_bytes=num_sets * 2 * LINE_SIZE, ways=2
        )
        array = array_cls(geometry, "geom")
        assert array._set_mask == num_sets - 1
        for line in range(4 * num_sets + 3):
            assert _set_index(array, line * LINE_SIZE) == line % num_sets

    @pytest.mark.parametrize("array_cls", [SetAssociativeArray])
    def test_mask_bug_would_alias_lines(self, array_cls):
        # The exact collision the mask bug would produce: with 6 sets,
        # lines 6 and 4 share set 4 under ``& 5`` but not under ``% 6``.
        geometry = CacheGeometry(size_bytes=6 * 1 * LINE_SIZE, ways=1)
        array = array_cls(geometry, "geom")
        assert _set_index(array, 6 * LINE_SIZE) == 0
        assert _set_index(array, 4 * LINE_SIZE) == 4
        # Direct-mapped, different sets: filling one must not evict the
        # other (it would under the aliased index).
        array.fill(6 * LINE_SIZE)
        _, victims = array.fill(4 * LINE_SIZE)
        assert not list(victims)
        assert array.resident_count() == 2
