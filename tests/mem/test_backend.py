"""Tests for the word-addressed backing stores."""

from __future__ import annotations

import pytest

from repro.errors import AddressError
from repro.mem.address import MemoryKind
from repro.mem.backend import BackingStore
from repro.params import LatencyConfig


@pytest.fixture
def dram():
    return BackingStore(MemoryKind.DRAM, LatencyConfig())


@pytest.fixture
def nvm():
    return BackingStore(MemoryKind.NVM, LatencyConfig())


class TestLoadStore:
    def test_unwritten_reads_zero(self, dram):
        assert dram.load(0x1000) == 0

    def test_store_then_load(self, dram):
        dram.store(0x1000, 42)
        assert dram.load(0x1000) == 42

    def test_word_aliasing(self, dram):
        """Any byte address within a word maps to the same cell."""
        dram.store(0x1001, 7)
        assert dram.load(0x1000) == 7
        assert dram.load(0x1007) == 7
        assert dram.load(0x1008) == 0

    def test_non_int_value_rejected(self, dram):
        with pytest.raises(AddressError):
            dram.store(0x1000, "x")

    def test_word_count(self, dram):
        dram.store(0, 1)
        dram.store(8, 2)
        dram.store(8, 3)  # overwrite, not a new word
        assert dram.word_count() == 2

    def test_stored_zero_is_not_counted(self, dram):
        """A zero word cannot be told from an unwritten one."""
        dram.store(0, 1)
        dram.store(8, 0)
        assert dram.word_count() == 1
        dram.store(0, 0)
        assert dram.word_count() == 0
        assert dict(dram.words()) == {}

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 1.5])
    def test_value_outside_signed_64_bits_rejected(self, dram, value):
        with pytest.raises(AddressError):
            dram.store(0x1000, value)
        assert dram.load(0x1000) == 0


class TestLatencies:
    def test_dram_symmetric(self, dram):
        assert dram.read_ns == 82.0
        assert dram.write_ns == 82.0

    def test_nvm_asymmetric(self, nvm):
        assert nvm.read_ns == 175.0
        assert nvm.write_ns == 94.0


class TestVolatility:
    def test_wipe(self, dram):
        dram.store(0, 99)
        dram.wipe()
        assert dram.load(0) == 0
        assert dram.word_count() == 0

    def test_clone_contents_is_snapshot(self, nvm):
        nvm.store(0, 5)
        snapshot = nvm.clone_contents()
        nvm.store(0, 6)
        assert snapshot[0] == 5

    def test_words_iteration(self, nvm):
        nvm.store(0, 1)
        nvm.store(16, 2)
        assert dict(nvm.words()) == {0: 1, 16: 2}
